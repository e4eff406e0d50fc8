// Package eventbus implements the publish/subscribe substrate used by the
// orchestration runtime to route values between components. In the paper's
// Sense-Compute-Control architecture every straight arrow in a design graph
// (device source → context, context → context, context → controller) is an
// event-driven delivery; this bus is the runtime realization of those arrows.
//
// Topics are strings (a component or "Device.source" name). Each subscriber
// owns a bounded queue drained by a dedicated goroutine. The bus is lossless:
// a publisher that finds a queue full waits for the drain (backpressure), so
// every event offered to a live subscription is delivered. Where a pipeline
// sheds load, it does so upstream, in the runtime's admission budgets and
// drop ledger, never here.
//
// To serve large device populations the bus is sharded: topics are hashed
// into independent lock domains so publishers on unrelated topics never
// contend, and subscriber lists are copy-on-write so the publish fast path
// takes a shared lock and allocates nothing. Swarm-scale fan-in, where
// thousands of sensor readings target the same source topic in one delivery
// round, amortizes the remaining per-event bus overhead by publishing one
// Weighted payload (a device.ReadingBatch) per burst.
package eventbus

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"
)

// Event is a value published on a topic.
type Event struct {
	// Topic names the logical channel the event was published on.
	Topic string
	// Payload carries the published value.
	Payload any
	// Time is the publication time as observed by the publisher's clock.
	Time time.Time
	// Seq is a bus-wide monotonically increasing publication number.
	Seq uint64
}

// Handler consumes events delivered to a subscription.
type Handler func(Event)

// Refcounted is implemented by pooled payloads (device.ReadingBatch on
// device-source topics, the runtime's value batch on context topics). The
// bus retains one reference per subscriber before enqueueing and releases it
// when the delivery finishes or a stopping subscription discards the event,
// so a recycled buffer can never be observed by a late or slow subscriber.
// Handlers BORROW the payload for the duration of the call: they must
// neither retain it past return nor release it themselves.
type Refcounted interface {
	Retain()
	Release()
}

// Weighted is implemented by payloads that stand for more than one logical
// event (a ReadingBatch of n readings, a value batch of n context
// publications). The bus counts published and delivered by weight, so Stats
// keep meaning "readings" and "published values" whether they travel one
// per event or batched, and one queue slot holds the whole payload's weight.
type Weighted interface {
	EventWeight() int
}

// payloadWeight reports how many logical events p stands for.
func payloadWeight(p any) uint64 {
	if w, ok := p.(Weighted); ok {
		return uint64(w.EventWeight())
	}
	return 1
}

func retainPayload(p any) {
	if r, ok := p.(Refcounted); ok {
		r.Retain()
	}
}

func releasePayload(p any) {
	if r, ok := p.(Refcounted); ok {
		r.Release()
	}
}

// ErrClosed is returned by operations on a closed bus.
var ErrClosed = errors.New("eventbus: closed")

// DefaultShards is the shard count used when WithShards is not given. Topics
// hash uniformly across shards, so contention between unrelated topics drops
// by roughly this factor.
const DefaultShards = 16

// shardSeed makes the topic→shard hash vary between processes but stay
// consistent within one bus lifetime.
var shardSeed = maphash.MakeSeed()

// Bus is a topic-based publish/subscribe dispatcher sharded by topic hash.
// The zero value is not usable; use New.
type Bus struct {
	shards []shard
	mask   uint64
	seq    atomic.Uint64
	wg     sync.WaitGroup

	published atomic.Uint64
	delivered atomic.Uint64

	// offered counts weight handed to subscriber queues (once per
	// recipient); every unit ends up delivered or — on a stopping
	// subscription — discarded. Idle compares the two sides.
	offered   atomic.Uint64
	discarded atomic.Uint64
}

// shard is one independent lock domain of the bus. The subscriber slices in
// subs are copy-on-write: Publish reads them under RLock and never mutates,
// Subscribe/remove install fresh slices under the write lock.
type shard struct {
	mu     sync.RWMutex
	subs   map[string][]*Subscription
	closed bool
	_      [32]byte // keep neighbouring shard locks off one cache line
}

// Stats aggregates bus counters. Values are monotonically increasing over
// the bus lifetime.
type Stats struct {
	// Published counts events accepted by Publish while the bus was open.
	Published uint64
	// Delivered counts events handed to subscriber handlers.
	Delivered uint64
	// Dropped is always 0: the bus never drops an event. The field is kept
	// only because bench/w_tenants_hot.go still reads it, and goes once
	// that read does.
	Dropped uint64
}

// BusOption configures a Bus.
type BusOption func(*busConfig)

type busConfig struct {
	shards int
}

// WithShards sets the number of lock domains. n is rounded up to a power of
// two; values below 1 select one shard (the pre-sharding behaviour, kept for
// the ablation benchmarks).
func WithShards(n int) BusOption {
	return func(c *busConfig) { c.shards = n }
}

// New returns an empty open bus.
func New(opts ...BusOption) *Bus {
	cfg := busConfig{shards: DefaultShards}
	for _, o := range opts {
		o(&cfg)
	}
	n := 1
	for n < cfg.shards {
		n <<= 1
	}
	b := &Bus{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range b.shards {
		b.shards[i].subs = make(map[string][]*Subscription)
	}
	return b
}

// ShardCount reports the number of independent lock domains.
func (b *Bus) ShardCount() int { return len(b.shards) }

func (b *Bus) shard(topic string) *shard {
	return &b.shards[maphash.String(shardSeed, topic)&b.mask]
}

// SubOption configures a subscription.
type SubOption func(*subConfig)

type subConfig struct {
	queue int
}

// WithQueue sets the subscription queue capacity. n must be at least 1; the
// default is 64.
func WithQueue(n int) SubOption {
	return func(c *subConfig) { c.queue = n }
}

// Subscribe registers h for events published on topic. The handler runs on a
// dedicated goroutine owned by the subscription; handlers for one
// subscription never run concurrently with themselves. Cancel the
// subscription with its Cancel method; Close cancels all subscriptions.
func (b *Bus) Subscribe(topic string, h Handler, opts ...SubOption) (*Subscription, error) {
	if h == nil {
		return nil, errors.New("eventbus: nil handler")
	}
	cfg := subConfig{queue: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.queue < 1 {
		return nil, fmt.Errorf("eventbus: queue capacity %d < 1", cfg.queue)
	}

	s := &Subscription{
		bus:   b,
		topic: topic,
		h:     h,
		buf:   make([]Event, 0, cfg.queue),
		done:  make(chan struct{}),
	}
	s.notEmpty.L = &s.mu
	s.notFull.L = &s.mu

	sh := b.shard(topic)
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	// Copy-on-write: publishers iterating the old slice are unaffected.
	old := sh.subs[topic]
	next := make([]*Subscription, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	sh.subs[topic] = next
	b.wg.Add(1)
	sh.mu.Unlock()

	go s.run(&b.wg, make([]Event, 0, cfg.queue))
	return s, nil
}

// Publish delivers payload to every current subscriber of topic, waiting
// for queue space where a subscriber's queue is full. now is recorded as the
// event time.
func (b *Bus) Publish(topic string, payload any, now time.Time) error {
	sh := b.shard(topic)
	sh.mu.RLock()
	if sh.closed {
		sh.mu.RUnlock()
		return ErrClosed
	}
	subs := sh.subs[topic]
	sh.mu.RUnlock()

	w := payloadWeight(payload)
	b.published.Add(w)
	b.offered.Add(w * uint64(len(subs)))
	ev := Event{Topic: topic, Payload: payload, Time: now, Seq: b.seq.Add(1)}
	for _, s := range subs {
		// One reference per recipient; the delivering goroutine (or the
		// discard path) releases it. The publisher keeps its own reference.
		retainPayload(payload)
		s.enqueue(ev)
	}
	return nil
}

// Subscribers reports the number of active subscriptions on topic.
func (b *Bus) Subscribers(topic string) int {
	sh := b.shard(topic)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.subs[topic])
}

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() Stats {
	return Stats{
		Published: b.published.Load(),
		Delivered: b.delivered.Load(),
	}
}

// Idle reports whether every event offered to a subscriber so far has been
// settled: handed to its handler (and the handler returned) or discarded by
// a stopping subscription. A handler that
// publishes does so before its own delivery settles, so a chain of topics is
// never idle midway. Idle is an instant's truth: it says nothing about
// events published after it returns.
func (b *Bus) Idle() bool {
	// Settled side first: each counter only grows and offered is read last,
	// so equality proves the bus was idle when the last settled counter was
	// read.
	settled := b.delivered.Load() + b.discarded.Load()
	return settled == b.offered.Load()
}

// Close cancels every subscription and waits for in-flight handler calls to
// finish. Further Publish and Subscribe calls return ErrClosed. Close is
// idempotent.
func (b *Bus) Close() {
	var all []*Subscription
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		if !sh.closed {
			sh.closed = true
			for _, subs := range sh.subs {
				all = append(all, subs...)
			}
			sh.subs = make(map[string][]*Subscription)
		}
		sh.mu.Unlock()
	}
	for _, s := range all {
		s.stop()
	}
	b.wg.Wait()
}

func (b *Bus) remove(s *Subscription) {
	sh := b.shard(s.topic)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.subs[s.topic]
	for i, other := range old {
		if other == s {
			next := make([]*Subscription, 0, len(old)-1)
			next = append(next, old[:i]...)
			next = append(next, old[i+1:]...)
			if len(next) == 0 {
				delete(sh.subs, s.topic)
			} else {
				sh.subs[s.topic] = next
			}
			break
		}
	}
}

// Subscription is a single subscriber's registration on a topic. Its queue
// is a mutex-guarded slice rather than a channel so that the drain goroutine
// takes everything queued in one lock acquisition, by swapping the slice for
// an empty one of the same capacity.
type Subscription struct {
	bus   *Bus
	topic string
	h     Handler

	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []Event // queued events; full when len == cap
	stopped  bool

	stopOnce sync.Once
	done     chan struct{}
}

// Topic reports the topic this subscription listens on.
func (s *Subscription) Topic() string { return s.topic }

// Cancel removes the subscription and waits for its drain goroutine to
// finish; events already queued are still delivered before Cancel returns.
// Cancel is idempotent and safe to call from any goroutine except the
// subscription's own handler.
func (s *Subscription) Cancel() {
	s.bus.remove(s)
	s.stop()
	<-s.done
}

func (s *Subscription) stop() {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.stopped = true
		s.notEmpty.Signal()
		s.notFull.Broadcast()
		s.mu.Unlock()
	})
}

// enqueue queues ev, waiting while the queue is full. A stopping
// subscription discards ev instead — its drain goroutine may already have
// exited, so a queued event would never be delivered nor its payload
// released. The discard is intended shutdown behaviour: the payload is
// released and its weight settled as discarded, not counted as a drop.
func (s *Subscription) enqueue(ev Event) {
	s.mu.Lock()
	for len(s.buf) == cap(s.buf) && !s.stopped {
		s.notFull.Wait()
	}
	if s.stopped {
		s.mu.Unlock()
		s.bus.discarded.Add(payloadWeight(ev.Payload))
		releasePayload(ev.Payload)
		return
	}
	s.buf = append(s.buf, ev)
	if len(s.buf) == 1 {
		s.notEmpty.Signal()
	}
	s.mu.Unlock()
}

// run drains the queue until the subscription stops; spare is the empty
// slice swapped in for each batch it takes.
func (s *Subscription) run(wg *sync.WaitGroup, spare []Event) {
	defer wg.Done()
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.buf) == 0 && !s.stopped {
			s.notEmpty.Wait()
		}
		if len(s.buf) == 0 {
			// Stopped and fully drained.
			s.mu.Unlock()
			return
		}
		// Take everything queued by swapping in the empty spare, then run
		// the handlers outside the lock while publishers refill the spare.
		batch := s.buf
		s.buf = spare
		s.notFull.Broadcast()
		s.mu.Unlock()

		for i := range batch {
			p := batch[i].Payload
			s.h(batch[i])
			// Weight is read before the release: the last release may
			// recycle the payload. The slot is cleared so the buffer does
			// not pin a released payload until it is overwritten.
			s.bus.delivered.Add(payloadWeight(p))
			releasePayload(p)
			batch[i] = Event{}
		}
		spare = batch[:0]
	}
}
