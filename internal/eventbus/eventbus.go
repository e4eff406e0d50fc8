// Package eventbus implements the publish/subscribe substrate used by the
// orchestration runtime to route values between components. In the paper's
// Sense-Compute-Control architecture every straight arrow in a design graph
// (device source → context, context → context, context → controller) is an
// event-driven delivery; this bus is the runtime realization of those arrows.
//
// Topics are strings (a component or "Device.source" name). Each subscriber
// owns a bounded queue drained by a dedicated goroutine, so one slow consumer
// cannot stall publishers or its peers. The overflow policy is configurable
// per subscription: Block (backpressure), DropOldest (keep fresh sensor
// readings, the usual IoT choice) or DropNewest.
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

// Policy selects the behaviour of a full subscription queue.
type Policy int

const (
	// Block makes Publish wait until the subscriber has queue space.
	Block Policy = iota + 1
	// DropOldest discards the oldest queued event to admit the new one.
	DropOldest
	// DropNewest discards the event being published.
	DropNewest
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

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
// when the delivery finishes or the event is dropped, so a recycled buffer
// can never be observed by a late or slow subscriber. Handlers BORROW the
// payload for the duration of the call: they must neither retain it past
// return nor release it themselves.
type Refcounted interface {
	Retain()
	Release()
}

// Weighted is implemented by payloads that stand for more than one logical
// event (a ReadingBatch of n readings, a value batch of n context
// publications). The bus counts published, delivered and dropped by weight,
// so Stats keep meaning "readings" and "published values" whether they
// travel one per event or batched, and a queue slot, a DropOldest eviction
// or a DropNewest refusal settles the whole payload's weight at once.
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
	dropped   atomic.Uint64

	// offered counts weight handed to subscriber queues (once per
	// recipient); every unit ends up delivered, dropped or — on a stopping
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
	// Dropped counts events discarded by DropOldest/DropNewest queues.
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
	queue  int
	policy Policy
}

// WithQueue sets the subscription queue capacity. n must be at least 1; the
// default is 64.
func WithQueue(n int) SubOption {
	return func(c *subConfig) { c.queue = n }
}

// WithPolicy sets the overflow policy. The default is Block.
func WithPolicy(p Policy) SubOption {
	return func(c *subConfig) { c.policy = p }
}

// Subscribe registers h for events published on topic. The handler runs on a
// dedicated goroutine owned by the subscription; handlers for one
// subscription never run concurrently with themselves. Cancel the
// subscription with its Cancel method; Close cancels all subscriptions.
func (b *Bus) Subscribe(topic string, h Handler, opts ...SubOption) (*Subscription, error) {
	if h == nil {
		return nil, errors.New("eventbus: nil handler")
	}
	cfg := subConfig{queue: 64, policy: Block}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.queue < 1 {
		return nil, fmt.Errorf("eventbus: queue capacity %d < 1", cfg.queue)
	}
	switch cfg.policy {
	case Block, DropOldest, DropNewest:
	default:
		return nil, fmt.Errorf("eventbus: unknown policy %v", cfg.policy)
	}

	s := &Subscription{
		bus:    b,
		topic:  topic,
		h:      h,
		buf:    make([]Event, cfg.queue),
		policy: cfg.policy,
		done:   make(chan struct{}),
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

	go s.run(&b.wg)
	return s, nil
}

// Publish delivers payload to every current subscriber of topic. With Block
// subscriptions it may wait for queue space; with the drop policies it never
// blocks. now is recorded as the event time.
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
		// drop path) releases it. The publisher keeps its own reference.
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
		Dropped:   b.dropped.Load(),
	}
}

// Idle reports whether every event offered to a subscriber so far has been
// settled: handed to its handler (and the handler returned), dropped by an
// overflow policy, or discarded by a stopping subscription. A handler that
// publishes does so before its own delivery settles, so a chain of topics is
// never idle midway. Idle is an instant's truth: it says nothing about
// events published after it returns.
func (b *Bus) Idle() bool {
	// Settled side first: each counter only grows and offered is read last,
	// so equality proves the bus was idle when the last settled counter was
	// read.
	settled := b.delivered.Load() + b.dropped.Load() + b.discarded.Load()
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
// is a mutex-guarded ring buffer rather than a channel so that the drain
// goroutine removes everything queued in one lock acquisition and DropOldest
// can evict from the head in place.
type Subscription struct {
	bus    *Bus
	topic  string
	h      Handler
	policy Policy

	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []Event // ring buffer of the configured queue capacity
	head     int
	count    int
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

// pushLocked appends ev to the ring; the caller holds s.mu and has ensured
// there is space.
func (s *Subscription) pushLocked(ev Event) {
	s.buf[(s.head+s.count)%len(s.buf)] = ev
	s.count++
	if s.count == 1 {
		s.notEmpty.Signal()
	}
}

// enqOutcome names what the overflow policy did with one event. Refcounted
// payloads make the distinction load-bearing: every outcome releases exactly
// the references it costs, and only real drops count in Stats.
type enqOutcome uint8

const (
	// enqQueued: the event was queued with no loss.
	enqQueued enqOutcome = iota
	// enqEvicted: the event was queued after DropOldest evicted the oldest
	// queued event (returned as the victim).
	enqEvicted
	// enqRefused: a full DropNewest queue refused the incoming event.
	enqRefused
	// enqDiscarded: a stopping subscription discarded the incoming event —
	// intended shutdown behaviour, released but not counted as a drop.
	enqDiscarded
)

// enqueueLocked applies the overflow policy for one event; the caller holds
// s.mu. victim is only meaningful for enqEvicted; the caller releases and
// accounts casualties (outside the lock where possible).
func (s *Subscription) enqueueLocked(ev Event) (outcome enqOutcome, victim any) {
	if s.stopped {
		// The drain goroutine may already have exited: an event queued now
		// would never be delivered nor its payload released.
		return enqDiscarded, nil
	}
	switch s.policy {
	case DropNewest:
		if s.count == len(s.buf) {
			return enqRefused, nil
		}
	case DropOldest:
		if s.count == len(s.buf) {
			victim = s.buf[s.head].Payload
			s.buf[s.head].Payload = nil
			s.head = (s.head + 1) % len(s.buf)
			s.count--
			s.pushLocked(ev)
			return enqEvicted, victim
		}
	default: // Block
		for s.count == len(s.buf) && !s.stopped {
			s.notFull.Wait()
		}
		if s.stopped {
			return enqDiscarded, nil
		}
	}
	s.pushLocked(ev)
	return enqQueued, nil
}

// settle releases whatever reference an enqueue outcome costs and reports
// the weight to count as dropped (0 for queued/discarded outcomes).
func (s *Subscription) settle(outcome enqOutcome, victim, incoming any) uint64 {
	switch outcome {
	case enqEvicted:
		w := payloadWeight(victim)
		releasePayload(victim)
		return w
	case enqRefused:
		w := payloadWeight(incoming)
		releasePayload(incoming)
		return w
	case enqDiscarded:
		s.bus.discarded.Add(payloadWeight(incoming))
		releasePayload(incoming)
	}
	return 0
}

func (s *Subscription) enqueue(ev Event) {
	s.mu.Lock()
	outcome, victim := s.enqueueLocked(ev)
	s.mu.Unlock()
	if outcome == enqQueued {
		return
	}
	if w := s.settle(outcome, victim, ev.Payload); w > 0 {
		s.bus.dropped.Add(w)
	}
}

func (s *Subscription) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(s.done)
	scratch := make([]Event, len(s.buf))
	for {
		s.mu.Lock()
		for s.count == 0 && !s.stopped {
			s.notEmpty.Wait()
		}
		if s.count == 0 {
			// Stopped and fully drained.
			s.mu.Unlock()
			return
		}
		// Take everything queued in up to two ring segments, then run
		// the handlers outside the lock. The drained ring slots are cleared
		// so the buffer does not pin released payloads until overwritten.
		n := s.count
		first := len(s.buf) - s.head
		if first > n {
			first = n
		}
		copy(scratch, s.buf[s.head:s.head+first])
		copy(scratch[first:], s.buf[:n-first])
		clear(s.buf[s.head : s.head+first])
		clear(s.buf[:n-first])
		s.head = (s.head + n) % len(s.buf)
		s.count = 0
		s.notFull.Broadcast()
		s.mu.Unlock()

		for i := 0; i < n; i++ {
			p := scratch[i].Payload
			s.h(scratch[i])
			// Weight is read before the release: the last release may
			// recycle the payload.
			s.bus.delivered.Add(payloadWeight(p))
			releasePayload(p)
			scratch[i] = Event{}
		}
	}
}
