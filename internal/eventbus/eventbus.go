// Package eventbus implements the publish/subscribe substrate used by the
// orchestration runtime to route values between components: the context
// publications (context → context, context → controller) of the paper's
// Sense-Compute-Control graph, and nothing else. Device readings and
// periodic rounds skip it: a device source → context arrow and a poller →
// context arrow each have one producer and one consumer, fixed at wiring,
// so the ingestion pipeline calls its interaction directly and a poller
// hands its rounds to its own dispatch worker.
//
// Topics are strings (a context name). Each subscriber
// owns a queue bounded at WithQueue, grown on demand and keeping its
// high-water mark, drained by a dedicated goroutine. The bus is lossless:
// a publisher that finds a queue full waits for the drain (backpressure), so
// every event offered to a live subscription is delivered. Where a pipeline
// sheds load, it does so upstream, in the runtime's admission budgets and
// drop ledger, never here.
//
// The runtime gives every app a bus of its own, so a bus holds one topic per
// context the app publishes and its counters are that app's alone. The topic
// table is one map under one RWMutex with copy-on-write subscriber lists:
// Subscribe and Cancel install fresh slices under the write lock, and the
// publish fast path takes the shared lock and allocates only when a queue
// grows past its high-water mark. A burst amortizes the remaining per-event bus overhead
// by travelling as one Weighted payload: a context's value batch, or a
// device.ReadingBatch where a caller publishes readings on a bus of its
// own.
package eventbus

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Event is a value published on a topic. It carries only what handlers
// read: a subscription knows its topic, and a queue slot costs 40 B.
type Event struct {
	// Payload carries the published value.
	Payload any
	// Time is the publication time as observed by the publisher's clock.
	Time time.Time
}

// Handler consumes events delivered to a subscription.
type Handler func(Event)

// Refcounted is implemented by pooled payloads (the runtime's value batch
// on context topics, device.ReadingBatch). The bus retains one reference
// per subscriber before enqueueing and releases it when the delivery
// finishes or a stopping subscription discards the event, so a recycled
// buffer can never be observed by a late or slow subscriber.
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

// Bus is a topic-based publish/subscribe dispatcher. The zero value is not
// usable; use New.
type Bus struct {
	// mu guards the topic table. The subscriber slices in subs are
	// copy-on-write: Publish reads them under RLock and never mutates,
	// Subscribe/remove install fresh slices under the write lock.
	mu     sync.RWMutex
	subs   map[string][]*Subscription
	closed bool
	wg     sync.WaitGroup

	published atomic.Uint64
	delivered atomic.Uint64

	// offered counts weight handed to subscriber queues (once per
	// recipient); every unit ends up delivered or — on a stopping
	// subscription — discarded. Idle compares the two sides.
	offered   atomic.Uint64
	discarded atomic.Uint64
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

// New returns an empty open bus.
func New() *Bus {
	return &Bus{subs: make(map[string][]*Subscription)}
}

// SubOption configures a subscription.
type SubOption func(*subConfig)

type subConfig struct {
	queue int
}

// WithQueue sets the subscription queue bound: a publisher that finds n
// events queued waits for the drain. n must be at least 1; the default is
// 64. The queue starts empty and grows toward n only as far as traffic
// fills it.
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
		return nil, fmt.Errorf("eventbus: queue bound %d < 1", cfg.queue)
	}

	s := &Subscription{
		bus:   b,
		topic: topic,
		h:     h,
		limit: cfg.queue,
		done:  make(chan struct{}),
	}
	s.notEmpty.L = &s.mu
	s.notFull.L = &s.mu

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	// Copy-on-write: publishers iterating the old slice are unaffected.
	old := b.subs[topic]
	next := make([]*Subscription, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	b.subs[topic] = next
	b.wg.Add(1)
	b.mu.Unlock()

	go s.run(&b.wg)
	return s, nil
}

// Publish delivers payload to every current subscriber of topic, waiting
// for queue space where a subscriber's queue is full. now is recorded as the
// event time.
func (b *Bus) Publish(topic string, payload any, now time.Time) error {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	subs := b.subs[topic]
	b.mu.RUnlock()

	w := payloadWeight(payload)
	b.published.Add(w)
	b.offered.Add(w * uint64(len(subs)))
	ev := Event{Payload: payload, Time: now}
	for _, s := range subs {
		// One reference per recipient; the delivering goroutine (or the
		// discard path) releases it. The publisher keeps its own reference.
		retainPayload(payload)
		s.enqueue(ev)
	}
	return nil
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
	b.mu.Lock()
	all := b.subs
	b.subs, b.closed = nil, true
	b.mu.Unlock()
	for _, subs := range all {
		for _, s := range subs {
			s.stop()
		}
	}
	b.wg.Wait()
}

func (b *Bus) remove(s *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.subs[s.topic]
	for i, other := range old {
		if other == s {
			next := make([]*Subscription, 0, len(old)-1)
			next = append(next, old[:i]...)
			next = append(next, old[i+1:]...)
			if len(next) == 0 {
				delete(b.subs, s.topic)
			} else {
				b.subs[s.topic] = next
			}
			break
		}
	}
}

// Subscription is a single subscriber's registration on a topic. Its queue
// is a mutex-guarded slice rather than a channel so that the drain goroutine
// takes everything queued in one lock acquisition, by swapping the slice for
// the spare it spent on the previous batch. Both slices start empty and grow
// only as far as the queue fills, never past limit.
type Subscription struct {
	bus   *Bus
	topic string
	h     Handler
	limit int // queue bound (WithQueue)

	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []Event // queued events; full when len == limit
	stopped  bool

	stopOnce sync.Once
	done     chan struct{}
}

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
	for len(s.buf) >= s.limit && !s.stopped {
		s.notFull.Wait()
	}
	if s.stopped {
		s.mu.Unlock()
		s.bus.discarded.Add(payloadWeight(ev.Payload))
		releasePayload(ev.Payload)
		return
	}
	if len(s.buf) == cap(s.buf) {
		// Grow by doubling, clamped so the queue never outgrows its bound.
		grown := make([]Event, len(s.buf), min(max(2*cap(s.buf), 4), s.limit))
		copy(grown, s.buf)
		s.buf = grown
	}
	s.buf = append(s.buf, ev)
	if len(s.buf) == 1 {
		s.notEmpty.Signal()
	}
	s.mu.Unlock()
}

// run drains the queue until the subscription stops, swapping in the spent
// batch as the next spare.
func (s *Subscription) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(s.done)
	var spare []Event
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
