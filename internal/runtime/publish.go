package runtime

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/eventbus"
)

// This file is the publication half of the compiled dispatch path: what a
// context publishes travels to its subscribers (contexts and controllers)
// the way readings travel to contexts — every name resolved once at wire
// time, the publications of one delivery carried as one pooled bus event.
// See docs/ARCHITECTURE.md "Publication path".

// valueBatch is the payload of every event on a context topic: the values
// one call site published while it dispatched one incoming delivery, in
// publication order. It follows device.ReadingBatch's ownership rules: the
// producing call site owns the initial reference and drops it right after
// the flush, the bus retains one per subscriber (eventbus.Refcounted), and
// subscribers borrow the batch — and every value slot in it — only for the
// duration of the delivery. As an eventbus.Weighted payload it counts as
// len(vals) events, so bus Published/Delivered keep meaning values.
//
// Invariant: cells of vals past len are always nil (reset clears exactly
// the used prefix), so a pooled batch pins no published value.
type valueBatch struct {
	refs atomic.Int32
	vals []any
}

var valueBatchPool sync.Pool

// newValueBatch returns an empty batch holding one reference, recycled from
// the pool when possible.
func newValueBatch() *valueBatch {
	b, _ := valueBatchPool.Get().(*valueBatch)
	if b == nil {
		b = &valueBatch{}
	}
	b.refs.Store(1)
	return b
}

// Retain implements eventbus.Refcounted.
func (b *valueBatch) Retain() { b.refs.Add(1) }

// Release implements eventbus.Refcounted: the last release resets the batch
// and returns it to the pool. Releasing below zero panics — a holder
// released a batch it did not own.
func (b *valueBatch) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		b.reset()
		valueBatchPool.Put(b)
	case n < 0:
		panic("runtime: valueBatch over-released")
	}
}

// reset drops the values, clearing the used prefix only (see the invariant).
func (b *valueBatch) reset() {
	clear(b.vals)
	b.vals = b.vals[:0]
}

// EventWeight implements eventbus.Weighted.
func (b *valueBatch) EventWeight() int { return len(b.vals) }

// pubSite is the publication site of one declared context, compiled when the
// app is wired: the finished topic string and the context's last-value slot.
// Nothing but flush publishes on a context topic.
type pubSite struct {
	rt    *Runtime
	name  string
	topic string

	mu   sync.Mutex // guards last/set; taken once per flush, not per value
	last any
	set  bool
}

// flush publishes one delivery's worth of values as a single bus event
// stamped with a single clock reading, and consumes the caller's reference.
// The last-value slot is written before ContextPublishes moves, so an
// observer that waits on the counter and then reads LastPublished never
// sees an older value.
func (s *pubSite) flush(b *valueBatch) {
	rt := s.rt
	n := len(b.vals)
	s.mu.Lock()
	s.last, s.set = b.vals[n-1], true
	s.mu.Unlock()
	rt.stats[statContextPublishes].Add(uint64(n))
	err := rt.bus.Publish(s.topic, b, rt.clock.Now())
	b.Release()
	if err != nil && !errors.Is(err, eventbus.ErrClosed) {
		rt.reportError(s.name, err)
	}
}

// compilePubSitesLocked builds the publication site of every declared
// context. Its topic lives on the app's own bus, so an event published for
// app A's context is unroutable to app B by construction, not by
// filtering. Caller holds rt.mu.
func (rt *Runtime) compilePubSitesLocked() {
	rt.pubSites = make(map[string]*pubSite, len(rt.model.Contexts))
	for name := range rt.model.Contexts {
		rt.pubSites[name] = &pubSite{rt: rt, name: name, topic: "context/" + name}
	}
}

// LastPublished returns the most recent value published by a context, if
// any. Useful for inspection and tests.
func (rt *Runtime) LastPublished(contextName string) (any, bool) {
	rt.mu.Lock()
	s := rt.pubSites[contextName]
	rt.mu.Unlock()
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.set
}
