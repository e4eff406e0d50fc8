// Package device defines the driver contract for concrete entities. The
// paper (§III) requires that "a concrete entity needs to conform to the
// interface and implement the sources and action operations … a concrete
// device is required to implement three data delivery modes to match the
// range of context usages of applications."
//
// The three modes map onto this interface as follows:
//
//   - query driven: Query (and QueryIndexed for indexed sources);
//   - event driven: Subscribe, which streams Readings pushed by the device;
//   - periodic: the runtime's scheduler polls Query on the declared period,
//     which is the pull realization of periodic delivery from the WSN
//     taxonomy the paper cites [16].
//
// Base provides the bookkeeping shared by every driver (identity,
// attributes, subscriber hub) so a concrete device only implements its
// source values and action effects.
package device

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/registry"
)

// Reading is one value produced by a device source.
type Reading struct {
	// DeviceID identifies the producing device.
	DeviceID string
	// Source is the source facet name.
	Source string
	// Value is the produced value.
	Value any
	// Index carries the index value for `indexed by` sources (e.g. the
	// questionId of a Prompter answer); nil otherwise.
	Index any
	// Time is the production time on the device's clock.
	Time time.Time
}

// Subscription is an event-driven stream of readings.
type Subscription interface {
	// C returns the reading channel. It is closed on Cancel.
	C() <-chan Reading
	// Cancel stops the stream.
	Cancel()
}

// Driver is the concrete-entity contract.
type Driver interface {
	// ID is the unique entity identifier.
	ID() string
	// Kind is the concrete device type.
	Kind() string
	// Kinds is Kind plus taxonomy ancestors.
	Kinds() []string
	// Attributes returns the deployment attribute values.
	Attributes() registry.Attributes
	// Query reads the current value of a source (query-driven delivery).
	Query(source string) (any, error)
	// Subscribe streams readings pushed by the device (event-driven
	// delivery).
	Subscribe(source string) (Subscription, error)
	// Invoke performs an action facet operation (actuation).
	Invoke(action string, args ...any) error
}

// SnapshotQuerier is optionally implemented by drivers that can pre-resolve
// a source read into a standalone function. The runtime's periodic poller
// resolves the querier once per fleet-snapshot rebuild and then calls the
// returned function on every tick, skipping the per-call source lookup (and,
// for drivers backed by a shared state table, the per-call locking). The
// returned function must stay valid for the lifetime of the driver, be safe
// for concurrent use, and not block: the poller calls a run of them in a row
// on one worker goroutine. A driver whose reads wait on I/O should not
// implement SnapshotQuerier; its Query calls are spread across the pool.
type SnapshotQuerier interface {
	Querier(source string) (QueryFunc, error)
}

// Sink accepts readings pushed by a device. Implementations are safe for
// concurrent use and never block for long: admission control (bounded
// in-flight budgets, drop policies) happens behind Push, so a device can
// call it from its emission path directly.
type Sink interface {
	Push(r Reading)
}

// PushSubscriber is optionally implemented by drivers that can deliver
// event-driven readings straight into a runtime-owned Sink instead of a
// per-device channel. The runtime's ingestion pipeline prefers this path:
// it needs no per-device goroutine or queue, so fleets of tens of thousands
// of emitting devices cost per-event work proportional to traffic, not to
// population size. The returned cancel function detaches the sink; it is
// idempotent, and once it returns no new push begins — an emission already
// in flight on another goroutine may still complete, so sinks must stay
// safe to call (the runtime's ingestion shards are; they simply deliver
// the straggler).
type PushSubscriber interface {
	SubscribePush(source string, sink Sink) (cancel func(), err error)
}

// Errors returned by drivers.
var (
	ErrUnknownSource = errors.New("device: unknown source")
	ErrUnknownAction = errors.New("device: unknown action")
)

// QueryFunc computes the current value of a source.
type QueryFunc func() (any, error)

// ActionFunc applies an action invocation.
type ActionFunc func(args ...any) error

// Base implements the Driver bookkeeping. Create with NewBase, then attach
// source readers with OnQuery and action handlers with OnAction; push
// event-driven readings with Emit. Concrete devices embed *Base.
type Base struct {
	id    string
	kind  string
	kinds []string
	attrs registry.Attributes
	now   func() time.Time

	mu      sync.Mutex
	queries map[string]QueryFunc
	actions map[string]ActionFunc
	subs    map[string]map[*baseSub]struct{}
	closed  bool
}

// NewBase returns a Base for a device of the given identity. kinds may be
// nil, in which case it defaults to [kind]. now supplies reading timestamps
// (pass a simclock.Clock's Now for virtual time); nil means time.Now.
func NewBase(id, kind string, kinds []string, attrs registry.Attributes, now func() time.Time) *Base {
	if len(kinds) == 0 {
		kinds = []string{kind}
	}
	if now == nil {
		now = time.Now
	}
	return &Base{
		id:      id,
		kind:    kind,
		kinds:   append([]string(nil), kinds...),
		attrs:   attrs.Clone(),
		now:     now,
		queries: make(map[string]QueryFunc),
		actions: make(map[string]ActionFunc),
		subs:    make(map[string]map[*baseSub]struct{}),
	}
}

// ID implements Driver.
func (b *Base) ID() string { return b.id }

// Kind implements Driver.
func (b *Base) Kind() string { return b.kind }

// Kinds implements Driver.
func (b *Base) Kinds() []string { return append([]string(nil), b.kinds...) }

// Attributes implements Driver.
func (b *Base) Attributes() registry.Attributes { return b.attrs.Clone() }

// Entity renders the driver's registry entry with the given endpoint.
func (b *Base) Entity(endpoint string) registry.Entity {
	return registry.Entity{
		ID:       registry.ID(b.id),
		Kind:     b.kind,
		Kinds:    b.Kinds(),
		Attrs:    b.Attributes(),
		Endpoint: endpoint,
		Bound:    registry.BindRuntime,
	}
}

// OnQuery installs the query-driven reader for a source.
func (b *Base) OnQuery(source string, f QueryFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.queries[source] = f
}

// OnAction installs the handler for an action facet.
func (b *Base) OnAction(action string, f ActionFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.actions[action] = f
}

// Query implements Driver.
func (b *Base) Query(source string) (any, error) {
	b.mu.Lock()
	f, ok := b.queries[source]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrUnknownSource, b.id, source)
	}
	return f()
}

// Invoke implements Driver.
func (b *Base) Invoke(action string, args ...any) error {
	b.mu.Lock()
	f, ok := b.actions[action]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrUnknownAction, b.id, action)
	}
	return f(args...)
}

// Subscribe implements Driver. Every subscriber gets a buffered channel;
// when a subscriber falls behind, the oldest reading is dropped (sensor
// freshness beats completeness).
func (b *Base) Subscribe(source string) (Subscription, error) {
	s := &baseSub{
		base:   b,
		source: source,
		ch:     make(chan Reading, 16),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errors.New("device: driver closed")
	}
	set := b.subs[source]
	if set == nil {
		set = make(map[*baseSub]struct{})
		b.subs[source] = set
	}
	set[s] = struct{}{}
	return s, nil
}

// Emit pushes an event-driven reading to the subscribers of source.
func (b *Base) Emit(source string, value any) {
	b.EmitIndexed(source, value, nil)
}

// EmitIndexed pushes a reading with an index value (for `indexed by`
// sources).
func (b *Base) EmitIndexed(source string, value, index any) {
	r := Reading{
		DeviceID: b.id,
		Source:   source,
		Value:    value,
		Index:    index,
		Time:     b.now(),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for s := range b.subs[source] {
		for {
			select {
			case s.ch <- r:
			default:
				select {
				case <-s.ch: // drop oldest
				default:
				}
				continue
			}
			break
		}
	}
}

// Close cancels all subscriptions.
func (b *Base) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, set := range b.subs {
		for s := range set {
			close(s.ch)
		}
	}
	b.subs = make(map[string]map[*baseSub]struct{})
}

func (b *Base) dropSub(s *baseSub) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if set, ok := b.subs[s.source]; ok {
		if _, live := set[s]; live {
			delete(set, s)
			close(s.ch)
		}
	}
}

type baseSub struct {
	base   *Base
	source string
	ch     chan Reading
}

// C implements Subscription.
func (s *baseSub) C() <-chan Reading { return s.ch }

// Cancel implements Subscription.
func (s *baseSub) Cancel() { s.base.dropSub(s) }
