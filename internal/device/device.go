// Package device defines the driver contract for concrete entities. The
// paper (§III) requires that "a concrete entity needs to conform to the
// interface and implement the sources and action operations … a concrete
// device is required to implement three data delivery modes to match the
// range of context usages of applications."
//
// The three modes map onto this interface as follows:
//
//   - query driven: Query (and QueryIndexed for indexed sources);
//   - event driven: SubscribePush, which attaches a Sink the device pushes
//     its Readings into;
//   - periodic: the runtime's scheduler polls Query on the declared period,
//     which is the pull realization of periodic delivery from the WSN
//     taxonomy the paper cites [16].
//
// Base provides the bookkeeping shared by every driver (identity,
// attributes, the attached sinks of each source) so a concrete device only
// implements its source values and action effects.
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

// Subscription is a channel stream of readings. No driver offers one:
// event-driven delivery is SubscribePush. The type is kept only because
// stampSensor.Subscribe in bench/w_tenants_hot.go still names it, and goes
// once that method does.
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
	// SubscribePush attaches sink to a source (event-driven delivery):
	// the device pushes each reading it produces into it. The returned
	// cancel detaches the sink; it is idempotent, and once it returns no
	// new push begins. An emission already in flight on another
	// goroutine may still complete, so a sink must stay safe to call.
	SubscribePush(source string, sink Sink) (cancel func(), err error)
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
// call it from its emission path directly. The runtime's ingestion shards
// and the federation exporter never block. A remote subscriber's sink may
// wait on its connection's 64-slot answer queue, but never past the
// connection's end.
type Sink interface {
	Push(r Reading)
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
	// sinks is each source's attached sinks. A list is copy-on-write:
	// attach and cancel replace it under mu, so Emit pushes into the list
	// it loaded without holding a lock.
	sinks  map[string][]*sinkEntry
	closed bool
}

// sinkEntry is one attachment; its pointer identity tells two attachments
// of the same sink apart.
type sinkEntry struct{ sink Sink }

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
		sinks:   make(map[string][]*sinkEntry),
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

// SubscribePush implements Driver. Emit pushes into sink synchronously, on
// the emitting goroutine.
func (b *Base) SubscribePush(source string, sink Sink) (func(), error) {
	e := &sinkEntry{sink: sink}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errors.New("device: driver closed")
	}
	cur := b.sinks[source]
	b.sinks[source] = append(cur[:len(cur):len(cur)], e) // a fresh array: Emit may hold cur
	return func() { b.detach(source, e) }, nil
}

// detach removes one attachment; a second call, or a call after Close,
// finds nothing to remove.
func (b *Base) detach(source string, e *sinkEntry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.sinks[source]
	kept := make([]*sinkEntry, 0, len(cur))
	for _, x := range cur {
		if x != e {
			kept = append(kept, x)
		}
	}
	if len(kept) == 0 {
		delete(b.sinks, source)
	} else {
		b.sinks[source] = kept
	}
}

// Emit pushes an event-driven reading into the sinks attached to source.
func (b *Base) Emit(source string, value any) {
	b.EmitIndexed(source, value, nil)
}

// EmitIndexed pushes a reading with an index value (for `indexed by`
// sources).
func (b *Base) EmitIndexed(source string, value, index any) {
	b.mu.Lock()
	sinks := b.sinks[source]
	b.mu.Unlock()
	if len(sinks) == 0 {
		return
	}
	r := Reading{
		DeviceID: b.id,
		Source:   source,
		Value:    value,
		Index:    index,
		Time:     b.now(),
	}
	for _, e := range sinks {
		e.sink.Push(r)
	}
}

// Close detaches every sink and refuses new ones.
func (b *Base) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	clear(b.sinks)
}
