// Package qos provides the non-functional dimensions the paper layers onto
// device declarations (§III: "we illustrated this approach by introducing
// annotations in declarations to describe potential errors [14] or quality
// of service constraints [15]"). It offers:
//
//   - Deadline: wraps a driver so queries and actuations that exceed a time
//     budget are reported as QoS violations;
//   - Monitor: collects violation records for inspection;
//   - Budget: a bounded in-flight admission counter, the backpressure
//     primitive behind the runtime's event-ingestion pipeline.
//
// Deadline preserves the device.Driver interface, so it composes with
// transport proxies (and transport.Link's loss model) and with the runtime
// transparently.
package qos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/registry"
)

// Violation records one QoS constraint breach.
type Violation struct {
	DeviceID string
	Op       string // "query" or "invoke"
	Facet    string
	Budget   time.Duration
	Actual   time.Duration
	Time     time.Time
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("qos: %s %s.%s took %v, budget %v", v.Op, v.DeviceID, v.Facet, v.Actual, v.Budget)
}

// Monitor accumulates violations.
type Monitor struct {
	mu         sync.Mutex
	violations []Violation
}

// NewMonitor returns an empty Monitor.
func NewMonitor() *Monitor { return &Monitor{} }

// Record appends a violation.
func (m *Monitor) Record(v Violation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.violations = append(m.violations, v)
}

// Violations returns a snapshot of recorded violations.
func (m *Monitor) Violations() []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Violation(nil), m.violations...)
}

// Count returns the number of recorded violations.
func (m *Monitor) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.violations)
}

// Deadline wraps a driver with per-operation latency budgets. Operations
// still complete (the result is not discarded); exceeding the budget records
// a violation — the monitoring interpretation of QoS contracts, which suits
// the paper's supervision use cases.
type Deadline struct {
	inner   device.Driver
	monitor *Monitor
	budget  time.Duration
	now     func() time.Time
}

var _ device.Driver = (*Deadline)(nil)

// NewDeadline wraps drv with a latency budget per query/invoke. now supplies
// timestamps for violation records; nil means time.Now.
func NewDeadline(drv device.Driver, budget time.Duration, monitor *Monitor, now func() time.Time) *Deadline {
	if now == nil {
		now = time.Now
	}
	return &Deadline{inner: drv, monitor: monitor, budget: budget, now: now}
}

func (d *Deadline) observe(op, facet string, start time.Time) {
	elapsed := time.Since(start)
	if elapsed > d.budget {
		d.monitor.Record(Violation{
			DeviceID: d.inner.ID(),
			Op:       op,
			Facet:    facet,
			Budget:   d.budget,
			Actual:   elapsed,
			Time:     d.now(),
		})
	}
}

// ID implements device.Driver.
func (d *Deadline) ID() string { return d.inner.ID() }

// Kind implements device.Driver.
func (d *Deadline) Kind() string { return d.inner.Kind() }

// Kinds implements device.Driver.
func (d *Deadline) Kinds() []string { return d.inner.Kinds() }

// Attributes implements device.Driver.
func (d *Deadline) Attributes() registry.Attributes { return d.inner.Attributes() }

// Query implements device.Driver.
func (d *Deadline) Query(source string) (any, error) {
	start := time.Now()
	defer d.observe("query", source, start)
	return d.inner.Query(source)
}

// SubscribePush implements device.Driver.
func (d *Deadline) SubscribePush(source string, sink device.Sink) (func(), error) {
	return d.inner.SubscribePush(source, sink)
}

// Invoke implements device.Driver.
func (d *Deadline) Invoke(action string, args ...any) error {
	start := time.Now()
	defer d.observe("invoke", action, start)
	return d.inner.Invoke(action, args...)
}

// Budget is a bounded in-flight admission counter: the backpressure
// primitive of the runtime's event-ingestion pipeline. Producers acquire one
// unit per reading admitted into the pipeline and the pipeline releases the
// units once the context handler has returned from the reading's batch, so
// the number of readings between a device and its context handler never
// exceeds the capacity — beyond it, admission fails and the caller applies
// its drop policy instead of growing queues without bound.
//
// All methods are safe for concurrent use and lock-free.
type Budget struct {
	capacity atomic.Int64
	inflight atomic.Int64
	admitted atomic.Uint64
	rejected atomic.Uint64
}

// NewBudget returns a Budget admitting at most capacity units in flight.
// capacity <= 0 means unbounded (admission never fails).
func NewBudget(capacity int) *Budget {
	b := &Budget{}
	b.capacity.Store(int64(capacity))
	return b
}

// Capacity reports the configured bound; 0 or below means unbounded.
func (b *Budget) Capacity() int { return int(b.capacity.Load()) }

// SetCapacity retunes the bound on a live budget — the primitive behind the
// admin plane's `set_budget` op. Growing takes effect on the next admission;
// shrinking below the current in-flight count refuses new admissions until
// enough units drain, without invalidating units already admitted. Zero or
// below means unbounded.
func (b *Budget) SetCapacity(capacity int) { b.capacity.Store(int64(capacity)) }

// AcquireUpTo admits as many of n units as fit within the capacity and
// returns how many were admitted; the remainder is counted as rejected.
func (b *Budget) AcquireUpTo(n int) int {
	if n <= 0 {
		return 0
	}
	capacity := b.capacity.Load()
	if capacity <= 0 {
		// Unbounded budgets still track in-flight units, so InFlight stays
		// meaningful and a later SetCapacity to a bound sees true occupancy.
		b.inflight.Add(int64(n))
		b.admitted.Add(uint64(n))
		return n
	}
	got := int64(n)
	now := b.inflight.Add(got)
	if over := now - capacity; over > 0 {
		if over > got {
			over = got
		}
		b.inflight.Add(-over)
		got -= over
		b.rejected.Add(uint64(over))
	}
	if got > 0 {
		b.admitted.Add(uint64(got))
	}
	return int(got)
}

// Release returns n admitted units to the budget.
func (b *Budget) Release(n int) {
	if n > 0 {
		b.inflight.Add(-int64(n))
	}
}

// InFlight reports the units currently admitted and not yet released.
func (b *Budget) InFlight() int { return int(b.inflight.Load()) }

// Admitted reports the total units ever admitted.
func (b *Budget) Admitted() uint64 { return b.admitted.Load() }

// Rejected reports the total units refused at admission.
func (b *Budget) Rejected() uint64 { return b.rejected.Load() }
