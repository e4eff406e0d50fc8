package device

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the typed-column batch representation of the
// zero-allocation reading path. A ReadingBatch carries a burst of readings
// in struct-of-arrays form: identity columns (device ID, source, time) plus
// ONE value column specialized to the batch's common dynamic value type, so
// a burst of bool or float64 readings travels from the driver to the
// dispatch call site without boxing each value into an interface. Batches
// are pooled and reference-counted: the ingestion shard that fills one owns
// the initial reference, the event bus retains one per subscriber, and the
// buffer recycles only when the last holder releases — a late subscriber
// can never observe a reused buffer.

// ColKind identifies the active value column of a ReadingBatch.
type ColKind uint8

const (
	// ColNone is the kind of an empty batch: the first Append decides.
	ColNone ColKind = iota
	// ColBool stores values in a []bool column.
	ColBool
	// ColInt64 stores values in an []int64 column.
	ColInt64
	// ColFloat64 stores values in a []float64 column.
	ColFloat64
	// ColString stores values in a []string column.
	ColString
	// ColAny is the boxed fallback for exotic or mixed value types.
	ColAny
)

// String implements fmt.Stringer.
func (k ColKind) String() string {
	switch k {
	case ColNone:
		return "none"
	case ColBool:
		return "bool"
	case ColInt64:
		return "int64"
	case ColFloat64:
		return "float64"
	case ColString:
		return "string"
	case ColAny:
		return "any"
	default:
		return "ColKind(?)"
	}
}

// ReadingBatch is a pooled, reference-counted, columnar burst of readings.
//
// Ownership rules (see docs/ARCHITECTURE.md "Typed reading path"):
//
//   - NewReadingBatch returns a batch holding one reference, owned by the
//     caller (the producer).
//   - Every party that hands the batch to another goroutine retains one
//     reference per recipient first; every holder calls Release exactly
//     once when done.
//   - Consumers handed a batch (bus subscribers) BORROW it for the duration
//     of the delivery: they must not retain the batch, any Reading filled
//     from it, or any sub-slice past the handler return, and must not call
//     Release themselves — the delivering bus does.
//   - The final Release returns the batch to the pool as it is, and
//     NewReadingBatch clears it on the goroutine about to refill it; any
//     access after the last release is a use-after-recycle bug (the -race
//     regression tests in eventbus exercise exactly this).
type ReadingBatch struct {
	refs atomic.Int32

	kind   ColKind
	ids    []string
	srcs   []string
	times  []time.Time
	bools  []bool
	ints   []int64
	floats []float64
	strs   []string
	anys   []any
	// idxs is nil while every appended reading had a nil Index; it is
	// materialized (padded with nils) on the first indexed append.
	idxs []any
}

var batchPool sync.Pool

// batchPoolMisses counts NewReadingBatch calls the pool could not serve —
// fresh allocations. Steady state holds this flat; growth means batches are
// leaking (a Release is missing) or the GC cleared the pool.
var batchPoolMisses atomic.Uint64

// BatchPoolMisses reports the cumulative process-wide pool-miss count
// (surfaced as the `pool_misses` runtime counter).
func BatchPoolMisses() uint64 { return batchPoolMisses.Load() }

// NewReadingBatch returns an empty batch holding one reference, recycled
// from the pool when possible. A recycled batch is reset here, by the
// goroutine about to fill it, rather than by the last Release on the
// consuming goroutine: the clear then touches the cache lines the
// producer's appends are about to write, and stays off the delivery path.
func NewReadingBatch() *ReadingBatch {
	if v := batchPool.Get(); v != nil {
		b := v.(*ReadingBatch)
		b.reset()
		b.refs.Store(1)
		return b
	}
	batchPoolMisses.Add(1)
	b := &ReadingBatch{}
	b.refs.Store(1)
	return b
}

// Retain adds one reference. Call it before handing the batch to another
// holder.
func (b *ReadingBatch) Retain() { b.refs.Add(1) }

// Release drops one reference; the last release returns the batch to the
// pool without clearing it (NewReadingBatch does that on reuse), so a pooled
// batch keeps its last rows' strings, boxed values and time locations
// reachable until it is reused or the pool drops it, which takes at most two
// GC cycles. Releasing below zero panics: it means a holder released a batch
// it did not own.
func (b *ReadingBatch) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		batchPool.Put(b)
	case n < 0:
		panic("device: ReadingBatch over-released")
	}
}

// reset empties the batch for reuse. Invariant: cells of a pointer-carrying
// column past its len are always zero — truncate and demote zero what they
// drop, and reset what was in use — so clearing the used prefix leaves
// every column zero up to its capacity.
func (b *ReadingBatch) reset() {
	clear(b.ids)
	clear(b.srcs)
	clear(b.times)
	clear(b.strs)
	clear(b.anys)
	b.ids, b.srcs, b.times = b.ids[:0], b.srcs[:0], b.times[:0]
	b.bools, b.ints, b.floats = b.bools[:0], b.ints[:0], b.floats[:0]
	b.strs, b.anys, b.idxs = b.strs[:0], b.anys[:0], nil
	b.kind = ColNone
}

// Len reports the number of rows.
func (b *ReadingBatch) Len() int { return len(b.ids) }

// Kind reports the active value column.
func (b *ReadingBatch) Kind() ColKind { return b.kind }

// EventWeight implements eventbus.Weighted: one batch published as a single
// bus event counts as Len readings in the bus accounting.
func (b *ReadingBatch) EventWeight() int { return len(b.ids) }

// Append adds one reading. The first append fixes the value column to the
// reading's dynamic type (bool, int64, float64 or string); a later value of
// a different or exotic type demotes the whole batch to the boxed ColAny
// column. Appending bool and small-int values never allocates.
func (b *ReadingBatch) Append(r Reading) {
	b.ids = append(b.ids, r.DeviceID)
	b.srcs = append(b.srcs, r.Source)
	b.times = append(b.times, r.Time)
	if r.Index != nil && b.idxs == nil {
		// Materialize the index column, padding earlier rows with nils; an
		// explicit make keeps it non-nil even when this is the first row.
		pad := len(b.ids) - 1
		b.idxs = make([]any, pad, pad+1)
	}
	if b.idxs != nil {
		b.idxs = append(b.idxs, r.Index)
	}
	switch v := r.Value.(type) {
	case bool:
		if b.kind == ColBool || b.kind == ColNone {
			b.kind = ColBool
			b.bools = append(b.bools, v)
			return
		}
	case int64:
		if b.kind == ColInt64 || b.kind == ColNone {
			b.kind = ColInt64
			b.ints = append(b.ints, v)
			return
		}
	case float64:
		if b.kind == ColFloat64 || b.kind == ColNone {
			b.kind = ColFloat64
			b.floats = append(b.floats, v)
			return
		}
	case string:
		if b.kind == ColString || b.kind == ColNone {
			b.kind = ColString
			b.strs = append(b.strs, v)
			return
		}
	}
	b.demote()
	b.anys = append(b.anys, r.Value)
}

// demote re-boxes the existing typed column into the ColAny column — the
// one-time cost of a mixed-type burst.
func (b *ReadingBatch) demote() {
	switch b.kind {
	case ColBool:
		for _, v := range b.bools {
			b.anys = append(b.anys, v)
		}
		b.bools = b.bools[:0]
	case ColInt64:
		for _, v := range b.ints {
			b.anys = append(b.anys, v)
		}
		b.ints = b.ints[:0]
	case ColFloat64:
		for _, v := range b.floats {
			b.anys = append(b.anys, v)
		}
		b.floats = b.floats[:0]
	case ColString:
		for _, v := range b.strs {
			b.anys = append(b.anys, v)
		}
		clear(b.strs)
		b.strs = b.strs[:0]
	}
	b.kind = ColAny
}

// ValueAt boxes row i's value. Boxing bool (and other preboxed small
// values) is allocation-free; float64 and string values cost one boxing
// allocation, which is why batch consumers that can act on the typed
// columns directly should (see Ints/Floats).
func (b *ReadingBatch) ValueAt(i int) any {
	switch b.kind {
	case ColBool:
		return b.bools[i]
	case ColInt64:
		return b.ints[i]
	case ColFloat64:
		return b.floats[i]
	case ColString:
		return b.strs[i]
	default:
		return b.anys[i]
	}
}

// IndexAt reports row i's index value (nil for non-indexed readings).
func (b *ReadingBatch) IndexAt(i int) any {
	if b.idxs == nil {
		return nil
	}
	return b.idxs[i]
}

// IDAt reports row i's device ID.
func (b *ReadingBatch) IDAt(i int) string { return b.ids[i] }

// FillRow materializes row i into r, reusing the caller's Reading. The
// filled Reading borrows from the batch: it is valid only while the caller
// holds a batch reference.
func (b *ReadingBatch) FillRow(i int, r *Reading) {
	r.DeviceID = b.ids[i]
	r.Source = b.srcs[i]
	r.Value = b.ValueAt(i)
	r.Index = b.IndexAt(i)
	r.Time = b.times[i]
}

// Row returns row i as a standalone Reading (boxing the value).
func (b *ReadingBatch) Row(i int) Reading {
	var r Reading
	b.FillRow(i, &r)
	return r
}

// Ints returns the int64 value column; valid only when Kind() == ColInt64.
func (b *ReadingBatch) Ints() []int64 { return b.ints }

// Floats returns the float64 value column; valid only when
// Kind() == ColFloat64.
func (b *ReadingBatch) Floats() []float64 { return b.floats }

// CompactBefore drops rows whose Time is before cutoff, in place and
// order-preserving, and reports how many were dropped — the deadline
// (MaxAge) policy applied batch-wide at flush time.
func (b *ReadingBatch) CompactBefore(cutoff time.Time) int {
	n := len(b.ids)
	kept := 0
	for i := 0; i < n; i++ {
		if b.times[i].Before(cutoff) {
			continue
		}
		if kept != i {
			b.moveRow(kept, i)
		}
		kept++
	}
	if kept == n {
		return 0
	}
	b.truncate(kept)
	return n - kept
}

// moveRow copies row src into row dst across every live column.
func (b *ReadingBatch) moveRow(dst, src int) {
	b.ids[dst] = b.ids[src]
	b.srcs[dst] = b.srcs[src]
	b.times[dst] = b.times[src]
	if b.idxs != nil {
		b.idxs[dst] = b.idxs[src]
	}
	switch b.kind {
	case ColBool:
		b.bools[dst] = b.bools[src]
	case ColInt64:
		b.ints[dst] = b.ints[src]
	case ColFloat64:
		b.floats[dst] = b.floats[src]
	case ColString:
		b.strs[dst] = b.strs[src]
	case ColAny:
		b.anys[dst] = b.anys[src]
	}
}

// truncate shortens every live column to n rows, clearing the dropped
// pointer-carrying cells.
func (b *ReadingBatch) truncate(n int) {
	clear(b.ids[n:])
	clear(b.srcs[n:])
	clear(b.times[n:])
	b.ids, b.srcs, b.times = b.ids[:n], b.srcs[:n], b.times[:n]
	if b.idxs != nil {
		clear(b.idxs[n:])
		b.idxs = b.idxs[:n]
	}
	switch b.kind {
	case ColBool:
		b.bools = b.bools[:n]
	case ColInt64:
		b.ints = b.ints[:n]
	case ColFloat64:
		b.floats = b.floats[:n]
	case ColString:
		clear(b.strs[n:])
		b.strs = b.strs[:n]
	case ColAny:
		clear(b.anys[n:])
		b.anys = b.anys[:n]
	}
}
