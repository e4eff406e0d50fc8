package device

import (
	"testing"
	"time"
)

func mkReading(id string, v any, at time.Time) Reading {
	return Reading{DeviceID: id, Source: "s", Value: v, Time: at}
}

func TestReadingBatchTypedColumns(t *testing.T) {
	at := time.Unix(100, 0)
	cases := []struct {
		name string
		vals []any
		kind ColKind
	}{
		{"bool", []any{true, false, true}, ColBool},
		{"int64", []any{int64(1), int64(-2), int64(3)}, ColInt64},
		{"float64", []any{1.5, -2.25, 0.0}, ColFloat64},
		{"string", []any{"a", "b", "c"}, ColString},
		{"exotic", []any{[]int{1}, []int{2}}, ColAny},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewReadingBatch()
			defer b.Release()
			for i, v := range tc.vals {
				b.Append(mkReading("d"+string(rune('0'+i)), v, at.Add(time.Duration(i))))
			}
			if b.Kind() != tc.kind {
				t.Fatalf("kind = %v, want %v", b.Kind(), tc.kind)
			}
			if b.Len() != len(tc.vals) {
				t.Fatalf("len = %d, want %d", b.Len(), len(tc.vals))
			}
			for i, v := range tc.vals {
				r := b.Row(i)
				if r.DeviceID != "d"+string(rune('0'+i)) || r.Source != "s" {
					t.Fatalf("row %d identity = %+v", i, r)
				}
				switch want := v.(type) {
				case []int:
					got := r.Value.([]int)
					if got[0] != want[0] {
						t.Fatalf("row %d value = %v, want %v", i, got, want)
					}
				default:
					if r.Value != v {
						t.Fatalf("row %d value = %v, want %v", i, r.Value, v)
					}
				}
				if !r.Time.Equal(at.Add(time.Duration(i))) {
					t.Fatalf("row %d time = %v", i, r.Time)
				}
			}
		})
	}
}

func TestReadingBatchDemoteOnMixedTypes(t *testing.T) {
	b := NewReadingBatch()
	defer b.Release()
	at := time.Unix(7, 0)
	b.Append(mkReading("a", true, at))
	b.Append(mkReading("b", false, at))
	b.Append(mkReading("c", 3.5, at)) // mismatch demotes the whole batch
	if b.Kind() != ColAny {
		t.Fatalf("kind = %v, want ColAny", b.Kind())
	}
	want := []any{true, false, 3.5}
	for i, w := range want {
		if got := b.ValueAt(i); got != w {
			t.Fatalf("value %d = %v, want %v", i, got, w)
		}
	}
}

func TestReadingBatchIndexes(t *testing.T) {
	b := NewReadingBatch()
	defer b.Release()
	at := time.Unix(7, 0)
	b.Append(mkReading("a", int64(1), at))
	if b.IndexAt(0) != nil {
		t.Fatalf("index 0 = %v, want nil", b.IndexAt(0))
	}
	r := mkReading("b", int64(2), at)
	r.Index = "slot9"
	b.Append(r)
	if b.IndexAt(0) != nil || b.IndexAt(1) != "slot9" {
		t.Fatalf("indexes = %v, %v", b.IndexAt(0), b.IndexAt(1))
	}
}

func TestReadingBatchCompactBefore(t *testing.T) {
	b := NewReadingBatch()
	defer b.Release()
	epoch := time.Unix(1000, 0)
	for i := 0; i < 6; i++ {
		b.Append(mkReading("d", float64(i), epoch.Add(time.Duration(i)*time.Second)))
	}
	dropped := b.CompactBefore(epoch.Add(3 * time.Second))
	if dropped != 3 || b.Len() != 3 {
		t.Fatalf("dropped = %d len = %d, want 3/3", dropped, b.Len())
	}
	for i := 0; i < 3; i++ {
		if b.Floats()[i] != float64(i+3) {
			t.Fatalf("kept value %d = %v, want %v", i, b.Floats()[i], float64(i+3))
		}
		if b.IDAt(i) != "d" {
			t.Fatalf("kept id %d = %q", i, b.IDAt(i))
		}
	}
	if got := b.CompactBefore(epoch); got != 0 {
		t.Fatalf("second compact dropped %d, want 0", got)
	}
}

// recycled releases b and returns the next batch the pool hands out, which
// is b itself unless the pool dropped it (the race detector drops pooled
// items at random) — then the reuse case is not observable and the test is
// skipped.
func recycled(t *testing.T, b *ReadingBatch) *ReadingBatch {
	t.Helper()
	b.Release()
	b2 := NewReadingBatch()
	if b2 != b {
		b2.Release()
		t.Skip("the pool did not hand the released batch back")
	}
	return b2
}

func TestReadingBatchRecycleResets(t *testing.T) {
	b := NewReadingBatch()
	r := mkReading("a", "hello", time.Unix(1, 0))
	r.Index = "slot"
	b.Append(r)
	b.Retain()
	b.Release() // still one ref held
	if b.Len() != 1 {
		t.Fatalf("len after partial release = %d", b.Len())
	}
	b2 := recycled(t, b) // last ref: pooled, cleared on reuse
	defer b2.Release()
	if b2.Len() != 0 || b2.Kind() != ColNone || b2.idxs != nil {
		t.Fatalf("recycled batch not reset: len=%d kind=%v idxs=%v", b2.Len(), b2.Kind(), b2.idxs)
	}
}

// assertNothingPinned checks a reset batch — what NewReadingBatch hands back
// on reuse — over the FULL capacity of every pointer-carrying column: a cell
// left behind past len would pin its string, boxed value or time location
// for as long as the reused batch lives.
func assertNothingPinned(t *testing.T, b *ReadingBatch) {
	t.Helper()
	for i, v := range b.ids[:cap(b.ids)] {
		if v != "" {
			t.Fatalf("ids[%d] = %q pinned past len", i, v)
		}
	}
	for i, v := range b.srcs[:cap(b.srcs)] {
		if v != "" {
			t.Fatalf("srcs[%d] = %q pinned past len", i, v)
		}
	}
	for i, v := range b.times[:cap(b.times)] {
		if v != (time.Time{}) {
			t.Fatalf("times[%d] = %v pinned past len", i, v)
		}
	}
	for i, v := range b.strs[:cap(b.strs)] {
		if v != "" {
			t.Fatalf("strs[%d] = %q pinned past len", i, v)
		}
	}
	for i, v := range b.anys[:cap(b.anys)] {
		if v != nil {
			t.Fatalf("anys[%d] = %v pinned past len", i, v)
		}
	}
	if b.idxs != nil {
		t.Fatalf("idxs column survived reset")
	}
}

func TestReadingBatchRecyclePinsNothingPastLen(t *testing.T) {
	loc := time.FixedZone("pinned", 3600)
	at := time.Unix(1000, 0).In(loc)
	fill := func(b *ReadingBatch, n int, v func(i int) any) {
		for i := 0; i < n; i++ {
			r := mkReading("device", v(i), at.Add(time.Duration(i)*time.Second))
			r.Index = "slot"
			b.Append(r)
		}
	}
	str := func(int) any { return "payload" }
	boxed := func(int) any { return []int{1} }

	b := NewReadingBatch()
	defer b.Release()

	// A large burst followed by a small one.
	fill(b, 200, str)
	b.reset()
	fill(b, 10, str)
	b.reset()
	assertNothingPinned(t, b)

	// truncate (the deadline policy) zeroes what it drops, before any
	// reset: the invariant holds on live batches too.
	fill(b, 100, boxed)
	if dropped := b.CompactBefore(at.Add(50 * time.Second)); dropped != 50 {
		t.Fatalf("compact dropped %d, want 50", dropped)
	}
	for i, v := range b.times[b.Len():cap(b.times)] {
		if v != (time.Time{}) {
			t.Fatalf("times[%d] = %v pinned past len after truncate", b.Len()+i, v)
		}
	}
	b.reset()
	assertNothingPinned(t, b)

	// demote zeroes the typed string column it abandons.
	fill(b, 50, str)
	b.Append(mkReading("device", 1.5, at))
	if b.Kind() != ColAny {
		t.Fatalf("kind = %v, want ColAny", b.Kind())
	}
	b.reset()
	assertNothingPinned(t, b)
}

func TestReadingBatchOverReleasePanics(t *testing.T) {
	b := NewReadingBatch()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	// The pool may hand the same object back; grab a fresh handle so the
	// extra Release targets a batch with zero references.
	nb := NewReadingBatch()
	nb.Release()
	nb.Release()
}
