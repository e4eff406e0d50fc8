package mapreduce

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The batch-path vacancyMap/countReduce fixtures (mapreduce_test.go) are
// reused as the oracle job: vacancyMap emits only vacant readings, so
// occupied inputs contribute to no group — membership churns with value
// changes, the hardest delta case.

// oracle runs RunSequential over the final input state, id-ordered, and
// collapses the output to a map — the reference the incremental engine must
// reproduce exactly.
func oracle[V any](
	t *testing.T,
	final map[string]Pair[string, bool],
	m MapFunc[string, bool, string, bool],
	r ReduceFunc[string, bool, string, V],
) map[string]V {
	t.Helper()
	ids := make([]string, 0, len(final))
	for id := range final {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	in := make([]Pair[string, bool], len(ids))
	for i, id := range ids {
		in[i] = final[id]
	}
	pairs := RunSequential(in, m, r)
	out := make(map[string]V, len(pairs))
	for _, p := range pairs {
		out[p.Key] = p.Value
	}
	return out
}

// applyRandomDeltas drives eng through steps random Upsert/Remove deltas,
// mirroring them into final, flushing at random points.
func applyRandomDeltas(rng *rand.Rand, eng incEngine, final map[string]Pair[string, bool], steps int) {
	lots := []string{"A", "B", "C", "D"}
	for s := 0; s < steps; s++ {
		id := fmt.Sprintf("dev-%03d", rng.Intn(40))
		switch {
		case rng.Intn(5) == 0:
			eng.Remove(id)
			delete(final, id)
		default:
			lot := lots[rng.Intn(len(lots))]
			present := rng.Intn(2) == 0
			eng.Upsert(id, lot, present)
			final[id] = Pair[string, bool]{Key: lot, Value: present}
		}
		if rng.Intn(7) == 0 {
			eng.Flush(nil)
		}
	}
}

// incEngine is the test-facing face shared by the combiner and replay
// engines (both are Incremental[string, any]-shaped but with typed values
// here via interface indirection — the test drives the concrete engine).
type incEngine interface {
	Upsert(id string, key string, value bool)
	Remove(id string)
	Flush(changed []string) (map[string]int, []string)
}

type boolIntEngine struct{ inner *Incremental[string, any] }

func (e boolIntEngine) Upsert(id, key string, value bool) { e.inner.Upsert(id, key, value) }
func (e boolIntEngine) Remove(id string)                  { e.inner.Remove(id) }
func (e boolIntEngine) Flush(changed []string) (map[string]int, []string) {
	out, ch := e.inner.Flush(nil)
	typed := make(map[string]int, len(out))
	for k, v := range out {
		typed[k] = v.(int)
	}
	_ = changed
	return typed, ch
}

func newBoolIntEngine(combine, uncombine bool) boolIntEngine {
	m := func(k string, v any, emit func(string, any)) {
		if !v.(bool) {
			emit(k, true)
		}
	}
	r := func(k string, vs []any, emit func(string, any)) { emit(k, len(vs)) }
	var cf CombineFunc[string, any]
	var uf UncombineFunc[string, any]
	if combine {
		cf = func(_ string, a, b any) any { return a.(int) + b.(int) }
	}
	if uncombine {
		uf = func(_ string, acc, v any) any { return acc.(int) - v.(int) }
	}
	return boolIntEngine{inner: NewIncremental[string, any](m, r, cf, uf)}
}

// TestIncrementalMatchesBatch is the correctness property: the incremental
// engine over a randomized delta stream is observationally identical to
// RunSequential over the final state — on the replay path, the O(1) combiner
// path, and the invertible-combiner path.
func TestIncrementalMatchesBatch(t *testing.T) {
	modes := []struct {
		name               string
		combine, uncombine bool
	}{
		{"replay", false, false},
		{"combine", true, false},
		{"combine+uncombine", true, true},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				eng := newBoolIntEngine(mode.combine, mode.uncombine)
				final := make(map[string]Pair[string, bool])
				applyRandomDeltas(rng, eng, final, 300)
				got, _ := eng.Flush(nil)
				want := oracle(t, final, vacancyMap, countReduce)
				if len(want) == 0 {
					want = map[string]int{}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: incremental %v, batch %v", seed, got, want)
				}
			}
		})
	}
}

// TestIncrementalReplayValueOrder verifies the replay path presents values
// in input-id order (RunSequential's order over id-sorted input), so
// order-sensitive reducers agree between the two engines.
func TestIncrementalReplayValueOrder(t *testing.T) {
	m := func(k string, v any, emit func(string, any)) { emit(k, v) }
	r := func(k string, vs []any, emit func(string, any)) {
		s := ""
		for _, v := range vs {
			s += v.(string)
		}
		emit(k, s)
	}
	eng := NewIncremental[string, any](m, r, nil, nil)
	// Upsert out of id order; replay must still fold in id order.
	eng.Upsert("c", "g", "3")
	eng.Upsert("a", "g", "1")
	eng.Upsert("b", "g", "2")
	out, _ := eng.Flush(nil)
	if got := out["g"]; got != "123" {
		t.Fatalf("replay order: got %v, want 123", got)
	}
	eng.Upsert("a", "g", "9")
	out, _ = eng.Flush(nil)
	if got := out["g"]; got != "923" {
		t.Fatalf("replay order after update: got %v, want 923", got)
	}
}

// TestIncrementalDirtyTracking verifies that clean groups are not
// re-reduced and keep their identical output entry.
func TestIncrementalDirtyTracking(t *testing.T) {
	reduces := make(map[string]int)
	m := func(k string, v any, emit func(string, any)) { emit(k, v) }
	r := func(k string, vs []any, emit func(string, any)) {
		reduces[k]++
		emit(k, len(vs))
	}
	eng := NewIncremental[string, any](m, r, nil, nil)
	for i := 0; i < 10; i++ {
		eng.Upsert(fmt.Sprintf("a-%d", i), "A", true)
		eng.Upsert(fmt.Sprintf("b-%d", i), "B", true)
	}
	out, changed := eng.Flush(nil)
	if len(changed) != 2 || out["A"] != 10 || out["B"] != 10 {
		t.Fatalf("first flush: out=%v changed=%v", out, changed)
	}
	if eng.LastFlushDirty() != 2 || eng.LastFlushTotal() != 2 {
		t.Fatalf("flush stats: dirty=%d total=%d", eng.LastFlushDirty(), eng.LastFlushTotal())
	}
	reduces["A"], reduces["B"] = 0, 0

	eng.Upsert("a-0", "A", false) // touch A only
	out, changed = eng.Flush(nil)
	if reduces["B"] != 0 {
		t.Fatalf("clean group B was re-reduced %d times", reduces["B"])
	}
	if reduces["A"] != 1 || len(changed) != 1 || changed[0] != "A" {
		t.Fatalf("dirty group handling: reduces[A]=%d changed=%v", reduces["A"], changed)
	}
	if eng.LastFlushDirty() != 1 || eng.LastFlushTotal() != 2 {
		t.Fatalf("flush stats: dirty=%d total=%d", eng.LastFlushDirty(), eng.LastFlushTotal())
	}
	if out["B"] != 10 {
		t.Fatalf("clean group output lost: %v", out)
	}
}

// TestIncrementalGroupRemoval verifies a group whose members all disappear
// (or stop emitting) drops out of the output map, as in a batch run.
func TestIncrementalGroupRemoval(t *testing.T) {
	eng := newBoolIntEngine(true, true)
	eng.Upsert("x", "A", false) // vacant: contributes
	eng.Upsert("y", "A", false)
	out, _ := eng.Flush(nil)
	if out["A"] != 2 {
		t.Fatalf("want A=2, got %v", out)
	}
	eng.Upsert("x", "A", true) // occupied: contributes nothing
	eng.Remove("y")
	out, changed := eng.Flush(nil)
	if _, live := out["A"]; live {
		t.Fatalf("emptied group still in output: %v", out)
	}
	found := false
	for _, k := range changed {
		if k == "A" {
			found = true
		}
	}
	if !found {
		t.Fatalf("removed group not reported changed: %v", changed)
	}
}

// TestIncrementalUpsertPartial verifies pre-aggregated partials merge into
// the fold like local members — the federation agg_sync merge point.
func TestIncrementalUpsertPartial(t *testing.T) {
	m := func(k string, v any, emit func(string, any)) {
		if !v.(bool) {
			emit(k, true)
		}
	}
	r := func(k string, vs []any, emit func(string, any)) { emit(k, len(vs)) }
	eng := NewIncremental[string, any](m, r,
		func(_ string, a, b any) any { return a.(int) + b.(int) },
		func(_ string, acc, v any) any { return acc.(int) - v.(int) })
	eng.Upsert("local-1", "A", false)
	eng.UpsertPartial("peer:edge", "A", 7)
	out, _ := eng.Flush(nil)
	if out["A"] != 8 {
		t.Fatalf("local+partial: want 8, got %v", out["A"])
	}
	eng.UpsertPartial("peer:edge", "A", 3) // peer re-sync replaces its partial
	out, _ = eng.Flush(nil)
	if out["A"] != 4 {
		t.Fatalf("partial replacement: want 4, got %v", out["A"])
	}
	eng.Remove("peer:edge")
	out, _ = eng.Flush(nil)
	if out["A"] != 1 {
		t.Fatalf("partial removal: want 1, got %v", out["A"])
	}
}

// TestIncrementalReset verifies Reset drops all state.
func TestIncrementalReset(t *testing.T) {
	eng := newBoolIntEngine(true, true)
	eng.Upsert("x", "A", false)
	eng.inner.Reset()
	out, changed := eng.inner.Flush(nil)
	if len(out) != 0 || len(changed) != 0 || eng.inner.Len() != 0 || len(eng.inner.groups) != 0 {
		t.Fatalf("reset left state: out=%v changed=%v", out, changed)
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestHandleLifetime: a handle stays the input's record across an upsert
// whose map phase emits nothing (which leaves it out of Len and Has), and
// Remove or Reset invalidates it.
func TestHandleLifetime(t *testing.T) {
	eng := newBoolIntEngine(true, true).inner
	h := eng.Input("x")
	eng.UpsertHandle(h, "A", false) // vacant: contributes
	eng.UpsertHandle(h, "A", true)  // occupied: emits nothing
	if eng.Has("x") || eng.Len() != 0 {
		t.Fatalf("empty record counted: Has=%v Len=%d", eng.Has("x"), eng.Len())
	}
	if eng.Input("x") != h {
		t.Fatal("an upsert that emitted nothing replaced the record")
	}
	eng.UpsertHandle(h, "A", false)
	if out, _ := eng.Flush(nil); out["A"] != 1 || eng.Len() != 1 {
		t.Fatalf("handle upsert after an empty one: out=%v Len=%d", out, eng.Len())
	}

	eng.Remove("x")
	mustPanic(t, "upsert through a removed handle", func() { eng.UpsertHandle(h, "A", false) })
	h2 := eng.Input("x")
	if h2 == h {
		t.Fatal("Remove kept the record")
	}
	eng.UpsertHandle(h2, "A", false)
	eng.Reset()
	mustPanic(t, "upsert through a handle from before Reset", func() { eng.UpsertHandle(h2, "A", false) })
	if out, _ := eng.Flush(nil); len(out) != 0 || eng.Len() != 0 {
		t.Fatalf("reset left state: out=%v Len=%d", out, eng.Len())
	}
}

// TestUpsertHandleAllocs pins the steady-state cost of a handle upsert of
// an existing input on the combiner path: zero allocations, both for a
// value update and for an input that stops and resumes contributing. The
// map feeds two groups, so the input reuses two spare members.
func TestUpsertHandleAllocs(t *testing.T) {
	eng := NewIncremental[string, int](
		func(k string, v int, emit func(string, int)) {
			if v >= 0 {
				emit(k, v)
				emit("B", v)
			}
		},
		func(k string, vs []int, emit func(string, int)) {
			s := 0
			for _, v := range vs {
				s += v
			}
			emit(k, s)
		},
		func(_ string, a, b int) int { return a + b },
		func(_ string, acc, v int) int { return acc - v })
	eng.Upsert("other", "A", 1)
	h := eng.Input("x")
	eng.UpsertHandle(h, "A", 1)
	var changed []string
	_, changed = eng.Flush(changed)
	v := 0
	if n := testing.AllocsPerRun(100, func() {
		v++
		eng.UpsertHandle(h, "A", v)
		_, changed = eng.Flush(changed[:0])
	}); n != 0 {
		t.Errorf("value update allocates %.1f per upsert+flush, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		eng.UpsertHandle(h, "A", -v) // leaves both groups
		_, changed = eng.Flush(changed[:0])
		eng.UpsertHandle(h, "A", v) // rejoins them
		_, changed = eng.Flush(changed[:0])
	}); n != 0 {
		t.Errorf("leave/rejoin allocates %.1f per cycle, want 0", n)
	}
}
