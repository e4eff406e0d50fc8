package mapreduce

import "sort"

// This file implements the incremental half of the MapReduce substrate: an
// engine that maintains per-group aggregation state between rounds so a
// mostly-unchanged input only pays for what changed. It is the processing
// core behind the runtime's `grouped by … with map … reduce …` lowering,
// `every` windows included: at 50k devices with 1% of readings changing per
// round, the batch engine re-maps and re-reduces all 50k readings while the
// incremental engine touches ~500 inputs and re-reduces only the groups
// they live in.
//
// The engine is observationally equivalent to the batch engine: feeding any
// sequence of Upsert/Remove deltas and flushing must produce the same
// output as Run over the final input set ordered by input id
// (property-tested in incremental_test.go).

// CombineFunc merges two partial aggregates of one group into one. It is
// the monoid merge of the paper's reduce phase: Reduce over a value list
// must equal the combine-fold of Reduce over its single-element sublists.
// Combine must be associative and commutative (sum, count, min, max, …);
// the engine folds partials in no particular order.
type CombineFunc[K comparable, V any] func(key K, a, b V) V

// UncombineFunc removes one previously combined partial from an aggregate —
// the inverse of CombineFunc for invertible monoids (sum, count). When
// provided, a member update or removal adjusts the group aggregate in O(1);
// without it the group's partials are re-folded. Non-invertible merges
// (min, max) should leave it nil.
type UncombineFunc[K comparable, V any] func(key K, acc, v V) V

// incMember is one input's contribution to one group: the values its map
// phase emitted for the group and, on the combiner path, their lifted
// partial aggregate.
type incMember[V any] struct {
	values []V
	lift   V
	liftOK bool
}

// incGroup is the retained state of one intermediate key.
type incGroup[K comparable, V any] struct {
	members map[string]*incMember[V]
	// partial is the combine-fold over the members' lifts; valid only
	// while partialOK (additions keep it incrementally, removals and
	// updates without an UncombineFunc invalidate it until re-folded).
	partial   V
	partialOK bool
	// emitted lists the output keys this group's reduce produced at its
	// last flush, so a re-flush can retract stale emissions. Reducers
	// normally emit their own group key only; distinct groups must not
	// emit the same output key.
	emitted []K
}

// Incremental maintains grouped-aggregation state across rounds. Callers
// feed deltas — Upsert when an input appears or changes, Remove when it
// disappears — and Flush re-reduces only the groups those deltas touched,
// updating a persistent output map in place so unchanged groups keep their
// prior output with no rebuild.
//
// An Incremental is not safe for concurrent use; callers serialize access.
type Incremental[K comparable, V any] struct {
	m         MapFunc[K, V, K, V]
	r         ReduceFunc[K, V, K, V]
	combine   CombineFunc[K, V]
	uncombine UncombineFunc[K, V]

	inputs map[string][]K // input id -> groups it currently contributes to
	groups map[K]*incGroup[K, V]
	dirty  map[K]struct{}
	out    map[K]V

	// Scratch reused across Upserts/Flushes. emit appends to emitBuf and
	// lift keeps a reduce's last emission; both are bound once, so passing
	// them to the map and reduce phases allocates nothing.
	emitBuf   []Pair[K, V]
	emit      func(K, V)
	lift      V
	keepLift  func(K, V)
	idBuf     []string
	lastDirty int
	lastTotal int
}

// NewIncremental builds an incremental engine over the given map and reduce
// phases. combine may be nil: dirty groups then re-reduce by replaying
// their full value list (ordered by input id). With combine, a dirty
// group's output is maintained as a fold of per-input partials — new inputs
// fold in O(1), and updates and removals fold in O(1) too when uncombine is
// non-nil. The reduce phase on the combiner path must emit exactly one
// value per group, at the group's own key.
func NewIncremental[K comparable, V any](
	m MapFunc[K, V, K, V],
	r ReduceFunc[K, V, K, V],
	combine CombineFunc[K, V],
	uncombine UncombineFunc[K, V],
) *Incremental[K, V] {
	if combine == nil {
		uncombine = nil
	}
	inc := &Incremental[K, V]{
		m:         m,
		r:         r,
		combine:   combine,
		uncombine: uncombine,
		inputs:    make(map[string][]K),
		groups:    make(map[K]*incGroup[K, V]),
		dirty:     make(map[K]struct{}),
		out:       make(map[K]V),
	}
	inc.emit = func(k K, v V) { inc.emitBuf = append(inc.emitBuf, Pair[K, V]{Key: k, Value: v}) }
	inc.keepLift = func(_ K, v V) { inc.lift = v }
	return inc
}

// Len reports the number of live inputs.
func (inc *Incremental[K, V]) Len() int { return len(inc.inputs) }

// Has reports whether the input currently contributes to any group.
func (inc *Incremental[K, V]) Has(id string) bool {
	_, ok := inc.inputs[id]
	return ok
}

// GroupCount reports the number of live groups.
func (inc *Incremental[K, V]) GroupCount() int { return len(inc.groups) }

// LastFlushDirty reports how many groups the last Flush re-reduced.
func (inc *Incremental[K, V]) LastFlushDirty() int { return inc.lastDirty }

// LastFlushTotal reports how many groups were live at the last Flush
// (before empty dirty groups were dropped).
func (inc *Incremental[K, V]) LastFlushTotal() int { return inc.lastTotal }

// Reset drops all state, as after NewIncremental.
func (inc *Incremental[K, V]) Reset() {
	clear(inc.inputs)
	clear(inc.groups)
	clear(inc.dirty)
	inc.out = make(map[K]V) // the previous output may still be in a caller's hands
	inc.lastDirty, inc.lastTotal = 0, 0
}

// Upsert feeds one input's current (key, value): the map phase runs once
// and its emissions replace whatever the input contributed before. An input
// whose map phase emits nothing contributes to no group (and drops out of
// the groups it previously contributed to), exactly as in a batch run.
func (inc *Incremental[K, V]) Upsert(id string, key K, value V) {
	inc.emitBuf = inc.emitBuf[:0]
	inc.m(key, value, inc.emit)
	inc.replaceContribution(id, inc.emitBuf, false)
}

// UpsertPartial feeds one input as a pre-aggregated partial for a single
// group, bypassing the map phase — the merge point for partial aggregates
// computed elsewhere (a federation peer's node-local fold). It requires a
// CombineFunc; the partial participates in the group's fold exactly like a
// locally lifted member.
func (inc *Incremental[K, V]) UpsertPartial(id string, key K, partial V) {
	if inc.combine == nil {
		panic("mapreduce: UpsertPartial requires a CombineFunc")
	}
	inc.emitBuf = append(inc.emitBuf[:0], Pair[K, V]{Key: key, Value: partial})
	inc.replaceContribution(id, inc.emitBuf, true)
}

// Remove drops one input and its contributions.
func (inc *Incremental[K, V]) Remove(id string) {
	old, ok := inc.inputs[id]
	if !ok {
		return
	}
	for _, g := range old {
		inc.removeMember(g, id)
	}
	delete(inc.inputs, id)
}

// replaceContribution swaps an input's contribution set for the given
// emissions. When lifted is true the emission values are already partial
// aggregates (UpsertPartial) rather than map outputs.
func (inc *Incremental[K, V]) replaceContribution(id string, emits []Pair[K, V], lifted bool) {
	old := inc.inputs[id]

	// Remove the input from groups it no longer emits to.
	kept := old[:0]
	for _, g := range old {
		found := false
		for i := range emits {
			if emits[i].Key == g {
				found = true
				break
			}
		}
		if found {
			kept = append(kept, g)
		} else {
			inc.removeMember(g, id)
		}
	}

	// Install the new per-group values, emission order preserved within
	// each group.
	groups := kept
	for i := 0; i < len(emits); i++ {
		k := emits[i].Key
		dup := false
		for j := 0; j < i; j++ {
			if emits[j].Key == k {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		var vals []V
		for j := i; j < len(emits); j++ {
			if emits[j].Key == k {
				vals = append(vals, emits[j].Value)
			}
		}
		inc.setMember(k, id, vals, lifted)
		present := false
		for _, g := range groups {
			if g == k {
				present = true
				break
			}
		}
		if !present {
			groups = append(groups, k)
		}
	}

	if len(groups) == 0 {
		delete(inc.inputs, id)
		return
	}
	inc.inputs[id] = groups
}

// setMember installs or replaces one input's contribution to one group,
// keeping the combiner-path partial incrementally maintained where
// possible.
func (inc *Incremental[K, V]) setMember(key K, id string, values []V, lifted bool) {
	g := inc.groups[key]
	if g == nil {
		g = &incGroup[K, V]{members: make(map[string]*incMember[V])}
		inc.groups[key] = g
	}
	inc.markDirty(key)

	prev := g.members[id]
	mem := &incMember[V]{values: values}
	if lifted {
		mem.lift, mem.liftOK = values[0], true
		mem.values = nil
	}
	g.members[id] = mem

	if inc.combine == nil {
		return
	}
	if len(g.members) == 1 {
		// Only member (newly added or updated in place): its lift is the
		// whole fold.
		g.partial, g.partialOK = inc.liftOf(key, mem), true
		return
	}
	if prev == nil {
		// Pure addition: fold the new lift in, O(1).
		if g.partialOK {
			g.partial = inc.combine(key, g.partial, inc.liftOf(key, mem))
		}
		return
	}
	// Update of an existing member: subtract the old lift and fold the new
	// one when the monoid is invertible, otherwise re-fold at flush.
	if inc.uncombine != nil && g.partialOK && prev.liftOK {
		g.partial = inc.combine(key,
			inc.uncombine(key, g.partial, prev.lift), inc.liftOf(key, mem))
		return
	}
	g.partialOK = false
}

// removeMember drops one input from one group.
func (inc *Incremental[K, V]) removeMember(key K, id string) {
	g := inc.groups[key]
	if g == nil {
		return
	}
	mem, ok := g.members[id]
	if !ok {
		return
	}
	delete(g.members, id)
	inc.markDirty(key)
	if inc.combine == nil {
		return
	}
	if len(g.members) == 0 {
		g.partialOK = false
		return
	}
	if inc.uncombine != nil && g.partialOK && mem.liftOK {
		g.partial = inc.uncombine(key, g.partial, mem.lift)
	} else {
		g.partialOK = false
	}
}

// liftOf returns (computing and caching on first use) the member's partial
// aggregate: the reduce phase applied to its own values.
func (inc *Incremental[K, V]) liftOf(key K, mem *incMember[V]) V {
	if mem.liftOK {
		return mem.lift
	}
	var zero V
	inc.r(key, mem.values, inc.keepLift)
	mem.lift, mem.liftOK, inc.lift = inc.lift, true, zero
	return mem.lift
}

func (inc *Incremental[K, V]) markDirty(key K) {
	inc.dirty[key] = struct{}{}
}

// Flush re-reduces every dirty group and returns the engine's persistent
// output map plus the group keys whose output was recomputed this flush
// (appended into changed, which may be nil; removed groups are included).
// Clean groups keep their prior entry untouched — the map is NOT rebuilt.
// The returned map is owned by the engine: callers must treat it as
// read-only and must not retain it across the next Upsert/Remove/Flush
// (copy it to keep it). Value slices emitted by replay-path reducers are
// freshly allocated per flush and may be retained by the caller.
func (inc *Incremental[K, V]) Flush(changed []K) (map[K]V, []K) {
	inc.lastTotal = len(inc.groups)
	inc.lastDirty = len(inc.dirty)
	for k := range inc.dirty {
		delete(inc.dirty, k)
		changed = append(changed, k)
		g := inc.groups[k]
		if g == nil {
			continue
		}
		if len(g.members) == 0 {
			inc.retract(g, nil)
			delete(inc.groups, k)
			continue
		}
		if inc.combine != nil {
			if !g.partialOK {
				inc.refold(k, g)
			}
			if len(g.emitted) == 1 && g.emitted[0] == k {
				inc.out[k] = g.partial
			} else {
				inc.retract(g, nil)
				g.emitted = append(g.emitted[:0], k)
				inc.out[k] = g.partial
			}
			continue
		}
		inc.replay(k, g)
	}
	return inc.out, changed
}

// Output returns the engine's persistent output map without flushing; same
// ownership rules as Flush.
func (inc *Incremental[K, V]) Output() map[K]V { return inc.out }

// refold rebuilds a group's combiner partial from its members' lifts.
func (inc *Incremental[K, V]) refold(key K, g *incGroup[K, V]) {
	first := true
	for _, mem := range g.members {
		l := inc.liftOf(key, mem)
		if first {
			g.partial, first = l, false
			continue
		}
		g.partial = inc.combine(key, g.partial, l)
	}
	g.partialOK = true
}

// replay re-reduces a group from its full value list, ordered by input id
// (the order a batch run over id-sorted input presents), and installs the
// emissions in the output map, retracting stale ones.
func (inc *Incremental[K, V]) replay(key K, g *incGroup[K, V]) {
	ids := inc.idBuf[:0]
	n := 0
	for id, mem := range g.members {
		ids = append(ids, id)
		n += len(mem.values)
	}
	sort.Strings(ids)
	inc.idBuf = ids

	// Fresh per flush: replay reducers may emit the slice itself (the
	// runtime's raw `grouped by` lowering does) and retain it.
	values := make([]V, 0, n)
	for _, id := range ids {
		values = append(values, g.members[id].values...)
	}
	inc.emitBuf = inc.emitBuf[:0]
	inc.r(key, values, inc.emit)
	inc.retract(g, inc.emitBuf)
	g.emitted = g.emitted[:0]
	for _, p := range inc.emitBuf {
		inc.out[p.Key] = p.Value
		seen := false
		for _, e := range g.emitted {
			if e == p.Key {
				seen = true
				break
			}
		}
		if !seen {
			g.emitted = append(g.emitted, p.Key)
		}
	}
}

// retract deletes the group's previously emitted output keys that the new
// emission set (nil means none) no longer covers.
func (inc *Incremental[K, V]) retract(g *incGroup[K, V], next []Pair[K, V]) {
	for _, k := range g.emitted {
		still := false
		for i := range next {
			if next[i].Key == k {
				still = true
				break
			}
		}
		if !still {
			delete(inc.out, k)
		}
	}
	if next == nil {
		g.emitted = g.emitted[:0]
	}
}
