package mapreduce

import (
	"slices"
	"strings"
)

// This file implements the incremental half of the MapReduce substrate: an
// engine that maintains per-group aggregation state between rounds so a
// mostly-unchanged input only pays for what changed. It is the processing
// core behind the runtime's `grouped by … with map … reduce …` lowering,
// `every` windows included: at 50k devices with 1% of readings changing per
// round, a batch run re-maps and re-reduces all 50k readings while the
// incremental engine touches ~500 inputs and re-reduces only the groups
// they live in.
//
// The engine is observationally equivalent to a batch run: feeding any
// sequence of Upsert/Remove deltas and flushing must produce the same
// output as RunSequential over the final input set ordered by input id
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

// Handle is the engine's record of one input, returned by
// Incremental.Input. It points at the input's member in each group the
// input contributes to, so an upsert through it (UpsertHandle) finds the
// previous contributions without looking the id up.
type Handle[K comparable, V any] struct {
	id string
	// epoch is the engine epoch the record belongs to: Reset moves the
	// engine's, Remove zeroes the record's, so an upsert through a stale
	// handle is caught instead of corrupting the groups.
	epoch uint64
	// mems[:n] are the input's memberships, one per group it contributes
	// to; mems[n:] are spares kept for reuse, so an input whose map phase
	// stops and resumes emitting allocates nothing.
	mems []*incMember[K, V]
	n    int
}

// incMember is one input's contribution to one group: the values its map
// phase emitted for the group and, on the combiner path, their lifted
// partial aggregate.
type incMember[K comparable, V any] struct {
	rec    *Handle[K, V]
	g      *incGroup[K, V] // nil while the member is a spare
	pos    int             // index in g.members
	values []V
	lift   V
	liftOK bool
}

// incGroup is the retained state of one intermediate key.
type incGroup[K comparable, V any] struct {
	key     K
	members []*incMember[K, V]
	dirty   bool // queued on Incremental.dirty
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
// Each input is one record (a Handle) that points at its member in each
// group it feeds; a group keeps its members in a slice. A record lives
// from its first upsert until Remove or Reset, also while its map phase
// emits nothing, so an input that flips between contributing and not
// neither inserts into nor deletes from the id index. A caller that feeds
// the same inputs round after round keeps the handles Input returns and
// upserts through them (UpsertHandle), hashing no id at all.
//
// An Incremental is not safe for concurrent use; callers serialize access.
type Incremental[K comparable, V any] struct {
	m         MapFunc[K, V, K, V]
	r         ReduceFunc[K, V, K, V]
	combine   CombineFunc[K, V]
	uncombine UncombineFunc[K, V]

	inputs map[string]*Handle[K, V]
	live   int // records with at least one membership
	epoch  uint64
	groups map[K]*incGroup[K, V]
	dirty  []*incGroup[K, V]
	out    map[K]V

	// Scratch reused across Upserts/Flushes. emit appends to emitBuf and
	// lift keeps a reduce's last emission; both are bound once, so passing
	// them to the map and reduce phases allocates nothing.
	emitBuf   []Pair[K, V]
	emit      func(K, V)
	lift      V
	keepLift  func(K, V)
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
		inputs:    make(map[string]*Handle[K, V]),
		epoch:     1,
		groups:    make(map[K]*incGroup[K, V]),
		out:       make(map[K]V),
	}
	inc.emit = func(k K, v V) { inc.emitBuf = append(inc.emitBuf, Pair[K, V]{Key: k, Value: v}) }
	inc.keepLift = func(_ K, v V) { inc.lift = v }
	return inc
}

// Len reports the number of inputs that contribute to at least one group.
func (inc *Incremental[K, V]) Len() int { return inc.live }

// Has reports whether the input currently contributes to any group.
func (inc *Incremental[K, V]) Has(id string) bool {
	rec := inc.inputs[id]
	return rec != nil && rec.n > 0
}

// LastFlushDirty reports how many groups the last Flush re-reduced.
func (inc *Incremental[K, V]) LastFlushDirty() int { return inc.lastDirty }

// LastFlushTotal reports how many groups were live at the last Flush
// (before empty dirty groups were dropped).
func (inc *Incremental[K, V]) LastFlushTotal() int { return inc.lastTotal }

// Reset drops all state, as after NewIncremental. Every handle Input
// returned before becomes invalid.
func (inc *Incremental[K, V]) Reset() {
	clear(inc.inputs)
	inc.live = 0
	inc.epoch++
	clear(inc.groups)
	clear(inc.dirty)
	inc.dirty = inc.dirty[:0]
	inc.out = make(map[K]V) // the previous output may still be in a caller's hands
	inc.lastDirty, inc.lastTotal = 0, 0
}

// Input returns the record of input id, creating one that contributes to
// no group on first use. The handle stays valid across upserts, those
// whose map phase emits nothing included, until Remove(id) or Reset
// invalidates it; UpsertHandle panics on an invalidated handle.
func (inc *Incremental[K, V]) Input(id string) *Handle[K, V] {
	rec := inc.inputs[id]
	if rec == nil {
		rec = &Handle[K, V]{id: id, epoch: inc.epoch}
		inc.inputs[id] = rec
	}
	return rec
}

// Upsert feeds one input's current (key, value): the map phase runs once
// and its emissions replace whatever the input contributed before. An input
// whose map phase emits nothing contributes to no group (and drops out of
// the groups it previously contributed to), exactly as in a batch run.
func (inc *Incremental[K, V]) Upsert(id string, key K, value V) {
	inc.UpsertHandle(inc.Input(id), key, value)
}

// UpsertHandle is Upsert for the input whose handle Input returned. It
// panics if Remove or Reset invalidated the handle.
func (inc *Incremental[K, V]) UpsertHandle(h *Handle[K, V], key K, value V) {
	if h.epoch != inc.epoch {
		panic("mapreduce: upsert through an input handle invalidated by Remove or Reset")
	}
	inc.emitBuf = inc.emitBuf[:0]
	inc.m(key, value, inc.emit)
	inc.replaceContribution(h, inc.emitBuf, false)
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
	inc.replaceContribution(inc.Input(id), inc.emitBuf, true)
}

// Remove drops one input, its contributions and its record: the input's
// handle becomes invalid, and a later upsert of the id starts a new record.
func (inc *Incremental[K, V]) Remove(id string) {
	rec := inc.inputs[id]
	if rec == nil {
		return
	}
	if rec.n > 0 {
		inc.live--
	}
	for rec.n > 0 {
		inc.leave(rec, 0)
	}
	delete(inc.inputs, id)
	rec.epoch = 0
}

// replaceContribution swaps an input's contribution set for the given
// emissions. When lifted is true the emission values are already partial
// aggregates (UpsertPartial) rather than map outputs.
func (inc *Incremental[K, V]) replaceContribution(rec *Handle[K, V], emits []Pair[K, V], lifted bool) {
	wasLive := rec.n > 0

	// Leave the groups the input no longer emits to.
	for i := 0; i < rec.n; {
		if emitsKey(emits, rec.mems[i].g.key) {
			i++
		} else {
			inc.leave(rec, i)
		}
	}

	// Install the new per-group values, emission order preserved within
	// each group.
	for i := range emits {
		k := emits[i].Key
		if emitsKey(emits[:i], k) {
			continue
		}
		var mem *incMember[K, V]
		for _, m := range rec.mems[:rec.n] {
			if m.g.key == k {
				mem = m
				break
			}
		}
		joined := mem == nil
		if joined {
			mem = inc.join(rec, k)
		}
		prevLift, prevLiftOK := mem.lift, mem.liftOK
		mem.values = mem.values[:0]
		for j := i; j < len(emits); j++ {
			if emits[j].Key == k {
				mem.values = append(mem.values, emits[j].Value)
			}
		}
		var zero V
		mem.lift, mem.liftOK = zero, false
		if lifted {
			mem.lift, mem.liftOK = mem.values[0], true
			clear(mem.values)
			mem.values = mem.values[:0]
		}
		inc.fold(mem, joined, prevLift, prevLiftOK)
	}

	if isLive := rec.n > 0; isLive != wasLive {
		if isLive {
			inc.live++
		} else {
			inc.live--
		}
	}
}

func emitsKey[K comparable, V any](emits []Pair[K, V], k K) bool {
	for i := range emits {
		if emits[i].Key == k {
			return true
		}
	}
	return false
}

// join makes a spare (or new) member of rec a member of group key.
func (inc *Incremental[K, V]) join(rec *Handle[K, V], key K) *incMember[K, V] {
	g := inc.groups[key]
	if g == nil {
		g = &incGroup[K, V]{key: key}
		inc.groups[key] = g
	}
	if rec.n == len(rec.mems) {
		rec.mems = append(rec.mems, &incMember[K, V]{rec: rec})
	}
	mem := rec.mems[rec.n]
	rec.n++
	mem.g, mem.pos = g, len(g.members)
	g.members = append(g.members, mem)
	return mem
}

// fold marks the member's group dirty and keeps the combiner-path partial
// incrementally maintained where possible. joined reports a new member;
// otherwise prevLift is the member's lift before this update.
func (inc *Incremental[K, V]) fold(mem *incMember[K, V], joined bool, prevLift V, prevLiftOK bool) {
	g := mem.g
	inc.markDirty(g)
	if inc.combine == nil {
		return
	}
	if len(g.members) == 1 {
		// Only member (newly added or updated in place): its lift is the
		// whole fold.
		g.partial, g.partialOK = inc.liftOf(g.key, mem), true
		return
	}
	if joined {
		// Pure addition: fold the new lift in, O(1).
		if g.partialOK {
			g.partial = inc.combine(g.key, g.partial, inc.liftOf(g.key, mem))
		}
		return
	}
	// Update of an existing member: subtract the old lift and fold the new
	// one when the monoid is invertible, otherwise re-fold at flush.
	if inc.uncombine != nil && g.partialOK && prevLiftOK {
		g.partial = inc.combine(g.key,
			inc.uncombine(g.key, g.partial, prevLift), inc.liftOf(g.key, mem))
		return
	}
	g.partialOK = false
}

// leave drops rec's i-th membership from its group, swap-removing the
// member by its stored position, and keeps the member as a spare.
func (inc *Incremental[K, V]) leave(rec *Handle[K, V], i int) {
	mem := rec.mems[i]
	g := mem.g
	last := len(g.members) - 1
	moved := g.members[last]
	g.members[mem.pos], moved.pos = moved, mem.pos
	g.members[last] = nil
	g.members = g.members[:last]
	inc.markDirty(g)

	rec.n--
	rec.mems[i], rec.mems[rec.n] = rec.mems[rec.n], mem
	lift, liftOK := mem.lift, mem.liftOK
	var zero V
	mem.g, mem.lift, mem.liftOK = nil, zero, false
	clear(mem.values)
	mem.values = mem.values[:0]

	if inc.combine == nil {
		return
	}
	if len(g.members) == 0 {
		g.partialOK = false
		return
	}
	if inc.uncombine != nil && g.partialOK && liftOK {
		g.partial = inc.uncombine(g.key, g.partial, lift)
	} else {
		g.partialOK = false
	}
}

// liftOf returns (computing and caching on first use) the member's partial
// aggregate: the reduce phase applied to its own values.
func (inc *Incremental[K, V]) liftOf(key K, mem *incMember[K, V]) V {
	if mem.liftOK {
		return mem.lift
	}
	var zero V
	inc.r(key, mem.values, inc.keepLift)
	mem.lift, mem.liftOK, inc.lift = inc.lift, true, zero
	return mem.lift
}

func (inc *Incremental[K, V]) markDirty(g *incGroup[K, V]) {
	if !g.dirty {
		g.dirty = true
		inc.dirty = append(inc.dirty, g)
	}
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
	for _, g := range inc.dirty {
		g.dirty = false
		k := g.key
		changed = append(changed, k)
		if len(g.members) == 0 {
			inc.retract(g, nil)
			delete(inc.groups, k)
			continue
		}
		if inc.combine != nil {
			if !g.partialOK {
				inc.refold(g)
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
		inc.replay(g)
	}
	clear(inc.dirty)
	inc.dirty = inc.dirty[:0]
	return inc.out, changed
}

// Output returns the engine's persistent output map without flushing; same
// ownership rules as Flush.
func (inc *Incremental[K, V]) Output() map[K]V { return inc.out }

// refold rebuilds a group's combiner partial from its members' lifts.
func (inc *Incremental[K, V]) refold(g *incGroup[K, V]) {
	for i, mem := range g.members {
		l := inc.liftOf(g.key, mem)
		if i == 0 {
			g.partial = l
			continue
		}
		g.partial = inc.combine(g.key, g.partial, l)
	}
	g.partialOK = true
}

// replay re-reduces a group from its full value list, ordered by input id
// (the order a batch run over id-sorted input presents), and installs the
// emissions in the output map, retracting stale ones.
func (inc *Incremental[K, V]) replay(g *incGroup[K, V]) {
	slices.SortFunc(g.members, func(a, b *incMember[K, V]) int { return strings.Compare(a.rec.id, b.rec.id) })
	n := 0
	for i, mem := range g.members {
		mem.pos = i
		n += len(mem.values)
	}

	// Fresh per flush: replay reducers may emit the slice itself (the
	// runtime's raw `grouped by` lowering does) and retain it.
	values := make([]V, 0, n)
	for _, mem := range g.members {
		values = append(values, mem.values...)
	}
	inc.emitBuf = inc.emitBuf[:0]
	inc.r(g.key, values, inc.emit)
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
