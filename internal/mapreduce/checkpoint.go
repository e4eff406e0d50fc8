package mapreduce

import (
	"encoding/gob"
	"fmt"
	"io"
)

// This file gives the incremental engine a durability surface: Checkpoint
// serializes the retained per-group state — every input's contributions,
// the combiner partials, the dirty set and the persistent output map — and
// Restore rebuilds an equivalent engine from it, so a crashed node resumes
// aggregation from its last checkpoint instead of re-ingesting the fleet.
//
// Serialization is gob. The map/reduce/combine functions are code, not
// state: Restore must be called on an engine built with the same phases
// (NewIncremental with the same design interaction) as the one that
// checkpointed. Values of interface type follow gob's registration rules;
// the runtime registers its design value types via transport.RegisterType.

// ckptMember mirrors incMember for encoding.
type ckptMember[V any] struct {
	Values []V
	Lift   V
	LiftOK bool
}

// ckptGroup mirrors incGroup for encoding.
type ckptGroup[K comparable, V any] struct {
	Members   map[string]ckptMember[V]
	Partial   V
	PartialOK bool
	Emitted   []K
}

// ckptState is the complete serialized engine state.
type ckptState[K comparable, V any] struct {
	Inputs map[string][]K
	Groups map[K]ckptGroup[K, V]
	Dirty  []K
	Out    map[K]V
}

// Inputs calls fn for every contributing input id with the group keys it
// emitted; records whose map phase emitted nothing are skipped.
// Restore-time reconciliation uses it to retract inputs whose originating
// devices did not survive recovery.
func (inc *Incremental[K, V]) Inputs(fn func(id string, keys []K)) {
	for id, rec := range inc.inputs {
		if rec.n == 0 {
			continue
		}
		keys := make([]K, rec.n)
		for i, mem := range rec.mems[:rec.n] {
			keys[i] = mem.g.key
		}
		fn(id, keys)
	}
}

// Checkpoint writes the engine's full retained state to w. The engine must
// be quiescent for the duration of the call (callers hold whatever lock
// serializes Upsert/Flush). Records that contribute to no group are not
// written: the checkpoint holds the same state as one of an engine that
// dropped them.
func (inc *Incremental[K, V]) Checkpoint(w io.Writer) error {
	st := ckptState[K, V]{
		Inputs: make(map[string][]K, inc.live),
		Groups: make(map[K]ckptGroup[K, V], len(inc.groups)),
		Dirty:  make([]K, 0, len(inc.dirty)),
		Out:    inc.out,
	}
	inc.Inputs(func(id string, keys []K) { st.Inputs[id] = keys })
	for k, g := range inc.groups {
		cg := ckptGroup[K, V]{
			Members:   make(map[string]ckptMember[V], len(g.members)),
			Partial:   g.partial,
			PartialOK: g.partialOK,
			Emitted:   g.emitted,
		}
		for _, mem := range g.members {
			cg.Members[mem.rec.id] = ckptMember[V]{Values: mem.values, Lift: mem.lift, LiftOK: mem.liftOK}
		}
		st.Groups[k] = cg
	}
	for _, g := range inc.dirty {
		st.Dirty = append(st.Dirty, g.key)
	}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("mapreduce: checkpoint: %w", err)
	}
	return nil
}

// Restore replaces the engine's state with a checkpoint previously written
// by Checkpoint on an engine with the same map/reduce/combine phases. On
// error the engine is reset empty.
func (inc *Incremental[K, V]) Restore(r io.Reader) error {
	var st ckptState[K, V]
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		inc.Reset()
		return fmt.Errorf("mapreduce: restore: %w", err)
	}
	inc.Reset()
	// The input records are rebuilt from the group members; st.Inputs
	// lists the same memberships keyed by input.
	for k, cg := range st.Groups {
		g := &incGroup[K, V]{
			key:       k,
			members:   make([]*incMember[K, V], 0, len(cg.Members)),
			partial:   cg.Partial,
			partialOK: cg.PartialOK,
			emitted:   cg.Emitted,
		}
		// A combiner-less engine never uses partials; a combiner engine
		// re-folds any group whose checkpointed partial was invalid.
		if inc.combine == nil {
			g.partialOK = false
		}
		for id, cm := range cg.Members {
			rec := inc.Input(id)
			if rec.n == 0 {
				inc.live++
			}
			mem := &incMember[K, V]{rec: rec, g: g, pos: len(g.members), values: cm.Values, lift: cm.Lift, liftOK: cm.LiftOK}
			rec.mems = append(rec.mems, mem)
			rec.n++
			g.members = append(g.members, mem)
		}
		inc.groups[k] = g
	}
	for _, k := range st.Dirty {
		if g := inc.groups[k]; g != nil {
			inc.markDirty(g)
		}
	}
	if st.Out != nil {
		inc.out = st.Out
	}
	return nil
}
