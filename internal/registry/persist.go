package registry

// This file is the registry's durability surface: a journal hook that streams
// every membership mutation (with the per-shard generation counters it
// commits) to a write-ahead log, restore entry points that rebuild a registry
// from recovered state without re-journaling or re-counting it, and a
// capture walk that snapshots each shard consistently under its own lock.
//
// The generation counters double as log sequence numbers. A journal callback
// runs under the mutated entity's shard lock BEFORE the counters move, so by
// the time any reader can observe a generation value, the mutation that
// produced it has already been handed to the log — flushing the log
// (persist.Store.Barrier) therefore makes every observable generation
// durable. Counters are shard-local in the journal (summing them across
// shards is racy while other shards mutate); recovery re-sums per-shard
// maxima. Because the ID→shard hash is seeded per process, recovered sums
// cannot be re-split across the shards of a new registry; they are installed
// as a generation *base* (RestoreGenerations) that Generation adds to the
// fresh shard counters, keeping the sums monotonic across restarts.

import (
	"slices"
	"sync/atomic"
)

// KindGen pairs one kind of a mutated entity's taxonomy with the journaling
// shard's post-mutation counter for it.
type KindGen struct {
	Kind string
	Gen  uint64
}

// Mutation describes one committed registry change for journaling. GenAll
// and KindGens carry the mutating shard's own counters as they stand after
// this mutation — shard-local values, not cross-shard sums.
type Mutation struct {
	// Type is Added, Updated or Removed.
	Type ChangeType
	// Shard is the index of the lock domain that committed the mutation.
	Shard int
	// GenAll is the shard's all-kinds counter after this mutation.
	GenAll uint64
	// KindGens holds the shard's per-kind counters after this mutation,
	// one entry per kind in the entity's taxonomy.
	KindGens []KindGen
	// Entity is the mutated entity. It shares the registry's internal maps
	// and slices and is valid only for the duration of the journal call:
	// encode it immediately, do not retain it.
	Entity *Entity
}

// Journal receives every committed mutation. It is called under the mutated
// entity's shard lock, before the generation counters move: keep it fast
// (buffer, don't fsync) and never call back into the Registry.
type Journal func(Mutation)

// SetJournal installs (or replaces) the journal. Mutations committed before
// the call are not replayed; installing the journal before the first
// mutation — as runtime.WithPersistence does — captures everything.
func (r *Registry) SetJournal(j Journal) {
	if j == nil {
		r.journal.Store(nil)
		return
	}
	r.journal.Store(&j)
}

// journalLocked hands one committed mutation to the installed journal.
// Callers hold sh.mu and call it immediately before bumpLocked, so the
// journal sees the counters the bump is about to publish.
func (r *Registry) journalLocked(sh *regShard, typ ChangeType, rec *record) {
	jp := r.journal.Load()
	if jp == nil {
		return
	}
	sh.journalEnt = rec.entity()
	e := &sh.journalEnt
	m := Mutation{
		Type:     typ,
		Shard:    sh.idx,
		GenAll:   sh.genAll.Load() + 1,
		KindGens: make([]KindGen, len(e.Kinds)),
		Entity:   e,
	}
	for i, k := range e.Kinds {
		m.KindGens[i] = KindGen{Kind: k, Gen: sh.kindGen(k).Load() + 1}
	}
	(*jp)(m)
	sh.journalEnt = Entity{}
}

// genBase is the recovered generation floor installed by RestoreGenerations.
type genBase struct {
	all   uint64
	kinds map[string]uint64
}

// RestoreGenerations installs recovered generation sums as the registry's
// base: Generation(kind) returns the base plus the live shard counters, so
// generations observed by peers before a crash stay monotonic across the
// restart. Call it once, before the registry is shared with other
// goroutines; it is not journaled.
func (r *Registry) RestoreGenerations(all uint64, kinds map[string]uint64) {
	cp := make(map[string]uint64, len(kinds))
	for k, v := range kinds {
		cp[k] = v
	}
	r.base.Store(&genBase{all: all, kinds: cp})
}

// baseFor returns the restored floor for one kind ("" = all kinds).
func (r *Registry) baseFor(kind string) uint64 {
	b := r.base.Load()
	if b == nil {
		return 0
	}
	if kind == "" {
		return b.all
	}
	return b.kinds[kind]
}

// RestoreEntity installs one recovered entity without journaling, bumping
// generations or notifying watchers: the caller restores the matching
// generation base separately, and recovery happens before watchers attach.
// An entity already present under the same ID is replaced.
func (r *Registry) RestoreEntity(e Entity) error {
	if err := normalizeEntity(&e); err != nil {
		return err
	}
	sh := r.shard(e.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	if old, ok := sh.entities[e.ID]; ok {
		sh.unindexLocked(old)
	}
	rec := &record{}
	sh.entities[e.ID] = rec
	sh.indexLocked(rec, &e)
	return nil
}

// Reclaim re-binds an entity a restarted process recovered from its
// snapshot: when the registration already exists with identical content,
// watchers receive an Updated notification and nothing else changes — the
// generation counters do NOT move, so federation peers holding the restored
// generations see no change and skip the rescan entirely. Content changes
// and missing registrations fall back to a journaled, counted
// update/registration, exactly like Update/Register.
func (r *Registry) Reclaim(e Entity) error {
	if err := normalizeEntity(&e); err != nil {
		return err
	}
	sh := r.shard(e.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	rec, ok := sh.entities[e.ID]
	if ok && !rec.equal(&e) {
		// Same ID, changed content: a journaled, generation-bumping update.
		sh.unindexLocked(rec)
		sh.indexLocked(rec, &e)
		r.journalLocked(sh, Updated, rec)
		sh.bumpLocked(rec)
		r.notify(Change{Type: Updated, Entity: rec.entity()})
		return nil
	}
	if ok {
		// Identical content: notify watchers so local attachments
		// (exporters, trackers) re-resolve the reborn driver, and leave the
		// generation counters untouched.
		r.notify(Change{Type: Updated, Entity: rec.entity()})
		return nil
	}
	rec = &record{}
	sh.entities[e.ID] = rec
	sh.indexLocked(rec, &e)
	r.journalLocked(sh, Added, rec)
	sh.bumpLocked(rec)
	r.notify(Change{Type: Added, Entity: rec.entity()})
	return nil
}

// CaptureState walks the registry for a snapshot: for each shard — visited
// under its own lock — shard is called once with the shard's generation
// counters, then ent once per entity. The kinds map is freshly allocated per
// shard and may be retained. The Entity may be retained too:
// its Kinds and Attrs are its shard's shape, which is never mutated — but
// shared with the registry and every entity of equal content, so they must
// not be mutated. Do not call back into the Registry from either callback.
func (r *Registry) CaptureState(
	shard func(idx int, genAll uint64, kinds map[string]uint64),
	ent func(Entity),
) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		kinds := make(map[string]uint64)
		sh.gens.Range(func(k, v any) bool {
			kinds[k.(string)] = v.(*atomic.Uint64).Load()
			return true
		})
		shard(i, sh.genAll.Load(), kinds)
		for _, rec := range sh.entities {
			ent(rec.entity())
		}
		sh.mu.Unlock()
	}
}

// normalizeEntity applies the Register defaulting rules in place.
func normalizeEntity(e *Entity) error {
	if e.ID == "" {
		return errEmptyID
	}
	if e.Kind == "" {
		return errEmptyKind
	}
	if len(e.Kinds) == 0 {
		e.Kinds = []string{e.Kind}
	}
	return nil
}

// equal reports whether rec holds exactly e's content.
func (rec *record) equal(e *Entity) bool {
	s := rec.shape
	if rec.id != e.ID || s.kind != e.Kind || rec.endpoint != e.Endpoint ||
		s.origin != e.Origin || s.bound != e.Bound ||
		!slices.Equal(s.kinds, e.Kinds) || len(s.attrs) != len(e.Attrs) {
		return false
	}
	for k, v := range s.attrs {
		if w, ok := e.Attrs[k]; !ok || w != v {
			return false
		}
	}
	return true
}
