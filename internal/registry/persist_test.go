package registry

import (
	"fmt"
	"testing"
)

func persistEntity(i int, lot string) Entity {
	return Entity{
		ID:    ID(fmt.Sprintf("dev-%03d", i)),
		Kind:  "PresenceSensor",
		Kinds: []string{"PresenceSensor", "Sensor"},
		Attrs: Attributes{"lot": lot},
	}
}

// TestJournalOrdering: every mutation reaches the journal with the shard
// counters the mutation is about to publish, before those counters are
// observable — the write-ahead property behind LSN==generation.
func TestJournalOrdering(t *testing.T) {
	r := New(WithShards(4))
	defer r.Close()
	var muts []Mutation
	r.SetJournal(func(m Mutation) {
		// The journal runs before the bump: the shard's visible counter
		// must still be one behind the journaled value.
		if got := r.Generation(""); got >= sumJournaled(muts)+m.GenAll {
			t.Errorf("generation %d visible before journal of shard gen %d returned", got, m.GenAll)
		}
		cp := m
		cp.Entity = &Entity{}
		*cp.Entity = *m.Entity
		cp.KindGens = append([]KindGen(nil), m.KindGens...)
		muts = append(muts, cp)
	})
	if err := r.Register(persistEntity(1, "A")); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Update("dev-001", Attributes{"lot": "B"}, ""); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := r.Unregister("dev-001"); err != nil {
		t.Fatalf("Unregister: %v", err)
	}
	if len(muts) != 3 {
		t.Fatalf("journaled %d mutations, want 3", len(muts))
	}
	wantTypes := []ChangeType{Added, Updated, Removed}
	for i, m := range muts {
		if m.Type != wantTypes[i] {
			t.Fatalf("mutation %d type = %v, want %v", i, m.Type, wantTypes[i])
		}
		if len(m.KindGens) != 2 {
			t.Fatalf("mutation %d carries %d kind gens, want 2", i, len(m.KindGens))
		}
	}
	// One entity, one shard: its GenAll must be exactly 1,2,3.
	for i, m := range muts {
		if m.GenAll != uint64(i+1) {
			t.Fatalf("mutation %d shard genAll = %d, want %d", i, m.GenAll, i+1)
		}
	}
}

func sumJournaled(muts []Mutation) uint64 {
	if len(muts) == 0 {
		return 0
	}
	return muts[len(muts)-1].GenAll
}

// TestRestoreGenerationsMonotonic: generation sums restored as a base keep
// Generation monotonic across the simulated restart even though the new
// process's shard counters start at zero.
func TestRestoreGenerationsMonotonic(t *testing.T) {
	r := New(WithShards(4))
	defer r.Close()
	r.RestoreGenerations(120, map[string]uint64{"PresenceSensor": 80})
	if got := r.Generation(""); got != 120 {
		t.Fatalf("restored all-gen = %d, want 120", got)
	}
	if got := r.Generation("PresenceSensor"); got != 80 {
		t.Fatalf("restored kind gen = %d, want 80", got)
	}
	if err := r.Register(persistEntity(1, "A")); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if got := r.Generation(""); got != 121 {
		t.Fatalf("post-restore all-gen = %d, want 121", got)
	}
	if got := r.Generation("PresenceSensor"); got != 81 {
		t.Fatalf("post-restore kind gen = %d, want 81", got)
	}
}

// TestReclaimIdenticalKeepsGenerations: re-binding a recovered registration
// with identical content notifies watchers but moves no generation counter —
// the peer-visible no-op a clean restart needs.
func TestReclaimIdenticalKeepsGenerations(t *testing.T) {
	r := New()
	defer r.Close()
	journaled := 0
	r.SetJournal(func(Mutation) { journaled++ })

	if err := r.RestoreEntity(persistEntity(1, "A")); err != nil {
		t.Fatalf("RestoreEntity: %v", err)
	}
	r.RestoreGenerations(10, map[string]uint64{"PresenceSensor": 10})
	w, err := r.Watch(Query{})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}

	if err := r.Reclaim(persistEntity(1, "A")); err != nil {
		t.Fatalf("Reclaim: %v", err)
	}
	if journaled != 0 {
		t.Fatalf("identical reclaim journaled %d mutations, want 0", journaled)
	}
	if got := r.Generation("PresenceSensor"); got != 10 {
		t.Fatalf("identical reclaim moved generation to %d, want 10", got)
	}
	// Cancel first so Next returns what was queued instead of blocking.
	w.Cancel()
	batch, _, _ := w.Next(nil)
	if len(batch) != 1 {
		t.Fatalf("identical reclaim queued %d notifications, want 1", len(batch))
	}
	if c := batch[0]; c.Type != Updated || c.Entity.ID != "dev-001" {
		t.Fatalf("watcher saw %v %s, want Updated dev-001", c.Type, c.Entity.ID)
	}
	// The reclaimed registration is live: unbinding it is a journaled
	// removal.
	if err := r.Unregister("dev-001"); err != nil {
		t.Fatalf("Unregister after reclaim: %v", err)
	}
	if journaled != 1 {
		t.Fatalf("unregister after reclaim journaled %d mutations, want 1", journaled)
	}
	if _, ok := r.Get("dev-001"); ok {
		t.Fatalf("reclaimed entity still present after Unregister")
	}
}

// TestReclaimChangedContent: content drift across the crash is a real,
// journaled, generation-bumping update.
func TestReclaimChangedContent(t *testing.T) {
	r := New()
	defer r.Close()
	journaled := 0
	r.SetJournal(func(Mutation) { journaled++ })
	if err := r.RestoreEntity(persistEntity(1, "A")); err != nil {
		t.Fatalf("RestoreEntity: %v", err)
	}
	r.RestoreGenerations(10, map[string]uint64{"PresenceSensor": 10})

	if err := r.Reclaim(persistEntity(1, "B")); err != nil {
		t.Fatalf("Reclaim: %v", err)
	}
	if journaled != 1 {
		t.Fatalf("changed reclaim journaled %d mutations, want 1", journaled)
	}
	if got := r.Generation("PresenceSensor"); got != 11 {
		t.Fatalf("changed reclaim generation = %d, want 11", got)
	}
	e, ok := r.Get("dev-001")
	if !ok || e.Attrs["lot"] != "B" {
		t.Fatalf("changed reclaim content = %+v ok=%v", e, ok)
	}
}

// TestReclaimMissing: a registration that never made it to disk registers
// fresh, journaled and counted.
func TestReclaimMissing(t *testing.T) {
	r := New()
	defer r.Close()
	journaled := 0
	r.SetJournal(func(Mutation) { journaled++ })
	if err := r.Reclaim(persistEntity(1, "A")); err != nil {
		t.Fatalf("Reclaim: %v", err)
	}
	if journaled != 1 {
		t.Fatalf("missing reclaim journaled %d mutations, want 1", journaled)
	}
	if _, ok := r.Get("dev-001"); !ok {
		t.Fatalf("missing reclaim did not register")
	}
}

// TestCaptureStateConsistency: the capture walk reports every live entity
// exactly once with its shard's counters, and no unregistered one.
func TestCaptureStateConsistency(t *testing.T) {
	r := New(WithShards(4))
	defer r.Close()
	for i := 0; i <= 50; i++ {
		if err := r.Register(persistEntity(i, "A")); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	if err := r.Unregister(persistEntity(50, "A").ID); err != nil {
		t.Fatalf("Unregister: %v", err)
	}

	seen := make(map[ID]bool)
	var genAll uint64
	r.CaptureState(
		func(idx int, all uint64, kinds map[string]uint64) { genAll += all },
		func(e Entity) {
			if seen[e.ID] {
				t.Fatalf("entity %s captured twice", e.ID)
			}
			seen[e.ID] = true
		},
	)
	if len(seen) != 50 || seen[persistEntity(50, "A").ID] {
		t.Fatalf("captured %d entities, want 50 (unregistered one absent)", len(seen))
	}
	// 51 registers + 1 unregister = 52 counter moves.
	if genAll != 52 {
		t.Fatalf("captured generation sum = %d, want 52", genAll)
	}
}
