package registry

import (
	"fmt"
	"maps"
	"runtime"
	"testing"
)

// checkShapes verifies every shard's shape table against its records and
// postings: each record points at the table's shape for its key and sits in
// its members at its slot, each shape lists exactly the records pointing at
// it, no shape outlives its last record, and the kind and attribute postings
// hold exactly the table's shapes, each under its own kinds and attributes.
func checkShapes(t *testing.T, r *Registry, step string) {
	t.Helper()
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		refs := make(map[*shape]int)
		for id, rec := range sh.entities {
			if got := sh.shapes[rec.shape.key]; got != rec.shape {
				t.Errorf("%s: shard %d: %s points at a shape the table does not hold", step, i, id)
			}
			if m := rec.shape.members; rec.slot >= len(m) || m[rec.slot] != rec {
				t.Errorf("%s: shard %d: %s is not at its slot %d of its shape's members", step, i, id, rec.slot)
			}
			refs[rec.shape]++
		}
		if len(refs) != len(sh.shapes) {
			t.Errorf("%s: shard %d holds %d shapes, its records use %d", step, i, len(sh.shapes), len(refs))
		}
		wantKind, wantAttr := make(map[string]shapeSet), make(map[string]shapeSet)
		for key, s := range sh.shapes {
			if len(s.members) != refs[s] {
				t.Errorf("%s: shard %d: shape %q has %d members, %d records use it", step, i, key, len(s.members), refs[s])
			}
			for _, k := range s.kinds {
				addPosting(wantKind, k, s)
			}
			for name, value := range s.attrs {
				addPosting(wantAttr, attrKey(name, value), s)
			}
		}
		if !maps.EqualFunc(sh.byKind, wantKind, maps.Equal) || !maps.EqualFunc(sh.byAttr, wantAttr, maps.Equal) {
			t.Errorf("%s: shard %d posts %v by kind and %v by attribute, its shapes %v and %v",
				step, i, sh.byKind, sh.byAttr, wantKind, wantAttr)
		}
		sh.mu.Unlock()
	}
}

// TestShapeTableFollowsEveryInstallAndRemoval drives every path that installs
// or withdraws a registration and checks the shape tables after each step;
// once everything is gone, every table (and every posting) must be empty.
func TestShapeTableFollowsEveryInstallAndRemoval(t *testing.T) {
	r := New(WithShards(4))
	defer r.Close()
	lots := []string{"A22", "B16", "D6"}
	step := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkShapes(t, r, name)
	}
	for i := 0; i < 12; i++ {
		step("register", r.Register(persistEntity(i, lots[i%len(lots)])))
	}
	step("update to a new set", r.Update("dev-000", Attributes{"lot": "Z9", "floor": "2"}, ""))
	step("update back", r.Update("dev-000", Attributes{"lot": "A22"}, ""))
	step("reclaim same content", r.Reclaim(persistEntity(1, "B16")))
	changed := persistEntity(2, "D6")
	changed.Kinds = []string{"PresenceSensor", "Sensor", "Device"}
	step("reclaim changed content", r.Reclaim(changed))
	step("reclaim missing", r.Reclaim(persistEntity(40, "Q1")))
	step("restore replace", r.RestoreEntity(persistEntity(3, "Y7")))
	step("restore new", r.RestoreEntity(persistEntity(41, "Y8")))
	for i := 50; i < 54; i++ {
		step("register batch", r.Register(persistEntity(i, fmt.Sprintf("L%d", i%2))))
	}
	for i := 50; i < 54; i++ {
		step("unregister batch", r.Unregister(persistEntity(i, "").ID))
	}
	for _, e := range r.Discover(Query{}) {
		step("unregister", r.Unregister(e.ID))
	}
	for i := range r.shards {
		sh := &r.shards[i]
		if len(sh.shapes) != 0 || len(sh.byKind) != 0 || len(sh.byAttr) != 0 {
			t.Errorf("shard %d keeps %d shapes, %d kind and %d attribute postings with no entity",
				i, len(sh.shapes), len(sh.byKind), len(sh.byAttr))
		}
	}
}

// TestEntitiesOfEqualContentShareOneShape: within a shard, equal content is
// stored once, whatever map or slice each caller passed.
func TestEntitiesOfEqualContentShareOneShape(t *testing.T) {
	r := New(WithShards(1))
	defer r.Close()
	for i := 0; i < 100; i++ {
		if err := r.Register(persistEntity(i, fmt.Sprintf("lot%d", i%4))); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.shards[0].shapes); n != 4 {
		t.Fatalf("%d shapes for 4 distinct contents", n)
	}
	// Nil and empty attribute sets are different content.
	if err := r.Register(Entity{ID: "nil", Kind: "K"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Entity{ID: "empty", Kind: "K", Attrs: Attributes{}}); err != nil {
		t.Fatal(err)
	}
	if n := len(r.shards[0].shapes); n != 6 {
		t.Fatalf("%d shapes after a nil and an empty attribute set, want 6", n)
	}
	if e, _ := r.Get("nil"); e.Attrs != nil {
		t.Fatalf("nil attributes came back as %#v", e.Attrs)
	}
	if e, _ := r.Get("empty"); e.Attrs == nil {
		t.Fatal("empty attributes came back nil")
	}
	checkShapes(t, r, "shared")
}

// TestShapeMembersGiveBackCapacity: a lot that drains leaves its shape's
// member slice near its count, not at the peak it once held.
func TestShapeMembersGiveBackCapacity(t *testing.T) {
	r := New(WithShards(1))
	defer r.Close()
	for i := 0; i < 1000; i++ {
		if err := r.Register(persistEntity(i, "A22")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 1000; i++ {
		if err := r.Unregister(persistEntity(i, "A22").ID); err != nil {
			t.Fatal(err)
		}
	}
	checkShapes(t, r, "drained")
	for _, s := range r.shards[0].shapes {
		if len(s.members) != 1 || cap(s.members) > 4 {
			t.Errorf("drained shape holds %d members in a slice of capacity %d", len(s.members), cap(s.members))
		}
	}
}

// TestRegistryKeepsNoCallerKinds: a caller reusing the Kinds slice it
// registered with must not rewrite the registered entity's taxonomy, or the
// kind postings (keyed by the old kinds) are never withdrawn on Unregister.
func TestRegistryKeepsNoCallerKinds(t *testing.T) {
	for _, install := range []struct {
		name string
		fn   func(r *Registry, e Entity) error
	}{
		{"register", func(r *Registry, e Entity) error { return r.Register(e) }},
		{"reclaim", func(r *Registry, e Entity) error { return r.Reclaim(e) }},
		{"restore", func(r *Registry, e Entity) error { return r.RestoreEntity(e) }},
	} {
		t.Run(install.name, func(t *testing.T) {
			r := New()
			defer r.Close()
			kinds := []string{"Panel", "Display"}
			if err := install.fn(r, Entity{ID: "p1", Kind: "Panel", Kinds: kinds}); err != nil {
				t.Fatal(err)
			}
			kinds[1] = "Other"
			if got := r.Discover(Query{Kind: "Display"}); len(got) != 1 {
				t.Fatalf("Discover(Display) = %d entities after the caller reused its slice, want 1", len(got))
			}
			if got := r.Discover(Query{Kind: "Other"}); len(got) != 0 {
				t.Fatalf("Discover(Other) = %d entities, want 0", len(got))
			}
			if err := r.Unregister("p1"); err != nil {
				t.Fatal(err)
			}
			sh := r.shard("p1")
			if len(sh.byKind) != 0 {
				t.Fatalf("kind postings %v survive Unregister", sh.byKind)
			}
		})
	}
}

// TestStoredContentIsIsolated: mutating the map a caller passed, or a map or
// slice the registry handed out, changes no stored entity — neither the one
// it came from nor the others sharing its shape.
func TestStoredContentIsIsolated(t *testing.T) {
	r := New(WithShards(1))
	defer r.Close()
	w, err := r.Watch(Query{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cancel()
	attrs := Attributes{"lot": "A22"}
	for _, id := range []ID{"s1", "s2"} {
		if err := r.Register(Entity{ID: id, Kind: "S", Kinds: []string{"S", "T"}, Attrs: attrs}); err != nil {
			t.Fatal(err)
		}
	}
	attrs["lot"] = "HACKED"
	upd := Attributes{"lot": "A22"}
	if err := r.Update("s2", upd, ""); err != nil {
		t.Fatal(err)
	}
	upd["lot"] = "HACKED"

	got, _ := r.Get("s1")
	got.Attrs["lot"] = "HACKED"
	got.Kinds[1] = "HACKED"
	for _, e := range r.Discover(Query{}) {
		e.Attrs["lot"] = "HACKED"
		e.Kinds[0] = "HACKED"
	}
	batch, _, _ := w.Next(nil)
	for _, c := range batch {
		c.Entity.Attrs["lot"] = "HACKED"
		c.Entity.Kinds[1] = "HACKED"
	}

	for _, id := range []ID{"s1", "s2"} {
		e, _ := r.Get(id)
		if e.Attrs["lot"] != "A22" || len(e.Kinds) != 2 || e.Kinds[0] != "S" || e.Kinds[1] != "T" {
			t.Errorf("%s stored as %v %v after callers mutated their copies", id, e.Kinds, e.Attrs)
		}
	}
	if got := r.Discover(Query{Kind: "T", Where: Attributes{"lot": "A22"}}); len(got) != 2 {
		t.Errorf("Discover(T, lot=A22) = %d entities, want 2", len(got))
	}
}

// Heap bounds per registered entity (20k registrations, host-bind shaped
// input: a fresh two-kind slice and a fresh one-attribute map per call). A
// private map per entity cost 676 B over 10 shared sets and 943 B with every
// set distinct; shapes store 10 shared sets once (249 B while the postings
// held entity IDs, 123 B once they held shapes, 107 B since a record holds no
// lease deadline and fits the 48 B size class), and a distinct set may cost
// at most a tenth more than the private copy did. The shared bound fails at
// 123 B, so a record back in the 64 B class fails it.
const (
	sharedHeapBound   = 115
	distinctHeapBound = 943 * 1.10
)

// heapPerEntity registers n entities drawing their attribute value from sets
// distinct values and returns the live heap the registry keeps per entity.
// IDs and values are built first and stay alive, so only what the registry
// retains is counted.
func heapPerEntity(t *testing.T, n, sets int) float64 {
	t.Helper()
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(fmt.Sprintf("sensor-%06d", i))
	}
	values := make([]string, sets)
	for i := range values {
		values[i] = fmt.Sprintf("lot-%06d", i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := New()
	for i, id := range ids {
		err := r.Register(Entity{
			ID:    id,
			Kind:  "PresenceSensor",
			Kinds: []string{"PresenceSensor", "Sensor"},
			Attrs: Attributes{"lot": values[i%sets]},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	runtime.KeepAlive(ids)
	runtime.KeepAlive(values)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

func TestHeapPerEntity(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	const n = 20000
	if got := heapPerEntity(t, n, 10); got > sharedHeapBound {
		t.Errorf("10 shared attribute sets: %.0f B per entity, want <= %d", got, sharedHeapBound)
	} else {
		t.Logf("10 shared attribute sets: %.0f B per entity", got)
	}
	if got := heapPerEntity(t, n, n); got > distinctHeapBound {
		t.Errorf("all attribute sets distinct: %.0f B per entity, want <= %.0f", got, distinctHeapBound)
	} else {
		t.Logf("all attribute sets distinct: %.0f B per entity", got)
	}
}
