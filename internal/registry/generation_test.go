package registry

import (
	"fmt"
	"testing"
)

// Generation must move on every membership/attribute mutation — register,
// update, unregister — and stay put on reads.
func TestGenerationBumpsOnMutations(t *testing.T) {
	r := New()
	defer r.Close()

	g0 := r.Generation("Sensor")
	if err := r.Register(Entity{ID: "s1", Kind: "Sensor", Attrs: Attributes{"zone": "a"}}); err != nil {
		t.Fatal(err)
	}
	g1 := r.Generation("Sensor")
	if g1 == g0 {
		t.Fatal("Register did not bump generation")
	}

	if _, ok := r.Get("s1"); !ok {
		t.Fatal("entity missing")
	}
	if r.Discover(Query{Kind: "Sensor"}) == nil {
		t.Fatal("discover failed")
	}
	if got := r.Generation("Sensor"); got != g1 {
		t.Fatalf("reads bumped generation: %d -> %d", g1, got)
	}

	if err := r.Update("s1", Attributes{"zone": "b"}, ""); err != nil {
		t.Fatal(err)
	}
	g2 := r.Generation("Sensor")
	if g2 == g1 {
		t.Fatal("Update did not bump generation")
	}

	if err := r.Unregister("s1"); err != nil {
		t.Fatal(err)
	}
	if got := r.Generation("Sensor"); got == g2 {
		t.Fatal("Unregister did not bump generation")
	}
}

// Generation must cover taxonomy ancestors: registering a subtype changes
// the ancestor kind's generation too, since ancestor queries match it.
func TestGenerationCoversTaxonomyAncestors(t *testing.T) {
	r := New()
	defer r.Close()

	g0 := r.Generation("DisplayPanel")
	err := r.Register(Entity{
		ID:    "p1",
		Kind:  "ParkingEntrancePanel",
		Kinds: []string{"ParkingEntrancePanel", "DisplayPanel"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Generation("DisplayPanel"); got == g0 {
		t.Fatal("subtype registration did not bump ancestor generation")
	}
	if got := r.Generation("Thermometer"); got != 0 {
		t.Fatalf("unrelated kind generation = %d, want 0", got)
	}
}

// Every registration must change the kind generation regardless of which
// shard the entity hashes to: a per-shard counter that misses a shard would
// let a poller reuse a stale fleet snapshot.
func TestGenerationNoFalseNegativeAcrossShards(t *testing.T) {
	r := New(WithShards(16))
	defer r.Close()

	last := r.Generation("Sensor")
	for i := 0; i < 256; i++ {
		id := ID(fmt.Sprintf("s%03d", i))
		if err := r.Register(Entity{ID: id, Kind: "Sensor"}); err != nil {
			t.Fatal(err)
		}
		got := r.Generation("Sensor")
		if got == last {
			t.Fatalf("registration %d did not change generation", i)
		}
		last = got
	}
	for i := 0; i < 256; i++ {
		id := ID(fmt.Sprintf("s%03d", i))
		if err := r.Unregister(id); err != nil {
			t.Fatal(err)
		}
		got := r.Generation("Sensor")
		if got == last {
			t.Fatalf("unregistration %d did not change generation", i)
		}
		last = got
	}
}

// Generation("") covers all kinds.
func TestGenerationAllKinds(t *testing.T) {
	r := New()
	defer r.Close()
	g0 := r.Generation("")
	if err := r.Register(Entity{ID: "x", Kind: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Entity{ID: "y", Kind: "B"}); err != nil {
		t.Fatal(err)
	}
	if got := r.Generation(""); got != g0+2 {
		t.Fatalf("Generation(\"\") = %d, want %d", got, g0+2)
	}
}

// ScanIfChanged must be free of iteration while the generation is
// unchanged, and must scan (and report the moved generation) after any
// mutation of the kind.
func TestScanIfChanged(t *testing.T) {
	r := New()
	defer r.Close()
	for i := 0; i < 10; i++ {
		err := r.Register(Entity{ID: ID(fmt.Sprintf("s%d", i)), Kind: "Sensor"})
		if err != nil {
			t.Fatal(err)
		}
	}

	visits := 0
	gen, changed := r.ScanIfChanged("Sensor", 0, func(Entity) bool { visits++; return true })
	if !changed || visits != 10 {
		t.Fatalf("first sync: changed=%v visits=%d, want true/10", changed, visits)
	}

	visits = 0
	gen2, changed := r.ScanIfChanged("Sensor", gen, func(Entity) bool { visits++; return true })
	if changed || visits != 0 || gen2 != gen {
		t.Fatalf("steady state scanned: changed=%v visits=%d gen %d->%d", changed, visits, gen, gen2)
	}

	if err := r.Unregister("s3"); err != nil {
		t.Fatal(err)
	}
	visits = 0
	gen3, changed := r.ScanIfChanged("Sensor", gen, func(Entity) bool { visits++; return true })
	if !changed || visits != 9 || gen3 == gen {
		t.Fatalf("post-churn sync: changed=%v visits=%d gen %d->%d", changed, visits, gen, gen3)
	}
}

// Origin must survive registration, cloning and discovery untouched: it is
// the marker separating owned entities from federation mirrors.
func TestOriginRoundTrips(t *testing.T) {
	r := New()
	defer r.Close()
	if err := r.Register(Entity{ID: "m1", Kind: "Sensor", Origin: "node-b", Endpoint: "10.0.0.2:7"}); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Get("m1")
	if !ok || got.Origin != "node-b" {
		t.Fatalf("Get lost origin: %+v", got)
	}
	ents := r.Discover(Query{Kind: "Sensor"})
	if len(ents) != 1 || ents[0].Origin != "node-b" {
		t.Fatalf("Discover lost origin: %+v", ents)
	}
	if err := r.Update("m1", Attributes{"zone": "z"}, "10.0.0.2:8"); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Get("m1"); got.Origin != "node-b" {
		t.Fatalf("Update lost origin: %+v", got)
	}
}
