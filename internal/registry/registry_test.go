package registry

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func sensor(id, lot string) Entity {
	return Entity{
		ID:    ID(id),
		Kind:  "PresenceSensor",
		Attrs: Attributes{"parkingLot": lot},
		Bound: BindRuntime,
	}
}

func TestRegisterAndGet(t *testing.T) {
	r := New()
	defer r.Close()
	if err := r.Register(sensor("s1", "A22")); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Get("s1")
	if !ok {
		t.Fatal("Get(s1) not found")
	}
	if got.Kind != "PresenceSensor" || got.Attrs["parkingLot"] != "A22" {
		t.Fatalf("unexpected entity %+v", got)
	}
	if len(got.Kinds) != 1 || got.Kinds[0] != "PresenceSensor" {
		t.Fatalf("Kinds = %v, want derived [PresenceSensor]", got.Kinds)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New()
	defer r.Close()
	if err := r.Register(Entity{Kind: "X"}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := r.Register(Entity{ID: "a"}); err == nil {
		t.Fatal("empty kind accepted")
	}
}

func TestDuplicateRejected(t *testing.T) {
	r := New()
	defer r.Close()
	if err := r.Register(sensor("s1", "A22")); err != nil {
		t.Fatal(err)
	}
	err := r.Register(sensor("s1", "B16"))
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestDiscoverByKindAndAttribute(t *testing.T) {
	r := New()
	defer r.Close()
	for i := 0; i < 5; i++ {
		lot := "A22"
		if i >= 3 {
			lot = "B16"
		}
		if err := r.Register(sensor(fmt.Sprintf("s%d", i), lot)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Register(Entity{ID: "m1", Kind: "Messenger"}); err != nil {
		t.Fatal(err)
	}

	all := r.Discover(Query{Kind: "PresenceSensor"})
	if len(all) != 5 {
		t.Fatalf("Discover(kind) = %d entities, want 5", len(all))
	}
	a22 := r.Discover(Query{Kind: "PresenceSensor", Where: Attributes{"parkingLot": "A22"}})
	if len(a22) != 3 {
		t.Fatalf("Discover(A22) = %d, want 3", len(a22))
	}
	for i := 1; i < len(a22); i++ {
		if a22[i].ID < a22[i-1].ID {
			t.Fatalf("results not sorted: %v", a22)
		}
	}
	if got := r.Discover(Query{Where: Attributes{"parkingLot": "D6"}}); len(got) != 0 {
		t.Fatalf("Discover(D6) = %v, want empty", got)
	}
	if got := r.Discover(Query{}); len(got) != 6 {
		t.Fatalf("Discover(all) = %d, want 6", len(got))
	}
	if got := r.Discover(Query{Kind: "PresenceSensor", Limit: 2}); len(got) != 2 {
		t.Fatalf("Limit ignored, got %d", len(got))
	}
}

// The paper's Figure 6 hierarchy: ParkingEntrancePanel extends DisplayPanel.
// A query for the parent kind must match subtype entities.
func TestDiscoverMatchesTaxonomyAncestors(t *testing.T) {
	r := New()
	defer r.Close()
	err := r.Register(Entity{
		ID:    "p1",
		Kind:  "ParkingEntrancePanel",
		Kinds: []string{"ParkingEntrancePanel", "DisplayPanel"},
		Attrs: Attributes{"location": "A22"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Discover(Query{Kind: "DisplayPanel"}); len(got) != 1 {
		t.Fatalf("parent-kind query matched %d, want 1", len(got))
	}
	if got := r.Discover(Query{Kind: "ParkingEntrancePanel"}); len(got) != 1 {
		t.Fatalf("concrete-kind query matched %d, want 1", len(got))
	}
	if got := r.Discover(Query{Kind: "CityEntrancePanel"}); len(got) != 0 {
		t.Fatalf("sibling-kind query matched %d, want 0", len(got))
	}
}

func TestUpdateReindexesAttributes(t *testing.T) {
	r := New()
	defer r.Close()
	if err := r.Register(sensor("s1", "A22")); err != nil {
		t.Fatal(err)
	}
	if err := r.Update("s1", Attributes{"parkingLot": "B16"}, "tcp://x"); err != nil {
		t.Fatal(err)
	}
	if got := r.Discover(Query{Where: Attributes{"parkingLot": "A22"}}); len(got) != 0 {
		t.Fatal("stale attribute index after Update")
	}
	got := r.Discover(Query{Where: Attributes{"parkingLot": "B16"}})
	if len(got) != 1 || got[0].Endpoint != "tcp://x" {
		t.Fatalf("Update not visible: %v", got)
	}
	if err := r.Update("nope", nil, ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update(missing) err = %v, want ErrNotFound", err)
	}
}

func TestUnregister(t *testing.T) {
	r := New()
	defer r.Close()
	if err := r.Register(sensor("s1", "A22")); err != nil {
		t.Fatal(err)
	}
	if err := r.Unregister("s1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("s1"); ok {
		t.Fatal("entity visible after Unregister")
	}
	if err := r.Unregister("s1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Unregister err = %v, want ErrNotFound", err)
	}
}

func TestWatchReceivesMatchingChanges(t *testing.T) {
	r := New()
	defer r.Close()
	w, err := r.Watch(Query{Kind: "PresenceSensor", Where: Attributes{"parkingLot": "A22"}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cancel()
	if err := r.Register(sensor("s1", "A22")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(sensor("s2", "B16")); err != nil { // must not notify
		t.Fatal(err)
	}
	if err := r.Unregister("s1"); err != nil {
		t.Fatal(err)
	}

	// Notifications are queued synchronously by the mutation, so both are
	// pending now and Next returns them without blocking.
	batch, lost, ok := w.Next(nil)
	if !ok || lost {
		t.Fatalf("Next ok=%v lost=%v, want ok and nothing lost", ok, lost)
	}
	want := []ChangeType{Added, Removed}
	if len(batch) != len(want) {
		t.Fatalf("got %d changes %+v, want %v", len(batch), batch, want)
	}
	for i, wt := range want {
		if c := batch[i]; c.Type != wt || c.Entity.ID != "s1" {
			t.Fatalf("change %d = %v/%s, want %v/s1", i, c.Type, c.Entity.ID, wt)
		}
	}
	w.Cancel()
	if extra, _, ok := w.Next(batch); ok || len(extra) != 0 {
		t.Fatalf("unexpected extra changes %+v", extra)
	}
}

func TestWatcherCancelIdempotent(t *testing.T) {
	r := New()
	defer r.Close()
	w, err := r.Watch(Query{})
	if err != nil {
		t.Fatal(err)
	}
	w.Cancel()
	w.Cancel()
	if _, _, ok := w.Next(nil); ok {
		t.Fatal("cancelled watcher still open")
	}
	if err := r.Register(sensor("s1", "A22")); err != nil {
		t.Fatal(err)
	}
	if batch, _, ok := w.Next(nil); ok || len(batch) != 0 {
		t.Fatalf("cancelled watcher received %+v", batch)
	}
}

func TestCloseRejectsMutations(t *testing.T) {
	r := New()
	w, err := r.Watch(Query{})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if _, _, ok := w.Next(nil); ok {
		t.Fatal("watcher not closed on registry Close")
	}
	if err := r.Register(sensor("s1", "A22")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close err = %v, want ErrClosed", err)
	}
	if err := r.Unregister("s1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Unregister after Close err = %v, want ErrClosed", err)
	}
	if _, err := r.Watch(Query{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Watch after Close err = %v, want ErrClosed", err)
	}
}

func TestAttributesCloneIsolation(t *testing.T) {
	r := New()
	defer r.Close()
	attrs := Attributes{"parkingLot": "A22"}
	if err := r.Register(Entity{ID: "s1", Kind: "PresenceSensor", Attrs: attrs}); err != nil {
		t.Fatal(err)
	}
	attrs["parkingLot"] = "HACKED"
	got, _ := r.Get("s1")
	if got.Attrs["parkingLot"] != "A22" {
		t.Fatal("registry shares caller's attribute map")
	}
	got.Attrs["parkingLot"] = "ALSO-HACKED"
	got2, _ := r.Get("s1")
	if got2.Attrs["parkingLot"] != "A22" {
		t.Fatal("Get returns aliased attribute map")
	}
	if Attributes(nil).Clone() != nil {
		t.Fatal("nil Clone() should stay nil")
	}
}

func TestStringers(t *testing.T) {
	if BindRuntime.String() != "runtime" || BindConfiguration.String() != "configuration" ||
		BindDeployment.String() != "deployment" || BindLaunch.String() != "launch" {
		t.Fatal("BindingTime.String() wrong")
	}
	if BindingTime(42).String() != "BindingTime(42)" {
		t.Fatal("unknown BindingTime.String() wrong")
	}
	if Added.String() != "added" || Updated.String() != "updated" ||
		Removed.String() != "removed" ||
		ChangeType(9).String() != "ChangeType(9)" {
		t.Fatal("ChangeType.String() wrong")
	}
}

// Property: Discover with an attribute filter returns exactly the registered
// entities whose attribute matches, no matter the mix of lots.
func TestQuickDiscoverMatchesFilter(t *testing.T) {
	lots := []string{"A22", "B16", "D6"}
	f := func(assign []uint8) bool {
		if len(assign) > 200 {
			assign = assign[:200]
		}
		r := New()
		defer r.Close()
		want := map[string]int{}
		for i, a := range assign {
			lot := lots[int(a)%len(lots)]
			want[lot]++
			if err := r.Register(sensor(fmt.Sprintf("s%04d", i), lot)); err != nil {
				return false
			}
		}
		for _, lot := range lots {
			got := r.Discover(Query{Kind: "PresenceSensor", Where: Attributes{"parkingLot": lot}})
			if len(got) != want[lot] {
				return false
			}
			for _, e := range got {
				if e.Attrs["parkingLot"] != lot {
					return false
				}
			}
		}
		return r.Count() == len(assign)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
