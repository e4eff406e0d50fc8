package registry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAttachmentsStopBeforeAttach: a Removed change and Stop race attach
// callbacks parked on a gate. Whichever side wins, every attach that bound
// its entity is undone exactly once, and the table settles at zero. The
// first round lets the removals and the stop finish while every attach is
// parked (the stop-before-attach path proper); the second opens the gate
// while they run.
func TestAttachmentsStopBeforeAttach(t *testing.T) {
	for _, parked := range []bool{true, false} {
		t.Run(fmt.Sprintf("parked=%v", parked), func(t *testing.T) {
			r := New()
			defer r.Close()
			const n = 64
			ents := make([]Entity, n)
			index := make(map[ID]int, n)
			for i := range ents {
				ents[i] = sensor(fmt.Sprintf("s%02d", i), "A22")
				index[ents[i].ID] = i
				if err := r.Register(ents[i]); err != nil {
					t.Fatal(err)
				}
			}
			gate := make(chan struct{})
			entered := make(chan struct{}, n)
			var attaches, detaches [n]atomic.Int32
			a := NewAttachments(r, Query{Kind: "PresenceSensor"}, func(e Entity) (func(), bool) {
				i := index[e.ID]
				attaches[i].Add(1)
				entered <- struct{}{}
				<-gate
				return func() { detaches[i].Add(1) }, true
			}, nil)

			var attaching, stopping sync.WaitGroup
			for i := range ents {
				attaching.Add(1)
				go func(e Entity) {
					defer attaching.Done()
					a.Apply([]Change{{Type: Added, Entity: e}})
				}(ents[i])
			}
			for range ents {
				<-entered
			}
			// Half the fleet is unregistered while its attach is parked;
			// Stop races the other half.
			for i := 0; i < n/2; i++ {
				stopping.Add(1)
				go func(c Change) {
					defer stopping.Done()
					a.Apply([]Change{c})
				}(Change{Type: Removed, Entity: ents[i]})
			}
			stopping.Add(1)
			go func() {
				defer stopping.Done()
				a.Stop()
			}()
			if parked {
				stopping.Wait()
				if got := a.Len(); got != 0 {
					t.Fatalf("Len = %d with every attach still parked, want 0", got)
				}
			}
			close(gate)
			attaching.Wait()
			stopping.Wait()

			for i := range ents {
				if a, d := attaches[i].Load(), detaches[i].Load(); a != 1 || d != 1 {
					t.Errorf("%s: %d attaches, %d detaches; want exactly one each", ents[i].ID, a, d)
				}
			}
			if got := a.Len(); got != 0 {
				t.Fatalf("Len = %d after stop, want 0", got)
			}
			// A stopped table attaches nothing more.
			a.Add(ents[0])
			if got := attaches[0].Load(); got != 1 {
				t.Fatalf("Add after Stop attached again (%d attaches)", got)
			}
		})
	}
}

// TestAttachmentsReconcile drives the repair a lost notification calls for:
// an entity registered behind the table's back is attached, one that left
// is detached, one whose attribute changed is refreshed (re-homed) with its
// new attributes, and an entity the owner declines holds no slot.
func TestAttachmentsReconcile(t *testing.T) {
	r := New()
	defer r.Close()
	var mu sync.Mutex
	lotOf := make(map[ID]string) // the owner's view: attached entity -> lot
	a := NewAttachments(r, Query{Kind: "PresenceSensor"}, func(e Entity) (func(), bool) {
		if e.Origin != "" {
			return nil, false
		}
		mu.Lock()
		lotOf[e.ID] = e.Attrs["parkingLot"]
		mu.Unlock()
		return func() {
			mu.Lock()
			delete(lotOf, e.ID)
			mu.Unlock()
		}, true
	}, func(e Entity) {
		mu.Lock()
		lotOf[e.ID] = e.Attrs["parkingLot"]
		mu.Unlock()
	})
	defer a.Stop()
	view := func() map[ID]string {
		mu.Lock()
		defer mu.Unlock()
		cp := make(map[ID]string, len(lotOf))
		for id, lot := range lotOf {
			cp[id] = lot
		}
		return cp
	}
	check := func(what string, want map[ID]string) {
		t.Helper()
		got := view()
		if len(got) != len(want) || a.Len() != len(want) {
			t.Fatalf("%s: attached %v (Len %d), want %v", what, got, a.Len(), want)
		}
		for id, lot := range want {
			if got[id] != lot {
				t.Fatalf("%s: attached %v, want %v", what, got, want)
			}
		}
	}

	for i := 0; i < 4; i++ {
		if err := r.Register(sensor(fmt.Sprintf("s%d", i), "A22")); err != nil {
			t.Fatal(err)
		}
	}
	mirror := sensor("m0", "A22")
	mirror.Origin = "peer"
	if err := r.Register(mirror); err != nil {
		t.Fatal(err)
	}
	a.Reconcile()
	check("initial population", map[ID]string{"s0": "A22", "s1": "A22", "s2": "A22", "s3": "A22"})

	// Changes the table never hears of, as when the watcher dropped them.
	if err := r.Unregister("s0"); err != nil {
		t.Fatal(err)
	}
	if err := r.Update("s2", Attributes{"parkingLot": "B7"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(sensor("s4", "C1")); err != nil {
		t.Fatal(err)
	}
	a.Reconcile()
	check("after reconcile", map[ID]string{"s1": "A22", "s2": "B7", "s3": "A22", "s4": "C1"})

	// An Updated change for an attached entity refreshes it in place.
	e3 := sensor("s3", "D4")
	a.Apply([]Change{{Type: Updated, Entity: e3}})
	check("after update", map[ID]string{"s1": "A22", "s2": "B7", "s3": "D4", "s4": "C1"})
}
