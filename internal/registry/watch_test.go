package registry

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the watcher contract: every matching change queued in commit
// order, handed over in whole batches by Next, a loss reported only past
// the queue bound, and Cancel/Close ending the stream after what was queued.

// TestWatchOrderWithinAndAcrossBatches: changes come out of Next in commit
// order, inside one batch and from one batch to the next.
func TestWatchOrderWithinAndAcrossBatches(t *testing.T) {
	r := New()
	defer r.Close()
	w, err := r.Watch(Query{Kind: "PresenceSensor"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cancel()

	type seen struct {
		typ ChangeType
		id  ID
	}
	var want, got []seen
	for i := 0; i < 5; i++ {
		id := ID(fmt.Sprintf("s%d", i))
		if err := r.Register(sensor(string(id), "A22")); err != nil {
			t.Fatal(err)
		}
		want = append(want, seen{Added, id})
	}
	batch, _, _ := w.Next(nil)
	if len(batch) != 5 {
		t.Fatalf("first batch holds %d changes, want the 5 queued", len(batch))
	}
	for _, c := range batch {
		got = append(got, seen{c.Type, c.Entity.ID})
	}
	if err := r.Update("s3", Attributes{"parkingLot": "B16"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := r.Unregister("s1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Entity{ID: "panel", Kind: "Panel"}); err != nil { // other kind
		t.Fatal(err)
	}
	if err := r.Unregister("s3"); err != nil {
		t.Fatal(err)
	}
	want = append(want, seen{Updated, "s3"}, seen{Removed, "s1"}, seen{Removed, "s3"})
	batch, lost, ok := w.Next(batch)
	if !ok || lost {
		t.Fatalf("Next ok=%v lost=%v, want ok and nothing lost", ok, lost)
	}
	for _, c := range batch {
		got = append(got, seen{c.Type, c.Entity.ID})
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("changes %v, want %v", got, want)
	}
	if batch[0].Entity.Attrs["parkingLot"] != "B16" {
		t.Fatalf("Updated change carries %v, want the new attributes", batch[0].Entity.Attrs)
	}
}

// TestWatchQueueBoundKeepsFirstAndReportsLostOnce: a consumer that does not
// call Next keeps exactly the first watchQueueBound changes; the rest are
// dropped, Next reports the loss once with the kept changes, and the flag is
// clear again on the next batch.
func TestWatchQueueBoundKeepsFirstAndReportsLostOnce(t *testing.T) {
	r := New()
	defer r.Close()
	w, err := r.Watch(Query{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cancel()
	if err := r.Register(sensor("s", "A22")); err != nil {
		t.Fatal(err)
	}
	const over = 5
	for i := 1; i < watchQueueBound+over; i++ {
		if err := r.Update("s", nil, fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
	}
	batch, lost, ok := w.Next(nil)
	if !ok || !lost {
		t.Fatalf("Next ok=%v lost=%v past the bound, want ok and lost", ok, lost)
	}
	if len(batch) != watchQueueBound {
		t.Fatalf("kept %d changes, want the bound %d", len(batch), watchQueueBound)
	}
	if batch[0].Type != Added {
		t.Fatalf("first kept change = %v, want the Added", batch[0].Type)
	}
	for i := 1; i < len(batch); i++ {
		if got, want := batch[i].Entity.Endpoint, fmt.Sprint(i); got != want {
			t.Fatalf("kept change %d is update %s, want %s: the oldest changes must be the ones kept", i, got, want)
		}
	}

	if err := r.Update("s", nil, "after"); err != nil {
		t.Fatal(err)
	}
	batch, lost, _ = w.Next(batch)
	if lost {
		t.Fatal("lost reported twice for one overflow")
	}
	if len(batch) != 1 || batch[0].Entity.Endpoint != "after" {
		t.Fatalf("batch after the overflow = %+v, want the one later update", batch)
	}
}

// TestCancelAndCloseWakeParkedNext: a consumer parked on an empty queue is
// woken by Cancel or by registry Close, after it has been handed every change
// queued before the cancel.
func TestCancelAndCloseWakeParkedNext(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*Registry, *Watcher)
	}{
		{"Cancel", func(_ *Registry, w *Watcher) { w.Cancel() }},
		{"Close", func(r *Registry, _ *Watcher) { r.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New()
			defer r.Close()
			w, err := r.Watch(Query{})
			if err != nil {
				t.Fatal(err)
			}
			var taken atomic.Int64
			done := make(chan int64)
			go func() {
				var batch []Change
				for {
					var ok bool
					if batch, _, ok = w.Next(batch); !ok {
						done <- taken.Load()
						return
					}
					taken.Add(int64(len(batch)))
				}
			}()
			for i := 0; i < 3; i++ {
				if err := r.Register(sensor(fmt.Sprintf("a%d", i), "A22")); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for taken.Load() != 3 {
				if time.Now().After(deadline) {
					t.Fatalf("consumer took %d of 3 changes", taken.Load())
				}
				time.Sleep(100 * time.Microsecond)
			}
			// The consumer is now parked (or about to park) on an empty
			// queue; two more changes race the end of the stream and must
			// still be handed over before Next reports it.
			for i := 0; i < 2; i++ {
				if err := r.Register(sensor(fmt.Sprintf("b%d", i), "A22")); err != nil {
					t.Fatal(err)
				}
			}
			tc.end(r, w)
			select {
			case n := <-done:
				if n != 5 {
					t.Fatalf("consumer took %d changes before the end, want 5", n)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("parked Next was not woken by the end of the watcher")
			}
		})
	}
}

// TestWatchBurstShedsBuffers: after a 50k-change burst, the consumer's batch
// no longer keeps capacity above watchRetain, and a batch given back to Next
// pins no Entity. The queue's own buffers are covered by the handoff tests.
func TestWatchBurstShedsBuffers(t *testing.T) {
	const burst = 50_000
	r := New()
	defer r.Close()
	w, err := r.Watch(Query{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Cancel()
	for i := 0; i < burst; i++ {
		if err := r.Register(sensor(fmt.Sprintf("s%05d", i), "A22")); err != nil {
			t.Fatal(err)
		}
	}
	big, _, _ := w.Next(nil)
	if len(big) != burst {
		t.Fatalf("burst handed over as %d changes, want %d in one batch", len(big), burst)
	}
	batch := big
	for round := 0; round < 2; round++ {
		if err := r.Unregister(ID(fmt.Sprintf("s%05d", round))); err != nil {
			t.Fatal(err)
		}
		spent := batch
		batch, _, _ = w.Next(batch)
		for i, c := range spent {
			if c.Entity.Attrs != nil || c.Entity.Kinds != nil || c.Entity.ID != "" {
				t.Fatalf("round %d: spent batch slot %d still holds %+v", round, i, c)
			}
		}
	}
	if cap(batch) > watchRetain {
		t.Fatalf("consumer batch keeps capacity %d, bound %d", cap(batch), watchRetain)
	}
}

// TestWatchConcurrentMutateConsumeCancel runs under -race in CI: four
// goroutines register and unregister while one consumer drains the watcher
// and the watcher is cancelled mid-stream. Cancel must never meet a send
// (a send on the closed signal would panic), every change committed before
// the cancel must be seen, and no change may be seen twice.
func TestWatchConcurrentMutateConsumeCancel(t *testing.T) {
	const producers = 4
	r := New()
	defer r.Close()
	w, err := r.Watch(Query{})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		id  ID
		typ ChangeType
	}
	type op struct {
		key
		n int64 // global completion order
	}

	seenc := make(chan map[key]int)
	go func() {
		seen := make(map[key]int)
		var batch []Change
		for {
			var ok bool
			if batch, _, ok = w.Next(batch); !ok {
				seenc <- seen
				return
			}
			for _, c := range batch {
				seen[key{c.Entity.ID, c.Type}]++
			}
		}
	}()

	var (
		seq  atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
		logs = make([][]op, producers)
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				id := ID(fmt.Sprintf("p%d-%d", p, i))
				if err := r.Register(Entity{ID: id, Kind: "PresenceSensor"}); err != nil {
					t.Error(err)
					return
				}
				logs[p] = append(logs[p], op{key{id, Added}, seq.Add(1)})
				if err := r.Unregister(id); err != nil {
					t.Error(err)
					return
				}
				logs[p] = append(logs[p], op{key{id, Removed}, seq.Add(1)})
			}
		}(p)
	}
	for seq.Load() < 4000 {
		time.Sleep(100 * time.Microsecond)
	}
	cut := seq.Load() // every op numbered <= cut returned before Cancel ran
	w.Cancel()
	stop.Store(true)
	wg.Wait()
	seen := <-seenc

	all := make(map[key]int64)
	for _, l := range logs {
		for _, o := range l {
			all[o.key] = o.n
		}
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("%v seen %d times, want once", k, n)
		}
		if _, ok := all[k]; !ok {
			t.Fatalf("%v seen but never committed", k)
		}
	}
	for k, n := range all {
		if n <= cut && seen[k] != 1 {
			t.Fatalf("%v committed before the cancel (op %d <= %d) but not seen", k, n, cut)
		}
	}
}

// TestWatchersSeeTheirKindsOnly: watchers are indexed by their query's kind.
// A change reaches the watchers of every kind and of each kind in its
// taxonomy once (even when the taxonomy names a kind twice), and no other.
func TestWatchersSeeTheirKindsOnly(t *testing.T) {
	r := New()
	defer r.Close()
	counts := make(map[string]int)
	watchers := make(map[string]*Watcher)
	for _, kind := range []string{"", "Panel", "Display", "Sensor"} {
		w, err := r.Watch(Query{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Cancel()
		watchers[kind] = w
	}
	if err := r.Register(Entity{ID: "p1", Kind: "Panel", Kinds: []string{"Panel", "Display", "Panel"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Entity{ID: "s1", Kind: "Sensor"}); err != nil {
		t.Fatal(err)
	}
	watchers["Sensor"].Cancel()
	if err := r.Unregister("s1"); err != nil {
		t.Fatal(err)
	}
	for kind, w := range watchers {
		w.Cancel()
		for {
			batch, _, ok := w.Next(nil)
			if !ok {
				break
			}
			counts[kind] += len(batch)
		}
	}
	want := map[string]int{"": 3, "Panel": 1, "Display": 1, "Sensor": 1}
	if !maps.Equal(counts, want) {
		t.Fatalf("changes per watcher kind = %v, want %v", counts, want)
	}
	r.watchMu.Lock()
	defer r.watchMu.Unlock()
	if len(r.watchers) != 0 || r.watchCount.Load() != 0 {
		t.Fatalf("%d watcher kinds and count %d left after every cancel", len(r.watchers), r.watchCount.Load())
	}
}
