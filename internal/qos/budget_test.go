package qos

import (
	"sync"
	"testing"
)

func TestBudgetAcquireUpTo(t *testing.T) {
	b := NewBudget(10)
	if got := b.AcquireUpTo(7); got != 7 {
		t.Fatalf("first acquire = %d, want 7", got)
	}
	if got := b.AcquireUpTo(7); got != 3 {
		t.Fatalf("partial acquire = %d, want 3", got)
	}
	if got := b.AcquireUpTo(1); got != 0 {
		t.Fatalf("exhausted acquire = %d, want 0", got)
	}
	if got, want := b.Rejected(), uint64(5); got != want {
		t.Fatalf("rejected = %d, want %d", got, want)
	}
	b.Release(10)
	if got := b.InFlight(); got != 0 {
		t.Fatalf("in flight after full release = %d, want 0", got)
	}
}

func TestBudgetUnbounded(t *testing.T) {
	b := NewBudget(0)
	if got := b.AcquireUpTo(1 << 20); got != 1<<20 {
		t.Fatalf("unbounded acquire = %d", got)
	}
	if b.Rejected() != 0 {
		t.Fatal("unbounded budget rejected units")
	}
}

// TestBudgetSetCapacity covers live retuning — the primitive behind the
// set_budget admin op: raising admits more, shrinking below current
// occupancy refuses new admissions until enough releases drain, and a
// bounded budget can go unbounded (and back) without losing its occupancy.
func TestBudgetSetCapacity(t *testing.T) {
	b := NewBudget(2)
	if got := b.AcquireUpTo(5); got != 2 {
		t.Fatalf("acquire at capacity 2 = %d", got)
	}
	b.SetCapacity(6)
	if got := b.Capacity(); got != 6 {
		t.Fatalf("capacity after raise = %d, want 6", got)
	}
	if got := b.AcquireUpTo(5); got != 4 {
		t.Fatalf("acquire after raise = %d, want 4", got)
	}
	b.SetCapacity(3) // below the 6 in flight
	if got := b.AcquireUpTo(1); got != 0 {
		t.Fatal("over-occupied budget admitted a unit")
	}
	b.Release(4) // occupancy 2 < 3
	if got := b.AcquireUpTo(2); got != 1 {
		t.Fatalf("acquire after drain-down = %d, want 1", got)
	}
	b.SetCapacity(0) // unbounded
	if got := b.AcquireUpTo(1 << 20); got != 1<<20 {
		t.Fatalf("unbounded acquire after retune = %d", got)
	}
	if got := b.InFlight(); got != 3+1<<20 {
		t.Fatalf("in flight = %d, want %d", got, 3+1<<20)
	}
	b.SetCapacity(4) // re-bound while heavily occupied
	if got := b.AcquireUpTo(1); got != 0 {
		t.Fatal("re-bounded budget ignored its occupancy")
	}
	b.Release(1 << 20)
	if got := b.AcquireUpTo(2); got != 1 {
		t.Fatalf("acquire after release = %d, want 1", got)
	}
}

// TestBudgetUnboundedTracksInFlight pins the occupancy contract on the
// unbounded path: acquisitions still count into InFlight so a later
// SetCapacity sees the true load.
func TestBudgetUnboundedTracksInFlight(t *testing.T) {
	b := NewBudget(0)
	b.AcquireUpTo(10)
	if got := b.InFlight(); got != 10 {
		t.Fatalf("unbounded in flight = %d, want 10", got)
	}
	b.Release(10)
	if got := b.InFlight(); got != 0 {
		t.Fatalf("in flight after release = %d, want 0", got)
	}
}

// TestBudgetConcurrent hammers the budget from many goroutines and checks
// the admission invariant afterwards — run with -race.
func TestBudgetConcurrent(t *testing.T) {
	const capacity, workers, perWorker = 64, 8, 1000
	b := NewBudget(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if n := b.AcquireUpTo(3); n > 0 {
					b.Release(n)
				}
			}
		}()
	}
	wg.Wait()
	if got := b.InFlight(); got != 0 {
		t.Fatalf("in flight after drain = %d, want 0", got)
	}
	if got, want := b.Admitted()+b.Rejected(), uint64(workers*perWorker*3); got != want {
		t.Fatalf("admitted+rejected = %d, want %d", got, want)
	}
}
