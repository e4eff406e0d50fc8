package handoff

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// Tests of the Queue contract, written once for every site that hands
// batches over through it: FIFO order, recycled buffers that pin nothing,
// the retain bound, the loss bound, and Close ending the stream only after
// what was pushed before it. Concurrent tests synchronize through channels
// and WaitGroups only, so the race detector judges the queue, not the test.

// zeroPastLen fails the test if any slot of b between len and cap holds a
// non-zero value.
func zeroPastLen(t *testing.T, what string, b []*int) {
	t.Helper()
	for i, v := range b[len(b):cap(b)] {
		if v != nil {
			t.Fatalf("%s: slot %d past len %d holds %d", what, len(b)+i, len(b), *v)
		}
	}
}

// TestQueueOrderWithinAndAcrossBatches: items come out of Take in push
// order, inside one batch and from one batch to the next.
func TestQueueOrderWithinAndAcrossBatches(t *testing.T) {
	q := New[int](16, 0)
	var got []int
	var batch []int
	next := 0
	for _, n := range []int{1, 5, 3, 64} {
		for i := 0; i < n; i++ {
			if !q.Push(next) {
				t.Fatalf("push %d refused by an open queue", next)
			}
			next++
		}
		var lost, ok bool
		batch, lost, ok = q.Take(batch)
		if !ok || lost {
			t.Fatalf("Take ok=%v lost=%v, want ok and nothing lost", ok, lost)
		}
		if len(batch) != n {
			t.Fatalf("batch holds %d items, want the %d pushed since the last Take", len(batch), n)
		}
		got = append(got, batch...)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d is %d: order lost in %v", i, v, got)
		}
	}
}

// TestQueueRecycledBuffersHoldNothingPastLen: a batch given back to Take is
// cleared, so neither the buffer taking pushes nor a batch handed out keeps
// a value in any slot from len up to its capacity.
func TestQueueRecycledBuffersHoldNothingPastLen(t *testing.T) {
	q := New[*int](1<<10, 0)
	var batch []*int
	for round, n := range []int{40, 7, 33, 1, 12, 0} {
		for i := 0; i < n; i++ {
			v := round*100 + i
			q.Push(&v)
		}
		if n == 0 {
			q.Close()
		}
		batch, _, _ = q.Take(batch)
		if len(batch) != n {
			t.Fatalf("round %d: batch holds %d items, want %d", round, len(batch), n)
		}
		zeroPastLen(t, fmt.Sprintf("round %d: handed-out batch", round), batch)
		q.mu.Lock()
		pending := q.pending
		q.mu.Unlock()
		zeroPastLen(t, fmt.Sprintf("round %d: pending buffer", round), pending)
	}
}

// TestQueueBurstShedsBothBuffers: after a 100k-item burst, two quiet Takes
// leave both the buffer taking pushes and the consumer's batch at or under
// retain — the burst's high-water mark is not pinned for life.
func TestQueueBurstShedsBothBuffers(t *testing.T) {
	const (
		retain = 256
		burst  = 100_000
	)
	q := New[int](retain, 0)
	for i := 0; i < burst; i++ {
		q.Push(i)
	}
	batch, _, _ := q.Take(nil)
	if len(batch) != burst {
		t.Fatalf("burst handed over as %d items, want %d in one batch", len(batch), burst)
	}
	for round := 0; round < 2; round++ {
		q.Push(round)
		batch, _, _ = q.Take(batch)
	}
	if c := cap(batch); c > retain {
		t.Fatalf("consumer batch keeps capacity %d, retain %d", c, retain)
	}
	q.mu.Lock()
	c := cap(q.pending)
	q.mu.Unlock()
	if c > retain {
		t.Fatalf("pending buffer keeps capacity %d, retain %d", c, retain)
	}
}

// TestQueueBoundKeepsFirstReportsLostOnce: past the bound a push is refused,
// the first bound items are kept, and the next Take reports the loss once;
// the Take after it is clean again.
func TestQueueBoundKeepsFirstReportsLostOnce(t *testing.T) {
	const bound = 100
	q := New[int](bound, bound)
	for i := 0; i < bound+5; i++ {
		if got, want := q.Push(i), i < bound; got != want {
			t.Fatalf("push %d returned %v, want %v", i, got, want)
		}
	}
	batch, lost, ok := q.Take(nil)
	if !ok || !lost {
		t.Fatalf("Take ok=%v lost=%v past the bound, want ok and lost", ok, lost)
	}
	if len(batch) != bound {
		t.Fatalf("kept %d items, want the bound %d", len(batch), bound)
	}
	for i, v := range batch {
		if v != i {
			t.Fatalf("kept item %d is %d: the oldest items must be the ones kept", i, v)
		}
	}
	q.Push(-1)
	batch, lost, _ = q.Take(batch)
	if lost {
		t.Fatal("lost reported twice for one overflow")
	}
	if len(batch) != 1 || batch[0] != -1 {
		t.Fatalf("batch after the overflow = %v, want the one later push", batch)
	}
}

// TestQueueCloseHandsOverPendingFirst: items pushed before Close are handed
// over before Take reports the end, and a push after Close is refused and
// never taken.
func TestQueueCloseHandsOverPendingFirst(t *testing.T) {
	q := New[int](16, 0)
	q.Push(1)
	q.Push(2)
	q.Close()
	q.Close() // idempotent
	if q.Push(3) {
		t.Fatal("push after Close returned true")
	}
	batch, lost, ok := q.Take(nil)
	if !ok || lost || fmt.Sprint(batch) != "[1 2]" {
		t.Fatalf("first Take after Close = %v lost=%v ok=%v, want [1 2] and ok", batch, lost, ok)
	}
	if batch, _, ok = q.Take(batch); ok || len(batch) != 0 {
		t.Fatalf("second Take after Close = %v ok=%v, want the end with nothing", batch, ok)
	}
}

// TestQueueCloseWakesParkedTake: a consumer parked on an empty queue is woken
// by Close, after it has been handed every item pushed before the Close.
func TestQueueCloseWakesParkedTake(t *testing.T) {
	q := New[int](16, 0)
	taken := make(chan int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var batch []int
		for {
			var ok bool
			if batch, _, ok = q.Take(batch); !ok {
				return
			}
			taken <- len(batch)
		}
	}()
	total := 0
	collect := func(want int) {
		t.Helper()
		for total < want {
			select {
			case n := <-taken:
				total += n
			case <-time.After(5 * time.Second):
				t.Fatalf("consumer took %d of %d items", total, want)
			}
		}
	}
	for i := 0; i < 3; i++ {
		q.Push(i)
	}
	collect(3)
	// The consumer is now parked (or about to park) on an empty queue; two
	// more items race the Close and must still be handed over before Take
	// reports the end.
	q.Push(3)
	q.Push(4)
	q.Close()
	collect(5)
	select {
	case <-done:
	case n := <-taken:
		t.Fatalf("consumer took %d items more than were pushed", n)
	case <-time.After(5 * time.Second):
		t.Fatal("parked Take was not woken by Close")
	}
}

// TestQueueRaceProducersConsumerClose runs under -race -count=20 in CI: four
// producers push while one consumer takes and the queue is closed
// mid-stream. Every push that returned true is taken exactly once, and no
// refused push is ever taken.
func TestQueueRaceProducersConsumerClose(t *testing.T) {
	const producers = 4
	q := New[int](64, 0)

	seenc := make(chan map[int]int)
	go func() {
		seen := make(map[int]int)
		var batch []int
		for {
			var ok bool
			if batch, _, ok = q.Take(batch); !ok {
				seenc <- seen
				return
			}
			for _, v := range batch {
				seen[v]++
			}
		}
	}()

	var (
		wg       sync.WaitGroup
		started  = make(chan struct{}, producers) // one send per producer
		accepted = make([][]int, producers)
		refused  = make([][]int, producers)
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				v := p<<24 | i
				if !q.Push(v) {
					refused[p] = append(refused[p], v)
					return
				}
				accepted[p] = append(accepted[p], v)
				if i == 1000 {
					started <- struct{}{}
				}
			}
		}(p)
	}
	for p := 0; p < producers; p++ {
		<-started
	}
	q.Close()
	wg.Wait()
	seen := <-seenc

	n := 0
	for p := 0; p < producers; p++ {
		for _, v := range accepted[p] {
			if seen[v] != 1 {
				t.Fatalf("accepted push %#x taken %d times, want once", v, seen[v])
			}
			n++
		}
		for _, v := range refused[p] {
			if seen[v] != 0 {
				t.Fatalf("refused push %#x was taken", v)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("consumer took %d distinct items, %d pushes were accepted", len(seen), n)
	}
}
