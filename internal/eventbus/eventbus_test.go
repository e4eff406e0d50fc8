package eventbus

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)

func TestPublishDeliversToSubscriber(t *testing.T) {
	b := New()
	defer b.Close()
	got := make(chan Event, 1)
	if _, err := b.Subscribe("presence", func(ev Event) { got <- ev }); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("presence", true, t0); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-got:
		if ev.Payload != true || !ev.Time.Equal(t0) {
			t.Fatalf("unexpected event %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event not delivered")
	}
}

func TestFanOutToMultipleSubscribers(t *testing.T) {
	b := New()
	defer b.Close()
	const n = 7
	var wg sync.WaitGroup
	wg.Add(n)
	var count atomic.Int64
	for i := 0; i < n; i++ {
		if _, err := b.Subscribe("t", func(Event) {
			count.Add(1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Publish("t", 42, t0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := count.Load(); got != n {
		t.Fatalf("delivered %d, want %d", got, n)
	}
}

func TestNoDeliveryAcrossTopics(t *testing.T) {
	b := New()
	defer b.Close()
	var count atomic.Int64
	if _, err := b.Subscribe("a", func(Event) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("b", 1, t0); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if got := count.Load(); got != 0 {
		t.Fatalf("topic a received %d events published on b", got)
	}
}

func TestOrderingPerSubscriber(t *testing.T) {
	b := New()
	defer b.Close()
	const n = 500
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	if _, err := b.Subscribe("t", func(ev Event) {
		mu.Lock()
		got = append(got, ev.Payload.(int))
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	}, WithQueue(n)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Publish("t", i, t0); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	b := New()
	defer b.Close()
	var count atomic.Int64
	sub, err := b.Subscribe("t", func(Event) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("t", 1, t0); err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	after := count.Load()
	if err := b.Publish("t", 2, t0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if got := count.Load(); got != after {
		t.Fatalf("delivered %d events after Cancel, want 0", got-after)
	}
	b.mu.RLock()
	n := len(b.subs["t"])
	b.mu.RUnlock()
	if n != 0 {
		t.Fatalf("%d subscriptions on t after Cancel, want 0", n)
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	b := New()
	defer b.Close()
	sub, err := b.Subscribe("t", func(Event) {})
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	sub.Cancel()
}

func TestBlockPolicyAppliesBackpressure(t *testing.T) {
	b := New()
	defer b.Close()
	release := make(chan struct{})
	openRelease := sync.OnceFunc(func() { close(release) })
	defer openRelease() // a failed check must not leave the handler parked
	started := make(chan struct{}, 16)
	if _, err := b.Subscribe("t", func(Event) {
		started <- struct{}{}
		<-release
	}, WithQueue(1)); err != nil {
		t.Fatal(err)
	}
	// First publish goes to the handler, second fills the queue, third
	// must block.
	for i := 0; i < 2; i++ {
		if err := b.Publish("t", i, t0); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	blocked := make(chan struct{})
	go func() {
		_ = b.Publish("t", 2, t0)
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("third publish returned despite full Block queue")
	case <-time.After(50 * time.Millisecond):
	}
	openRelease()
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("publish still blocked after handler drained")
	}
}

// TestQueueGrowsOnDemandWithinBound pins what a subscription's queue costs:
// an idle subscription holds no buffer, and a queue filled to its bound
// over several drain cycles — so both of the slices the drain swaps take a
// turn as the queue — never holds one with capacity above WithQueue's n.
func TestQueueGrowsOnDemandWithinBound(t *testing.T) {
	const n = 100 // not a power of two: unclamped doubling would pass it
	b := New()
	defer b.Close()
	tokens := make(chan struct{}) // one per delivery the handler may finish
	openTokens := sync.OnceFunc(func() { close(tokens) })
	defer openTokens() // a failed check must not leave the handler parked
	sub, err := b.Subscribe("t", func(Event) { <-tokens }, WithQueue(n))
	if err != nil {
		t.Fatal(err)
	}
	queued := func() (int, int) {
		sub.mu.Lock()
		defer sub.mu.Unlock()
		return len(sub.buf), cap(sub.buf)
	}
	if _, c := queued(); c != 0 {
		t.Fatalf("idle subscription holds a %d-slot queue, want none", c)
	}
	for round := 0; round < 4; round++ {
		// One event parks in the handler, then n fill the queue.
		if err := b.Publish("t", round, t0); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; {
			if l, _ := queued(); l == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("drain never took the first event")
			}
			time.Sleep(100 * time.Microsecond)
		}
		for i := 0; i < n; i++ {
			if err := b.Publish("t", i, t0); err != nil {
				t.Fatal(err)
			}
			if l, c := queued(); c > n || l != i+1 {
				t.Fatalf("round %d: %d queued in a %d-slot buffer, want %d in at most %d", round, l, c, i+1, n)
			}
		}
		for i := 0; i <= n; i++ {
			tokens <- struct{}{}
		}
	}
}

// TestIdleTracksOutstandingDeliveries checks the settled-versus-offered
// ledger behind Idle through both ways an offered event can end — delivered,
// or discarded by a cancelled subscription — and that a handler's own
// publication keeps the bus busy until it too settles.
func TestIdleTracksOutstandingDeliveries(t *testing.T) {
	b := New()
	defer b.Close()
	if !b.Idle() {
		t.Fatal("fresh bus not idle")
	}
	if err := b.Publish("nobody", 1, t0); err != nil || !b.Idle() {
		t.Fatalf("publish without subscribers left the bus busy (err %v)", err)
	}
	waitIdle := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !b.Idle(); {
			if time.Now().After(deadline) {
				t.Fatalf("bus never idle after %s: %+v", what, b.Stats())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	release := make(chan struct{})
	openRelease := sync.OnceFunc(func() { close(release) })
	defer openRelease() // a failed check must not leave the handler parked
	var downstream atomic.Int64
	if _, err := b.Subscribe("down", func(Event) { <-release; downstream.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("up", func(ev Event) { _ = b.Publish("down", ev.Payload, t0) }); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("up", 1, t0); err != nil {
		t.Fatal(err)
	}
	if b.Idle() { // either "up" is unsettled or its publication to "down" is
		t.Fatal("bus idle while a relayed event waits in a gated handler")
	}
	openRelease()
	waitIdle("the relay chain drained")
	if downstream.Load() != 1 {
		t.Fatalf("downstream saw %d events, want 1", downstream.Load())
	}

	sub, err := b.Subscribe("cancelled", func(Event) {})
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	sub.enqueue(Event{Payload: 9}) // a publisher that raced the cancel
	b.offered.Add(1)
	if !b.Idle() {
		t.Fatalf("event offered to a cancelled subscription never settled: %+v", b.Stats())
	}
}

func TestClosedBusRejectsOperations(t *testing.T) {
	b := New()
	b.Close()
	if err := b.Publish("t", 1, t0); err != ErrClosed {
		t.Fatalf("Publish on closed bus: err = %v, want ErrClosed", err)
	}
	if _, err := b.Subscribe("t", func(Event) {}); err != ErrClosed {
		t.Fatalf("Subscribe on closed bus: err = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

func TestSubscribeValidation(t *testing.T) {
	b := New()
	defer b.Close()
	if _, err := b.Subscribe("t", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := b.Subscribe("t", func(Event) {}, WithQueue(0)); err == nil {
		t.Fatal("zero queue accepted")
	}
}

func TestPublishDuringCloseDoesNotPanic(t *testing.T) {
	b := New()
	for i := 0; i < 8; i++ {
		if _, err := b.Subscribe("t", func(Event) { time.Sleep(time.Microsecond) }, WithQueue(1)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			if err := b.Publish("t", i, t0); err != nil {
				return
			}
		}
	}()
	time.Sleep(time.Millisecond)
	b.Close()
	wg.Wait()
}

func TestStatsCountsDelivered(t *testing.T) {
	b := New()
	var wg sync.WaitGroup
	wg.Add(3)
	if _, err := b.Subscribe("t", func(Event) { wg.Done() }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Publish("t", i, t0); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	b.Close()
	st := b.Stats()
	if st.Published != 3 || st.Delivered != 3 {
		t.Fatalf("Stats = %+v, want Published=3 Delivered=3", st)
	}
}

// Property: with Block policy and sufficient queue, every published event is
// delivered exactly once, in order, regardless of payload contents.
func TestQuickExactlyOnceDelivery(t *testing.T) {
	f := func(payloads []int64) bool {
		if len(payloads) > 256 {
			payloads = payloads[:256]
		}
		b := New()
		var mu sync.Mutex
		var got []int64
		if _, err := b.Subscribe("t", func(ev Event) {
			mu.Lock()
			got = append(got, ev.Payload.(int64))
			mu.Unlock()
		}, WithQueue(len(payloads)+1)); err != nil {
			return false
		}
		for _, p := range payloads {
			if err := b.Publish("t", p, t0); err != nil {
				return false
			}
		}
		b.Close()
		mu.Lock()
		defer mu.Unlock()
		if len(got) != len(payloads) {
			return false
		}
		for i := range got {
			if got[i] != payloads[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
