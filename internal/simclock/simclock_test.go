package simclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC) // ICDCS'17 week

func TestVirtualNow(t *testing.T) {
	v := NewVirtual(epoch)
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	v.Advance(90 * time.Minute)
	if got, want := v.Now(), epoch.Add(90*time.Minute); !got.Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", got, want)
	}
}

func TestVirtualAdvanceBackwardsIsNoop(t *testing.T) {
	v := NewVirtual(epoch)
	v.AdvanceTo(epoch.Add(-time.Hour))
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want unchanged %v", got, epoch)
	}
}

func TestTimerFiresAtDueTime(t *testing.T) {
	v := NewVirtual(epoch)
	tm := v.NewTimer(10 * time.Minute)
	select {
	case <-tm.C:
		t.Fatal("timer fired before Advance")
	default:
	}
	v.Advance(9 * time.Minute)
	select {
	case <-tm.C:
		t.Fatal("timer fired early")
	default:
	}
	v.Advance(time.Minute)
	select {
	case at := <-tm.C:
		if want := epoch.Add(10 * time.Minute); !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at due time")
	}
}

func TestTimerStop(t *testing.T) {
	v := NewVirtual(epoch)
	tm := v.NewTimer(time.Minute)
	if !tm.Stop() {
		t.Fatal("Stop() = false for an armed timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	v.Advance(2 * time.Minute)
	select {
	case <-tm.C:
		t.Fatal("stopped timer fired")
	default:
	}
}

func TestTickerPeriodicDelivery(t *testing.T) {
	v := NewVirtual(epoch)
	tk := v.NewTicker(10 * time.Minute)
	defer tk.Stop()
	for i := 1; i <= 3; i++ {
		v.Advance(10 * time.Minute)
		select {
		case at := <-tk.C:
			if want := epoch.Add(time.Duration(i) * 10 * time.Minute); !at.Equal(want) {
				t.Fatalf("tick %d at %v, want %v", i, at, want)
			}
		default:
			t.Fatalf("tick %d not delivered", i)
		}
	}
}

func TestTickerDropsTicksWhenNotDrained(t *testing.T) {
	v := NewVirtual(epoch)
	tk := v.NewTicker(time.Minute)
	defer tk.Stop()
	v.Advance(5 * time.Minute) // 5 due ticks, buffer of 1
	n := 0
	for {
		select {
		case <-tk.C:
			n++
		default:
			if n != 1 {
				t.Fatalf("received %d buffered ticks, want 1 (drop semantics)", n)
			}
			return
		}
	}
}

func TestTimersFireInTimestampOrder(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	delays := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	for i, d := range delays {
		wg.Add(1)
		ch := v.After(d)
		go func(i int) {
			defer wg.Done()
			at := <-ch
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			_ = at
		}(i)
	}
	// Advance one timer at a time so goroutine receive order is
	// observable deterministically.
	for i := 1; i <= 3; i++ {
		v.Advance(10 * time.Second)
		waitFor(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(order) >= i
		})
	}
	wg.Wait()
	want := []int{1, 2, 0}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", order, want)
		}
	}
}

func TestNowObservedAtDueTimeDuringAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	tm := v.NewTimer(time.Minute)
	v.Advance(time.Hour)
	at := <-tm.C
	if want := epoch.Add(time.Minute); !at.Equal(want) {
		t.Fatalf("timer observed %v, want due time %v (not advance target)", at, want)
	}
}

func TestSleepWakesOnAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	done := make(chan struct{})
	go func() {
		v.Sleep(time.Second)
		close(done)
	}()
	waitFor(t, func() bool { return pendingTimers(v) == 1 })
	v.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not wake after Advance")
	}
}

func TestTickerStopPreventsFurtherTicks(t *testing.T) {
	v := NewVirtual(epoch)
	tk := v.NewTicker(time.Minute)
	v.Advance(time.Minute)
	<-tk.C
	tk.Stop()
	v.Advance(10 * time.Minute)
	select {
	case <-tk.C:
		t.Fatal("tick delivered after Stop")
	default:
	}
	if n := pendingTimers(v); n != 0 {
		t.Fatalf("%d timers armed after Stop, want 0", n)
	}
}

func TestNewTickerNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTicker(0) did not panic")
		}
	}()
	NewVirtual(epoch).NewTicker(0)
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	if c.Now().Before(before.Add(-time.Second)) {
		t.Fatal("Real.Now() in the past")
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C:
	case <-time.After(5 * time.Second):
		t.Fatal("real timer did not fire")
	}
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C:
	case <-time.After(5 * time.Second):
		t.Fatal("real ticker did not fire")
	}
	c.Sleep(time.Millisecond)
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("real After did not fire")
	}
}

// Property: after advancing by the sum of any positive durations, every
// one-shot timer armed at those offsets has fired exactly once.
func TestQuickAllDueTimersFire(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		v := NewVirtual(epoch)
		var timers []*Timer
		var total time.Duration
		for _, r := range raw {
			d := time.Duration(r%10000+1) * time.Millisecond
			total += d
			timers = append(timers, v.NewTimer(d))
		}
		v.Advance(total)
		for _, tm := range timers {
			select {
			case <-tm.C:
			default:
				return false
			}
		}
		return pendingTimers(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// pendingTimers reports how many timers and tickers v has armed.
func pendingTimers(v *Virtual) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
