// Package simclock provides pluggable time sources for the orchestration
// runtime. The paper's periodic data-delivery model ("when periodic presence
// from PresenceSensor <10 min>") depends on wall-clock periods of minutes to
// hours; a virtual clock makes those experiments deterministic and lets the
// benchmark harness compress a 24-hour aggregation window into microseconds.
//
// Two implementations are provided: Real, backed by package time, and
// Virtual, a manually advanced clock with a timer heap. Both satisfy Clock.
package simclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts the passage of time for timers, tickers and sleeps.
type Clock interface {
	// Now reports the current time on this clock.
	Now() time.Time
	// After returns a channel that receives the clock time once d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
	// NewTicker returns a ticker that fires every d on this clock.
	NewTicker(d time.Duration) *Ticker
	// NewTimer returns a one-shot timer that fires after d on this clock.
	NewTimer(d time.Duration) *Timer
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
}

// Ticker delivers clock ticks on C until stopped. As with time.Ticker, ticks
// are dropped rather than queued when the receiver falls behind.
type Ticker struct {
	// C receives the tick times.
	C    <-chan time.Time
	stop func()
}

// Stop turns off the ticker. It does not close C.
func (t *Ticker) Stop() { t.stop() }

// Timer delivers a single time on C when it expires.
type Timer struct {
	// C receives the expiry time.
	C    <-chan time.Time
	stop func() bool
}

// Stop prevents the timer from firing. It reports whether the call stopped
// the timer before it fired.
func (t *Timer) Stop() bool { return t.stop() }

// Real is a Clock backed by the system wall clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, stop: t.Stop}
}

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, stop: t.Stop}
}

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Virtual is a manually advanced Clock. Time only moves when Advance or
// AdvanceTo is called; all timers due at or before the new time fire in
// timestamp order (ties broken by creation order), and Now observes the due
// time of each firing while it is delivered. The zero value is not usable;
// use NewVirtual.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	timers timerHeap
	seq    int64
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a Virtual clock whose current time is start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	return v.NewTimer(d).C
}

// NewTimer implements Clock.
func (v *Virtual) NewTimer(d time.Duration) *Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	vt := &vtimer{
		at:  v.now.Add(d),
		ch:  make(chan time.Time, 1),
		seq: v.seq,
	}
	v.seq++
	heap.Push(&v.timers, vt)
	return &Timer{C: vt.ch, stop: func() bool { return v.stopTimer(vt) }}
}

// NewTicker implements Clock.
func (v *Virtual) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("simclock: non-positive ticker period")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	vt := &vtimer{
		at:     v.now.Add(d),
		period: d,
		ch:     make(chan time.Time, 1),
		seq:    v.seq,
	}
	v.seq++
	heap.Push(&v.timers, vt)
	return &Ticker{C: vt.ch, stop: func() { v.stopTimer(vt) }}
}

// Sleep implements Clock. It returns once another goroutine advances the
// clock past d.
func (v *Virtual) Sleep(d time.Duration) { <-v.After(d) }

// Advance moves the clock forward by d, firing due timers in order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	v.mu.Unlock()
	v.AdvanceTo(target)
}

// AdvanceTo moves the clock forward to t, firing due timers in order. Moving
// backwards is a no-op.
func (v *Virtual) AdvanceTo(t time.Time) {
	for {
		v.mu.Lock()
		if len(v.timers) == 0 || v.timers[0].at.After(t) {
			if t.After(v.now) {
				v.now = t
			}
			v.mu.Unlock()
			return
		}
		vt := v.timers[0]
		v.now = vt.at
		if vt.period > 0 {
			vt.at = vt.at.Add(vt.period)
			vt.seq = v.seq
			v.seq++
			heap.Fix(&v.timers, 0)
		} else {
			heap.Pop(&v.timers)
			vt.fired = true
		}
		ch, now := vt.ch, v.now
		v.mu.Unlock()
		// Tickers drop ticks when the buffer is full, matching
		// time.Ticker; one-shot timers always have buffer space.
		select {
		case ch <- now:
		default:
		}
	}
}

func (v *Virtual) stopTimer(vt *vtimer) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if vt.fired || vt.stopped {
		return false
	}
	vt.stopped = true
	for i, other := range v.timers {
		if other == vt {
			heap.Remove(&v.timers, i)
			break
		}
	}
	return true
}

type vtimer struct {
	at      time.Time
	period  time.Duration // 0 for one-shot timers
	ch      chan time.Time
	seq     int64
	fired   bool
	stopped bool
}

type timerHeap []*vtimer

// Len implements heap.Interface.
func (h timerHeap) Len() int { return len(h) }

// Less orders timers by deadline, then by arming sequence.
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

// Swap implements heap.Interface.
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *timerHeap) Push(x any) { *h = append(*h, x.(*vtimer)) }

// Pop implements heap.Interface.
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	vt := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return vt
}
