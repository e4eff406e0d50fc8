package devsim

import (
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/simclock"
)

// recordingSink collects pushed readings.
type recordingSink struct {
	mu       sync.Mutex
	readings []device.Reading
}

func (s *recordingSink) Push(r device.Reading) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readings = append(s.readings, r)
}

func (s *recordingSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.readings)
}

func newChurnTestSwarm(n int) *Swarm {
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC))
	return NewSwarm(SwarmConfig{Sensors: n, Lots: []string{"L00", "L01"}, Seed: 7}, vc)
}

func TestSwarmPushSubscribe(t *testing.T) {
	s := newChurnTestSwarm(4)
	sink := &recordingSink{}
	sensor := s.Sensors()[1]

	if _, err := sensor.SubscribePush("nope", sink); err == nil {
		t.Fatal("unknown source accepted")
	}
	cancel, err := sensor.SubscribePush("presence", sink)
	if err != nil {
		t.Fatal(err)
	}
	second := &recordingSink{}
	cancelSecond, err := sensor.SubscribePush("presence", second)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Attached(1) || s.AttachedCount() != 1 {
		t.Fatalf("attach bookkeeping: attached(1)=%v count=%d, want one sensor counted once", s.Attached(1), s.AttachedCount())
	}
	if !s.Flip(1) {
		t.Fatal("flip with attached sink not accepted")
	}
	if got, got2 := sink.count(), second.count(); got != 1 || got2 != 1 {
		t.Fatalf("sinks got %d and %d readings, want 1 each", got, got2)
	}
	cancelSecond()
	if s.Flip(0) {
		t.Fatal("flip of unattached sensor accepted")
	}
	cancel()
	cancel() // idempotent
	if s.Attached(1) || s.AttachedCount() != 0 {
		t.Fatal("cancel did not detach")
	}
	if s.Flip(1) {
		t.Fatal("flip after cancel accepted")
	}
	if got := sink.count(); got != 1 {
		t.Fatalf("sink grew after cancel: %d", got)
	}
}

// churnHarness wires ChurnHooks that attach a shared sink on bind and
// detach it on unbind, mimicking the runtime's tracker.
type churnHarness struct {
	sink *recordingSink

	mu      sync.Mutex
	cancels map[string]func()
	binds   int
	unbinds int
}

func (h *churnHarness) hooks() ChurnHooks {
	return ChurnHooks{
		Bind: func(s *SwarmSensor) error {
			cancel, err := s.SubscribePush("presence", h.sink)
			if err != nil {
				return err
			}
			h.mu.Lock()
			h.cancels[s.ID()] = cancel
			h.binds++
			h.mu.Unlock()
			return nil
		},
		Unbind: func(id string) error {
			h.mu.Lock()
			cancel := h.cancels[id]
			delete(h.cancels, id)
			h.unbinds++
			h.mu.Unlock()
			if cancel != nil {
				cancel()
			}
			return nil
		},
	}
}

func TestChurnSwarmGroundTruth(t *testing.T) {
	const n = 10
	s := newChurnTestSwarm(n)
	h := &churnHarness{sink: &recordingSink{}, cancels: map[string]func(){}}
	cs, err := NewChurnSwarm(s, h.hooks())
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.BindAll(); err != nil {
		t.Fatal(err)
	}
	if !cs.Settled() {
		t.Fatal("not settled after BindAll")
	}
	if got := cs.LiveCount(); got != n {
		t.Fatalf("live = %d, want %d", got, n)
	}

	if got := cs.StormLive(25); got != 25 {
		t.Fatalf("storm accepted %d, want 25", got)
	}
	if got := cs.Expected(); got != 25 {
		t.Fatalf("expected = %d, want 25", got)
	}
	if got := h.sink.count(); got != 25 {
		t.Fatalf("sink got %d, want 25", got)
	}

	if err := cs.Churn(4, false); err != nil {
		t.Fatal(err)
	}
	if !cs.Settled() {
		t.Fatal("not settled after synchronous churn")
	}
	in, out := cs.Churned()
	if in != uint64(n+4) || out != 4 {
		t.Fatalf("churned in/out = %d/%d, want %d/4", in, out, n+4)
	}
	// All sensors are live again (4 rotated out, 4 rotated back in), so a
	// dead storm has nothing to flip and nothing may be accepted.
	if got := cs.StormDead(4); got != 0 {
		t.Fatalf("dead storm accepted %d readings", got)
	}
	if err := cs.ChurnOut(3, false); err != nil {
		t.Fatal(err)
	}
	if got := cs.LiveCount(); got != n-3 {
		t.Fatalf("live after churn-out = %d, want %d", got, n-3)
	}
	if got := cs.StormDead(3); got != 0 {
		t.Fatalf("storm on churned-out sensors accepted %d readings", got)
	}
	if got := cs.Forbidden(); got != 0 {
		t.Fatalf("forbidden = %d, want 0", got)
	}
	before := h.sink.count()
	if got := cs.StormLive(n - 3); got != n-3 {
		t.Fatalf("live storm accepted %d, want %d", got, n-3)
	}
	if got := h.sink.count(); got != before+(n-3) {
		t.Fatalf("sink got %d, want %d", got, before+(n-3))
	}
	if got, want := cs.Expected(), uint64(25+n-3); got != want {
		t.Fatalf("expected = %d, want %d", got, want)
	}
}

// TestChurnSwarmLeaseMode checks that viaLease churn leaves unregistration
// to the lease: the Unbind hook is never called for leased departures, and
// Settled turns true only after the (simulated) expiry detaches the sink.
func TestChurnSwarmLeaseMode(t *testing.T) {
	const n = 6
	s := newChurnTestSwarm(n)
	h := &churnHarness{sink: &recordingSink{}, cancels: map[string]func(){}}
	cs, err := NewChurnSwarm(s, h.hooks())
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.BindAll(); err != nil {
		t.Fatal(err)
	}
	if err := cs.ChurnOut(2, true); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	unbinds := h.unbinds
	h.mu.Unlock()
	if unbinds != 0 {
		t.Fatalf("lease churn called Unbind %d times", unbinds)
	}
	if cs.Settled() {
		t.Fatal("settled while leases have not lapsed")
	}
	// Simulate the expiry: the registry would drop the entities and the
	// tracker detach the sinks — here the harness does it directly.
	for _, id := range []string{s.Sensors()[0].ID(), s.Sensors()[1].ID()} {
		h.mu.Lock()
		cancel := h.cancels[id]
		delete(h.cancels, id)
		h.mu.Unlock()
		cancel()
	}
	if !cs.Settled() {
		t.Fatal("not settled after lease lapse")
	}
	if got := cs.StormDead(2); got != 0 {
		t.Fatalf("expired sensors accepted %d readings", got)
	}
}
