package runtime_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

const snapDesign = `
device S { source v as Integer; }
context C as Integer { when periodic v from S <1 min> always publish; }
`

func mkSnapSensor(id string, vc *simclock.Virtual) *device.Base {
	d := device.NewBase(id, "S", nil, nil, vc.Now)
	d.OnQuery("v", func() (any, error) { return 1, nil })
	return d
}

// advanceRound moves time one period and waits for the round's publication
// to land, returning the published fleet size.
func advanceRound(t *testing.T, rt *runtime.Runtime, vc *simclock.Virtual) int {
	t.Helper()
	before := rt.Stats().ContextPublishes
	vc.Advance(time.Minute)
	waitFor(t, "round published", func() bool {
		return rt.Stats().ContextPublishes > before
	})
	v, ok := rt.LastPublished("C")
	if !ok {
		t.Fatal("nothing published")
	}
	return v.(int)
}

// A steady-state fleet must be polled from the cached snapshot: the
// registry is scanned once, then ticks reuse it — PollSnapshotRebuilds
// stays constant while PeriodicPolls grows.
func TestPollSteadyStateReusesSnapshot(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(dsl.MustLoad(snapDesign), runtime.WithClock(vc))
	defer rt.Stop()
	for i := 0; i < 20; i++ {
		if err := rt.BindDevice(mkSnapSensor(fmt.Sprintf("s%02d", i), vc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.ImplementContext("C", funcContext(func(call *runtime.ContextCall) (any, bool, error) {
		return len(call.Readings), true, nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if got := advanceRound(t, rt, vc); got != 20 {
			t.Fatalf("round %d polled %d devices, want 20", i, got)
		}
	}
	st := rt.Stats()
	if st.PeriodicPolls < 5 {
		t.Fatalf("PeriodicPolls = %d", st.PeriodicPolls)
	}
	if st.PollSnapshotRebuilds != 1 {
		t.Fatalf("PollSnapshotRebuilds = %d, want 1 (steady state must not rescan)", st.PollSnapshotRebuilds)
	}
	if st.Errors != 0 {
		t.Fatalf("Errors = %d", st.Errors)
	}
}

// Devices bound or unbound mid-run must appear in (or vanish from) the very
// next polling round.
func TestPollSnapshotInvalidatedByBindUnbind(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(dsl.MustLoad(snapDesign), runtime.WithClock(vc))
	defer rt.Stop()
	if err := rt.BindDevice(mkSnapSensor("s00", vc)); err != nil {
		t.Fatal(err)
	}
	if err := rt.ImplementContext("C", funcContext(func(call *runtime.ContextCall) (any, bool, error) {
		return len(call.Readings), true, nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if got := advanceRound(t, rt, vc); got != 1 {
		t.Fatalf("initial round polled %d, want 1", got)
	}

	if err := rt.BindDevice(mkSnapSensor("s01", vc)); err != nil {
		t.Fatal(err)
	}
	if got := advanceRound(t, rt, vc); got != 2 {
		t.Fatalf("round after bind polled %d, want 2", got)
	}

	if err := rt.UnbindDevice("s00"); err != nil {
		t.Fatal(err)
	}
	if got := advanceRound(t, rt, vc); got != 1 {
		t.Fatalf("round after unbind polled %d, want 1", got)
	}
	if st := rt.Stats(); st.PollSnapshotRebuilds != 3 {
		t.Fatalf("PollSnapshotRebuilds = %d, want 3 (one per fleet change)", st.PollSnapshotRebuilds)
	}
}

// A remote fleet is polled through the endpoint-batched path; an entity
// unregistered mid-run must vanish from the next round.
func TestPollSnapshotRemoteFleetFollowsUnregister(t *testing.T) {
	srv, err := transport.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(dsl.MustLoad(snapDesign), runtime.WithClock(vc))
	defer rt.Stop()

	const fleet = 8
	for i := 0; i < fleet; i++ {
		d := mkSnapSensor(fmt.Sprintf("r%02d", i), vc)
		srv.Host(d)
		if err := rt.Registry().Register(d.Entity(srv.Addr())); err != nil {
			t.Fatal(err)
		}
	}

	if err := rt.ImplementContext("C", funcContext(func(call *runtime.ContextCall) (any, bool, error) {
		return len(call.Readings), true, nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}

	if got := advanceRound(t, rt, vc); got != fleet {
		t.Fatalf("remote round polled %d, want %d", got, fleet)
	}
	// The generation read inside the next poll must observe the removal and
	// shrink the fleet.
	if err := rt.Registry().Unregister("r00"); err != nil {
		t.Fatal(err)
	}
	if got := advanceRound(t, rt, vc); got != fleet-1 {
		t.Fatalf("round after unregister polled %d, want %d", got, fleet-1)
	}
	if st := rt.Stats(); st.Errors != 0 {
		t.Fatalf("Errors = %d", st.Errors)
	}
}

// Re-registering a device of the trigger kind concurrently with polling must
// be race-clean and converge to the final fleet (exercised under -race).
func TestPollSnapshotConcurrentChurn(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(dsl.MustLoad(snapDesign), runtime.WithClock(vc))
	defer rt.Stop()
	for i := 0; i < 10; i++ {
		if err := rt.BindDevice(mkSnapSensor(fmt.Sprintf("s%02d", i), vc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.ImplementContext("C", funcContext(func(call *runtime.ContextCall) (any, bool, error) {
		return len(call.Readings), true, nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			id := fmt.Sprintf("churn%02d", i)
			if err := rt.BindDevice(mkSnapSensor(id, vc)); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := rt.UnbindDevice(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 10; i++ {
		advanceRound(t, rt, vc)
	}
	<-done
	// With churn finished, the next round must reflect the final fleet:
	// 10 originals + 10 surviving churn devices.
	if got := advanceRound(t, rt, vc); got != 20 {
		t.Fatalf("final round polled %d, want 20", got)
	}
}
