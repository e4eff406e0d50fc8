package runtime_test

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// Stop must close transport clients dialed for remote devices and leave no
// goroutines pumping readings.
func TestStopClosesRemoteClients(t *testing.T) {
	srv, err := transport.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	vc := simclock.NewVirtual(epoch)
	model := dsl.MustLoad(`
device S { source v as Integer; }
context C as Integer { when periodic v from S <1 min> always publish; }
`)
	rt := runtime.New(model, runtime.WithClock(vc))
	reg := rt.Registry()

	sensor := device.NewBase("rs-1", "S", nil, nil, vc.Now)
	sensor.OnQuery("v", func() (any, error) { return 1, nil })
	srv.Host(sensor)
	if err := reg.Register(sensor.Entity(srv.Addr())); err != nil {
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
	before := rt.Stats().PeriodicPolls
	vc.Advance(time.Minute)
	waitFor(t, "remote poll", func() bool { return rt.Stats().PeriodicPolls > before })
	waitFor(t, "publication", func() bool {
		v, ok := rt.LastPublished("C")
		return ok && v.(int) == 1
	})
	rt.Stop()
	// After Stop the runtime must not poll again even if time advances.
	polls := rt.Stats().PeriodicPolls
	vc.Advance(10 * time.Minute)
	time.Sleep(10 * time.Millisecond)
	if got := rt.Stats().PeriodicPolls; got != polls {
		t.Fatalf("polls after Stop: %d -> %d", polls, got)
	}
}

// A periodic design with no bound devices must poll without dispatching
// empty work and without errors.
func TestPeriodicWithEmptyFleet(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	model := dsl.MustLoad(`
device S { source v as Integer; }
context C as Integer { when periodic v from S <1 min> always publish; }
`)
	rt := runtime.New(model, runtime.WithClock(vc))
	defer rt.Stop()
	published := 0
	if err := rt.ImplementContext("C", funcContext(func(call *runtime.ContextCall) (any, bool, error) {
		published++
		return len(call.Readings), true, nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	before := rt.Stats().PeriodicPolls
	vc.Advance(time.Minute)
	waitFor(t, "poll", func() bool { return rt.Stats().PeriodicPolls > before })
	waitFor(t, "empty publication", func() bool {
		v, ok := rt.LastPublished("C")
		return ok && v.(int) == 0
	})
	if st := rt.Stats(); st.Errors != 0 {
		t.Fatalf("errors = %d", st.Errors)
	}
}
