package runtime

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/mapreduce"
	"repro/internal/registry"
	"repro/internal/simclock"
)

// roundVacancy is windowVacancy that signals every delivered round.
type roundVacancy struct {
	windowVacancy
	done chan struct{}
}

func (h roundVacancy) OnTrigger(*ContextCall) (any, bool, error) {
	h.done <- struct{}{}
	return nil, false, nil
}

// groupedRoundBound is what one steady-state grouped poll round may
// allocate, whatever the fleet size and change rate: the round hand-off to
// the pool, the bus event and the handler's call.
const groupedRoundBound = 8

// TestGroupedRoundAllocsIndependentOfFleet pins the values-only round and
// the per-slot engine handles: a steady-state grouped round allocates a
// small constant, at 1k and at 20k sensors, with no value changed and with
// a tenth of the fleet flipping between vacant and occupied (which moves
// inputs in and out of their groups).
func TestGroupedRoundAllocsIndependentOfFleet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, sensors := range []int{1000, 20000} {
		for _, pct := range []int{0, 10} {
			n := testing.AllocsPerRun(10, groupedRounds(t, sensors, pct))
			t.Logf("%d sensors, %d%% changed: %.1f allocs per round", sensors, pct, n)
			if n > groupedRoundBound {
				t.Errorf("%d sensors, %d%% changed: %.1f allocs per round, want <= %d", sensors, pct, n, groupedRoundBound)
			}
		}
	}
}

// BenchmarkGroupedPollRound times one steady-state grouped round at 50k
// sensors with a tenth of the fleet flipping, on the default query pool:
// poll, diff, engine upserts, flush and the handler call.
func BenchmarkGroupedPollRound(b *testing.B) {
	round := groupedRounds(b, 50000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// groupedRounds starts a runtime whose one interaction is a grouped
// periodic vacancy count over a swarm of sensors, and returns a function
// that flips pct percent of them and runs one round to its delivery. The
// virtual clock never advances, so only the returned function polls.
func groupedRounds(tb testing.TB, sensors, pct int) func() {
	tb.Helper()
	vc := simclock.NewVirtual(hostEpoch)
	rt := New(dsl.MustLoad(`
device S { attribute lot as String; source presence as Boolean; }
context Vacancy as Integer {
	when periodic presence from S <1 min> grouped by lot with map as Boolean reduce as Integer no publish;
}
`), WithClock(vc))
	tb.Cleanup(rt.Stop)
	h := roundVacancy{done: make(chan struct{})}
	if err := rt.ImplementContext("Vacancy", h); err != nil {
		tb.Fatal(err)
	}
	// 100 sensors per lot keeps every count below 256, which Go boxes
	// without allocating, so the count measures the round and not the
	// handler's arithmetic.
	lots := make([]string, sensors/100)
	for i := range lots {
		lots[i] = fmt.Sprintf("L%03d", i)
	}
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: lots, Kind: "S", Source: "presence", GroupAttr: "lot", Seed: 3,
	}, vc)
	for _, s := range swarm.Sensors() {
		if err := rt.BindDevice(s); err != nil {
			tb.Fatal(err)
		}
	}
	if err := rt.Start(); err != nil {
		tb.Fatal(err)
	}
	p := rt.pollers[0]
	round := func() {
		p.poll(vc.Now())
		<-h.done
	}
	occupied := make([]bool, sensors*pct/100)
	flipRound := func() {
		for i := range occupied {
			occupied[i] = !occupied[i]
			swarm.SetOccupied(i, occupied[i])
		}
		round()
	}
	// The first round rebuilds the snapshot and resets the engine; the
	// next two give every flipping sensor its group member once.
	round()
	flipRound()
	flipRound()
	return flipRound
}

// TestBlockingQueriesSpreadAcrossPool: drivers without a pre-resolved
// querier may block in Query (a link round trip, real I/O), so a round hands
// them to the pool one at a time. 64 drivers that each sleep for one query
// must finish in about ceil(64/workers) sleeps on the default pool, not in
// the 64 a single worker running a claim of them in a row would take.
func TestBlockingQueriesSpreadAcrossPool(t *testing.T) {
	const drivers, sleep = 64, 20 * time.Millisecond
	vc := simclock.NewVirtual(hostEpoch)
	rt := New(dsl.MustLoad(`
device S { attribute lot as String; source presence as Boolean; }
context Vacancy as Integer {
	when periodic presence from S <1 min> grouped by lot with map as Boolean reduce as Integer no publish;
}
`), WithClock(vc))
	defer rt.Stop()
	h := roundVacancy{done: make(chan struct{})}
	if err := rt.ImplementContext("Vacancy", h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < drivers; i++ {
		d := device.NewBase(fmt.Sprintf("s%02d", i), "S", nil, registry.Attributes{"lot": "L"}, vc.Now)
		d.OnQuery("presence", func() (any, error) {
			time.Sleep(sleep)
			return false, nil
		})
		if err := rt.BindDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	p := rt.pollers[0]
	start := time.Now()
	p.poll(vc.Now())
	<-h.done
	took := time.Since(start)
	if p.snap.claim != 1 {
		t.Errorf("claim = %d for drivers without a querier, want 1", p.snap.claim)
	}
	// ceil(64/32) = 2 sleeps on the default pool; allow 8x for a loaded
	// machine, still far below the 64 sleeps of a serial round.
	if limit := 16 * sleep; took > limit {
		t.Errorf("round over %d blocking drivers took %v, want < %v (serial: %v)", drivers, took, limit, drivers*sleep)
	}
}

// TestEvictedSilentDeviceLeavesNoRecord: a device whose last reading mapped
// to nothing contributes to no group but keeps an engine record; evicting
// it must drop that record too.
func TestEvictedSilentDeviceLeavesNoRecord(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	rt := New(dsl.MustLoad(`
device S { attribute zone as String; source presence as Boolean; }
context Occupancy as Integer {
	when provided presence from S grouped by zone with map as Boolean reduce as Integer no publish;
}
`), WithClock(vc))
	defer rt.Stop()
	if err := rt.ImplementContext("Occupancy", windowVacancy{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	ent := registry.Entity{ID: "s1", Kind: "S", Kinds: []string{"S"}, Attrs: registry.Attributes{"zone": "z"}, Origin: "edge"}
	if err := rt.Registry().Register(ent); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	pa := rt.aggByKey[ingestKey("S", "presence")][0]
	rt.mu.Unlock()
	locked := func(f func()) {
		pa.mu.Lock()
		defer pa.mu.Unlock()
		f()
	}
	waitUntil(t, "registration tracked", func() (ok bool) {
		locked(func() { _, ok = pa.groupOf["s1"] })
		return ok
	})
	// Occupied: the vacancy map emits nothing for it.
	if n := rt.RemoteIngest("S", "presence", []device.Reading{{DeviceID: "s1", Source: "presence", Value: true, Time: vc.Now()}}); n != 1 {
		t.Fatalf("RemoteIngest admitted %d, want 1", n)
	}
	waitUntil(t, "reading dispatched", func() bool { return rt.Stats().ContextTriggers >= 1 })
	var h *mapreduce.Handle[string, any]
	locked(func() {
		if pa.core.eng.Has("s1") {
			t.Error("an occupied reading contributes")
		}
		h = pa.core.eng.Input("s1")
	})
	if err := rt.Registry().Unregister("s1"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "departure applied", func() (gone bool) {
		locked(func() { _, tracked := pa.groupOf["s1"]; gone = !tracked })
		return gone
	})
	locked(func() {
		if pa.core.eng.Input("s1") == h {
			t.Error("evicted device left its engine record behind")
		}
	})
}
