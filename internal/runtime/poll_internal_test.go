package runtime

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/mapreduce"
	"repro/internal/registry"
	"repro/internal/simclock"
	"repro/internal/transport"
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
// the pool and the handler's call.
const groupedRoundBound = 8

// TestGroupedRoundAllocsIndependentOfFleet pins the values-only round and
// the per-slot engine handles: a steady-state grouped round allocates a
// small constant, at 1k and at 20k sensors, with no value changed and with
// a tenth of the fleet flipping between vacant and occupied (which moves
// inputs in and out of their groups). The second leg forces two GCs before
// each round and subtracts what two bare GCs allocate: the buffers a poller
// recycles must survive a collection, or a round after one rebuilds them.
func TestGroupedRoundAllocsIndependentOfFleet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	twoGCs := func() { goruntime.GC(); goruntime.GC() }
	gcAllocs := testing.AllocsPerRun(10, twoGCs)
	for _, sensors := range []int{1000, 20000} {
		for _, pct := range []int{0, 10} {
			round := groupedRounds(t, sensors, pct)
			n := testing.AllocsPerRun(10, round)
			t.Logf("%d sensors, %d%% changed: %.1f allocs per round", sensors, pct, n)
			if n > groupedRoundBound {
				t.Errorf("%d sensors, %d%% changed: %.1f allocs per round, want <= %d", sensors, pct, n, groupedRoundBound)
			}
			n = testing.AllocsPerRun(10, func() { twoGCs(); round() }) - gcAllocs
			t.Logf("%d sensors, %d%% changed, after two GCs: %.1f allocs per round", sensors, pct, n)
			if n > groupedRoundBound {
				t.Errorf("%d sensors, %d%% changed, after two GCs: %.1f allocs per round, want <= %d", sensors, pct, n, groupedRoundBound)
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
	_, round, flipRound := groupedWorld(tb, sensors, pct)
	// The first round rebuilds the snapshot and resets the engine; the
	// next two give every flipping sensor its group member once.
	round()
	flipRound()
	flipRound()
	return flipRound
}

// groupedWorld starts groupedRounds' runtime and returns its poller, a
// function that runs one round to its delivery, and one that flips pct
// percent of the sensors first.
func groupedWorld(tb testing.TB, sensors, pct int) (*poller, func(), func()) {
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
	return p, round, flipRound
}

// TestOutBufferRetention: the reset round's buffer holds the whole fleet,
// and once a 10% delta round has carried it, no spare buffer may keep that
// capacity.
func TestOutBufferRetention(t *testing.T) {
	const sensors = 2000
	p, round, flipRound := groupedWorld(t, sensors, 10)
	round()
	waitUntil(t, "reset round recycled", func() bool { return len(p.spare) == 1 })
	flipRound()
	// Stopping the poller empties the hand-off: run closes the queue and the
	// dispatch worker returns every buffer before it exits.
	p.stop()
	p.rt.wg.Wait()
	for len(p.spare) > 0 {
		if n := cap((<-p.spare).readings); n >= sensors {
			t.Errorf("a spare out buffer keeps %d readings of capacity after a %d-reading round; fleet is %d",
				n, sensors/10, sensors)
		}
	}
}

// gatedWindows records the values of group "z" of every delivered window;
// every delivery waits on gate first.
type gatedWindows struct {
	gate    chan struct{}
	mu      sync.Mutex
	windows [][]any
}

func (h *gatedWindows) OnTrigger(call *ContextCall) (any, bool, error) {
	<-h.gate
	h.mu.Lock()
	h.windows = append(h.windows, slices.Clone(call.Grouped["z"]))
	h.mu.Unlock()
	return nil, false, nil
}

// TestStopDispatchesQueuedRounds: a handler parked on one `every` window
// leaves the windows closed after it queued on the poller's dispatch
// worker. Stop, and Host.Undeploy, must each return only after every queued
// window is dispatched in order, with the partial window last.
func TestStopDispatchesQueuedRounds(t *testing.T) {
	const design = `
device S { attribute zone as String; source v as Integer; }
context C as Integer { when periodic v from S <1 min> grouped by zone every <2 min> no publish; }
`
	for _, via := range []string{"Stop", "Undeploy"} {
		t.Run(via, func(t *testing.T) {
			vc := simclock.NewVirtual(hostEpoch)
			h := &gatedWindows{gate: make(chan struct{})}
			open := sync.OnceFunc(func() { close(h.gate) })
			defer open()
			var rt *Runtime
			var stop func()
			if via == "Stop" {
				rt = New(dsl.MustLoad(design), WithClock(vc))
				if err := rt.ImplementContext("C", h); err != nil {
					t.Fatal(err)
				}
				if err := rt.Start(); err != nil {
					t.Fatal(err)
				}
				stop = rt.Stop
			} else {
				host, err := NewHost(SubstrateConfig{Clock: vc})
				if err != nil {
					t.Fatal(err)
				}
				defer host.Close()
				if rt, err = host.Deploy("a", dsl.MustLoad(design), AppConfig{Contexts: map[string]ContextHandler{"C": h}}); err != nil {
					t.Fatal(err)
				}
				stop = func() {
					if err := host.Undeploy("a"); err != nil {
						t.Error(err)
					}
				}
			}
			// The device answers 1, 2, 3, … so the windows' values show
			// their order.
			var polled atomic.Int64
			d := device.NewBase("s1", "S", nil, registry.Attributes{"zone": "z"}, vc.Now)
			d.OnQuery("v", func() (any, error) { return int(polled.Add(1)), nil })
			if err := rt.BindDevice(d); err != nil {
				t.Fatal(err)
			}
			// Nine ticks close four windows: the first parks the handler and
			// three queue behind it. The fifth window holds one tick.
			for i := 0; i < 9; i++ {
				before := rt.Stats().PeriodicPolls
				vc.Advance(time.Minute)
				waitUntil(t, "poll", func() bool { return rt.Stats().PeriodicPolls > before })
			}
			if n := len(rt.pollers[0].queue); n != 3 {
				t.Fatalf("%d windows queued behind the parked handler, want 3", n)
			}
			done := make(chan struct{})
			go func() { stop(); close(done) }()
			select {
			case <-done:
				t.Fatalf("%s returned while the handler was parked", via)
			case <-time.After(50 * time.Millisecond):
			}
			open()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s did not return after the handler was released", via)
			}
			h.mu.Lock()
			defer h.mu.Unlock()
			want := [][]any{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9}}
			if fmt.Sprint(h.windows) != fmt.Sprint(want) {
				t.Fatalf("windows dispatched by the time %s returned: %v, want %v", via, h.windows, want)
			}
		})
	}
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
	if n := rt.RemoteIngest("S", "presence", 1, []device.Reading{{DeviceID: "s1", Source: "presence", Value: true, Time: vc.Now()}}); n != 1 {
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

// pullDesign declares one query-driven pull, `get v from S`, on an
// interaction nothing triggers: the pull tests call QueryDevice on a
// ContextCall of it directly.
const pullDesign = `
device S { attribute lot as String; source v as Float; }
device T { source tick as Integer; }
context C as Integer { when provided tick from T get v from S no publish; }
`

// pullCall starts a runtime on pullDesign, with bind run between New and
// Start, and returns a ContextCall of its one interaction.
func pullCall(tb testing.TB, bind func(rt *Runtime)) (*Runtime, *ContextCall) {
	tb.Helper()
	vc := simclock.NewVirtual(hostEpoch)
	rt := New(dsl.MustLoad(pullDesign), WithClock(vc))
	tb.Cleanup(rt.Stop)
	if err := rt.ImplementContext("C", &recHandler{}); err != nil {
		tb.Fatal(err)
	}
	bind(rt)
	if err := rt.Start(); err != nil {
		tb.Fatal(err)
	}
	return rt, &ContextCall{ContextName: "C", Interaction: rt.model.Contexts["C"].Interactions[0], rt: rt}
}

// pullSensor is a device of kind S answering v with its index, boxed once
// so a query allocates nothing of its own.
func pullSensor(i int) *device.Base {
	d := device.NewBase(fmt.Sprintf("s%05d", i), "S", nil, registry.Attributes{"lot": fmt.Sprintf("L%02d", i%10)}, nil)
	v := any(float64(i))
	d.OnQuery("v", func() (any, error) { return v, nil })
	return d
}

// checkPull asserts one pull answered devices want, in ID order, each with
// its value and a copy of its attributes.
func checkPull(t *testing.T, vs []SourceValue, err error, want []int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(want) {
		t.Fatalf("pull answered %d devices, want %d", len(vs), len(want))
	}
	for k, i := range want {
		v := vs[k]
		if v.DeviceID != fmt.Sprintf("s%05d", i) || v.Value != float64(i) || v.Attrs["lot"] != fmt.Sprintf("L%02d", i%10) {
			t.Fatalf("answer %d = %+v, want device %d", k, v, i)
		}
	}
}

// pullRemoteDevices is the fleet of the remote pull test, all behind one
// endpoint: one `query` per device would be 5,000 round trips.
const pullRemoteDevices = 5000

// TestPullRemoteFleetBatched: a query-driven pull over a remote fleet rides
// the poller's endpoint batches. A warm pull over 5,000 devices behind one
// server sends at most 16 B per device on the runtime's cached client: one
// query_batch per remoteBatchChunk devices, not one query each (27 B per
// device for this fleet).
func TestPullRemoteFleetBatched(t *testing.T) {
	srv, err := transport.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	want := make([]int, pullRemoteDevices)
	rt, call := pullCall(t, func(rt *Runtime) {
		for i := range want {
			d := pullSensor(i)
			srv.Host(d)
			if err := rt.Registry().Register(d.Entity(srv.Addr())); err != nil {
				t.Fatal(err)
			}
			want[i] = i
		}
	})
	vs, err := call.QueryDevice("S", "v")
	checkPull(t, vs, err, want)
	rt.mu.Lock()
	cli := rt.clients[srv.Addr()]
	rt.mu.Unlock()
	before, start := cli.BytesSent(), time.Now()
	vs, err = call.QueryDevice("S", "v")
	took := time.Since(start)
	checkPull(t, vs, err, want)
	perDevice := float64(cli.BytesSent()-before) / pullRemoteDevices
	t.Logf("warm pull over %d remote devices: %.1f B sent per device, %v", pullRemoteDevices, perDevice, took)
	if perDevice > 16 {
		t.Errorf("warm pull sent %.1f B per device, want <= 16 (one query_batch per %d devices)", perDevice, remoteBatchChunk)
	}
	if st := rt.Stats(); st.Errors != 0 || st.PollSnapshotRebuilds != 0 {
		t.Errorf("errors = %d, poll_snapshot_rebuilds = %d after two pulls, want 0 and 0", st.Errors, st.PollSnapshotRebuilds)
	}
}

// TestPullReusesSnapshot: a pull over an unchanged fleet answers from the
// site's snapshot without rescanning the registry; a bind of the pulled
// kind forces a rebuild on the next pull, and a bind of another kind does
// not.
func TestPullReusesSnapshot(t *testing.T) {
	rt, call := pullCall(t, func(rt *Runtime) {
		for i := 0; i < 3; i++ {
			if err := rt.BindDevice(pullSensor(i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	site := rt.pullSites[call.Interaction.Gets[0]]
	vs, err := call.QueryDevice("S", "v")
	checkPull(t, vs, err, []int{0, 1, 2})
	first := site.snap
	vs, err = call.QueryDevice("S", "v")
	checkPull(t, vs, err, []int{0, 1, 2})
	if site.snap != first {
		t.Fatal("a pull over an unchanged fleet rebuilt the site's snapshot")
	}
	if err := rt.BindDevice(device.NewBase("t1", "T", nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
	vs, err = call.QueryDevice("S", "v")
	checkPull(t, vs, err, []int{0, 1, 2})
	if site.snap != first {
		t.Fatal("a bind of another kind rebuilt the site's snapshot")
	}
	if err := rt.BindDevice(pullSensor(3)); err != nil {
		t.Fatal(err)
	}
	vs, err = call.QueryDevice("S", "v")
	checkPull(t, vs, err, []int{0, 1, 2, 3})
	if site.snap == first {
		t.Fatal("a bind of the pulled kind did not rebuild the site's snapshot")
	}
	vs[0].Attrs["lot"] = "mutated"
	vs, err = call.QueryDevice("S", "v")
	checkPull(t, vs, err, []int{0, 1, 2, 3})
	if st := rt.Stats(); st.PollSnapshotRebuilds != 0 {
		t.Errorf("poll_snapshot_rebuilds = %d after pulls, want 0 (it counts poller rebuilds only)", st.PollSnapshotRebuilds)
	}
}

// TestPullMixedFleetOrderAndErrors: local and remote answers interleave in
// device ID order, and a pull's failures go to the caller, never to the
// runtime's error handler: an unreachable endpoint fails the pull only
// when no device answered.
func TestPullMixedFleetOrderAndErrors(t *testing.T) {
	srv, err := transport.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dead, err := transport.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	var reported atomic.Uint64
	vc := simclock.NewVirtual(hostEpoch)
	rt := New(dsl.MustLoad(pullDesign), WithClock(vc), WithErrorHandler(func(ComponentError) { reported.Add(1) }))
	defer rt.Stop()
	if err := rt.ImplementContext("C", &recHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	call := &ContextCall{ContextName: "C", Interaction: rt.model.Contexts["C"].Interactions[0], rt: rt}

	unreachable := pullSensor(9)
	if err := rt.Registry().Register(unreachable.Entity(deadAddr)); err != nil {
		t.Fatal(err)
	}
	if vs, err := call.QueryDevice("S", "v"); err == nil || len(vs) != 0 {
		t.Fatalf("pull over an unreachable fleet = %v, %v; want the dial error", vs, err)
	}
	for i := 0; i < 6; i++ {
		d := pullSensor(i)
		if i%2 == 0 {
			err = rt.BindDevice(d)
		} else {
			srv.Host(d)
			err = rt.Registry().Register(d.Entity(srv.Addr()))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	vs, err := call.QueryDevice("S", "v")
	checkPull(t, vs, err, []int{0, 1, 2, 3, 4, 5})
	if n := reported.Load(); n != 0 {
		t.Errorf("pull failures reached the error handler %d times, want 0", n)
	}
}

// pullLocalDevices and pullAllocBound: a warm pull over 5,000 local
// devices allocates the result slice and one attribute copy per device.
// The bound is what a per-call scan, clone, sort and per-device loop
// allocates for this fleet.
const (
	pullLocalDevices = 5000
	pullAllocBound   = 10020
)

// TestPullAllocs pins allocations per warm local pull.
func TestPullAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	_, call := pullCall(t, func(rt *Runtime) {
		for i := 0; i < pullLocalDevices; i++ {
			if err := rt.BindDevice(pullSensor(i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	var err error
	n := testing.AllocsPerRun(10, func() {
		var vs []SourceValue
		if vs, err = call.QueryDevice("S", "v"); err == nil && len(vs) != pullLocalDevices {
			err = fmt.Errorf("pull answered %d devices", len(vs))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm pull over %d local devices: %.0f allocs", pullLocalDevices, n)
	if n > pullAllocBound {
		t.Errorf("warm pull allocates %.0f, want <= %d", n, pullAllocBound)
	}
}

// TestPullConcurrent: pulls of one site from several goroutines while the
// pulled kind churns stay race-clean, each answering in ID order.
func TestPullConcurrent(t *testing.T) {
	rt, call := pullCall(t, func(rt *Runtime) {
		for i := 0; i < 8; i++ {
			if err := rt.BindDevice(pullSensor(i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				vs, err := call.QueryDevice("S", "v")
				if err != nil || len(vs) < 8 || !slices.IsSortedFunc(vs, func(a, b SourceValue) int { return strings.Compare(a.DeviceID, b.DeviceID) }) {
					t.Errorf("concurrent pull = %d answers, %v; want >= 8 in ID order", len(vs), err)
					return
				}
			}
		}()
	}
	for i := 8; i < 28; i++ {
		if err := rt.BindDevice(pullSensor(i)); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}
