package runtime_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/mapreduce"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// vacancyAggHandler is the canonical combinable aggregate: count vacant
// readings per zone (map filters occupied, reduce counts, combine sums,
// uncombine subtracts). It records every delivered aggregate.
type vacancyAggHandler struct {
	mu       sync.Mutex
	last     map[string]int
	triggers int
	readings int // triggers that carried a reading
}

func (h *vacancyAggHandler) Map(zone string, v any, emit func(string, any)) {
	if !v.(bool) {
		emit(zone, true)
	}
}
func (h *vacancyAggHandler) Reduce(zone string, vs []any, emit func(string, any)) {
	emit(zone, len(vs))
}
func (h *vacancyAggHandler) Combine(_ string, a, b any) any   { return a.(int) + b.(int) }
func (h *vacancyAggHandler) Uncombine(_ string, a, v any) any { return a.(int) - v.(int) }

func (h *vacancyAggHandler) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	// The aggregate is engine-owned and valid only during the call: copy.
	snap := make(map[string]int, len(call.GroupedReduced))
	for k, v := range call.GroupedReduced {
		snap[k] = v.(int)
	}
	h.mu.Lock()
	h.last = snap
	h.triggers++
	if call.Reading != nil {
		h.readings++
	}
	h.mu.Unlock()
	return snap, true, nil
}

func (h *vacancyAggHandler) snapshot() (map[string]int, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := make(map[string]int, len(h.last))
	for k, v := range h.last {
		cp[k] = v
	}
	return cp, h.triggers
}

const periodicAggDesign = `
device S { attribute zone as String; source occupied as Boolean; }
context Vacancy as Integer {
	when periodic occupied from S <1 min>
	grouped by zone
	with map as Boolean reduce as Integer
	always publish;
}
`

// aggWorld is a small periodic world over mutable simulated sensors.
type aggWorld struct {
	rt *runtime.Runtime
	vc *simclock.Virtual
	h  *vacancyAggHandler

	mu       sync.Mutex
	occupied map[string]bool
	zones    map[string]string
	failing  map[string]bool // devices whose query errors
}

func newAggWorld(t *testing.T, opts ...runtime.Option) *aggWorld {
	t.Helper()
	vc := simclock.NewVirtual(epoch)
	w := &aggWorld{
		vc:       vc,
		h:        &vacancyAggHandler{},
		occupied: make(map[string]bool),
		zones:    make(map[string]string),
		failing:  make(map[string]bool),
	}
	w.rt = runtime.New(dsl.MustLoad(periodicAggDesign), append([]runtime.Option{runtime.WithClock(vc)}, opts...)...)
	if err := w.rt.ImplementContext("Vacancy", w.h); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *aggWorld) bind(t *testing.T, id, zone string, occ bool) *device.Base {
	t.Helper()
	w.mu.Lock()
	w.occupied[id] = occ
	w.zones[id] = zone
	w.mu.Unlock()
	d := device.NewBase(id, "S", nil, registry.Attributes{"zone": zone}, w.vc.Now)
	d.OnQuery("occupied", func() (any, error) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.failing[id] {
			return nil, fmt.Errorf("%s: sensor fault", id)
		}
		return w.occupied[id], nil
	})
	if err := w.rt.BindDevice(d); err != nil {
		t.Fatal(err)
	}
	return d
}

func (w *aggWorld) set(id string, occ bool) {
	w.mu.Lock()
	w.occupied[id] = occ
	w.mu.Unlock()
}

// round advances one period and waits for the resulting delivery.
func (w *aggWorld) round(t *testing.T) {
	t.Helper()
	_, before := w.h.snapshot()
	w.vc.Advance(time.Minute)
	waitFor(t, "aggregate delivery", func() bool {
		_, n := w.h.snapshot()
		return n > before
	})
}

func (w *aggWorld) expect(t *testing.T, want map[string]int) {
	t.Helper()
	got, _ := w.h.snapshot()
	if len(got) != len(want) {
		t.Fatalf("aggregate = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("aggregate = %v, want %v", got, want)
		}
	}
}

// TestIncrementalPeriodicAggregate drives the delta-aware periodic path
// through value changes, a no-change round, and fleet churn, asserting the
// aggregate matches ground truth at every step and that clean groups are
// served from reuse (Stats.AggReuse) instead of re-reduction.
func TestIncrementalPeriodicAggregate(t *testing.T) {
	w := newAggWorld(t)
	// z0: s0..s4 (all vacant), z1: s5..s9 (all occupied but s5).
	ids := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"}
	for i, id := range ids {
		zone := "z0"
		occ := false
		if i >= 5 {
			zone = "z1"
			occ = i != 5
		}
		w.bind(t, id, zone, occ)
	}
	if err := w.rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.rt.Stop()

	w.round(t)
	w.expect(t, map[string]int{"z0": 5, "z1": 1})

	// No-change round: same aggregate, no dirty groups, reuse counted.
	st0 := w.rt.Stats()
	w.round(t)
	w.expect(t, map[string]int{"z0": 5, "z1": 1})
	st1 := w.rt.Stats()
	if d := st1.GroupsDirty - st0.GroupsDirty; d != 0 {
		t.Fatalf("no-change round dirtied %d groups", d)
	}
	if st1.AggReuse-st0.AggReuse != 2 {
		t.Fatalf("no-change round reused %d groups, want 2", st1.AggReuse-st0.AggReuse)
	}
	if st1.PollSnapshotRebuilds != st0.PollSnapshotRebuilds {
		t.Fatal("no-change round rebuilt the snapshot")
	}

	// One z0 sensor becomes occupied: only z0 re-reduces.
	w.set("s0", true)
	w.round(t)
	w.expect(t, map[string]int{"z0": 4, "z1": 1})
	st2 := w.rt.Stats()
	if d := st2.GroupsDirty - st1.GroupsDirty; d != 1 {
		t.Fatalf("single-zone change dirtied %d groups, want 1", d)
	}

	// The last vacant z1 sensor becomes occupied: z1 drops from the map.
	w.set("s5", true)
	w.round(t)
	w.expect(t, map[string]int{"z0": 4})

	// Fleet churn: unbinding a vacant z0 sensor rebuilds the snapshot,
	// resets the engine, and the aggregate still matches ground truth.
	if err := w.rt.UnbindDevice("s1"); err != nil {
		t.Fatal(err)
	}
	w.round(t)
	w.expect(t, map[string]int{"z0": 3})
	if w.rt.Stats().PollSnapshotRebuilds == st2.PollSnapshotRebuilds {
		t.Fatal("unbind did not rebuild the snapshot")
	}
}

// TestPeriodicRedialsRestartedEndpoint: a periodic round over a remote
// sensor whose endpoint went down and came back on the same address
// reaches it again. The round that meets the dead connection marks the
// poll snapshot incomplete, and the rebuild replaces the closed client
// with a new dial instead of reusing it.
func TestPeriodicRedialsRestartedEndpoint(t *testing.T) {
	w := newAggWorld(t)
	srv, err := transport.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	remote := device.NewBase("remote-1", "S", nil, registry.Attributes{"zone": "zr"}, w.vc.Now)
	remote.OnQuery("occupied", func() (any, error) { return false, nil })
	srv.Host(remote)
	if err := w.rt.Registry().Register(remote.Entity(addr)); err != nil {
		t.Fatal(err)
	}
	w.bind(t, "local-1", "zl", false)
	if err := w.rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.rt.Stop()
	w.round(t)
	w.expect(t, map[string]int{"zl": 1, "zr": 1})

	srv.Close()
	w.round(t) // the endpoint is down: its sensor drops out this round
	w.expect(t, map[string]int{"zl": 1})

	srv, err = transport.NewServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Host(remote)
	w.round(t)
	w.expect(t, map[string]int{"zl": 1, "zr": 1})
}

// TestIncrementalMatchesBatchAggregation drives the incremental path
// through value changes and asserts every published aggregate equals a
// batch mapreduce.RunSequential of the handler's phases over the round's
// ground-truth readings.
func TestIncrementalMatchesBatchAggregation(t *testing.T) {
	w := newAggWorld(t)
	w.bind(t, "a0", "za", false)
	w.bind(t, "a1", "za", false)
	w.bind(t, "b0", "zb", true)
	w.bind(t, "b1", "zb", false)
	if err := w.rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.rt.Stop()
	steps := []func(){
		func() {},
		func() { w.set("a0", true) },
		func() { w.set("b0", false); w.set("a1", true) },
		func() { w.set("a0", false) },
	}
	for _, step := range steps {
		step()
		w.round(t)
		w.mu.Lock()
		var in []mapreduce.Pair[string, any]
		for _, id := range []string{"a0", "a1", "b0", "b1"} {
			in = append(in, mapreduce.Pair[string, any]{Key: w.zones[id], Value: w.occupied[id]})
		}
		w.mu.Unlock()
		want := make(map[string]int)
		for _, p := range mapreduce.RunSequential(in, w.h.Map, w.h.Reduce) {
			want[p.Key] = p.Value.(int)
		}
		w.expect(t, want)
	}
}

// TestPeriodicFailureThenBindMatchesBatch drives the per-slot delta path
// through a device that stops answering (a removal by slot), answers again,
// and a registry bind between rounds (a snapshot rebuild and an engine
// reset), checking every published aggregate against a batch
// mapreduce.RunSequential over the devices that answered the round.
func TestPeriodicFailureThenBindMatchesBatch(t *testing.T) {
	w := newAggWorld(t)
	w.bind(t, "a0", "za", false)
	w.bind(t, "a1", "za", false)
	w.bind(t, "b0", "zb", false)
	w.bind(t, "b1", "zb", true)
	if err := w.rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.rt.Stop()
	fail := func(id string, on bool) {
		w.mu.Lock()
		w.failing[id] = on
		w.mu.Unlock()
	}
	unbind := func(id string) {
		if err := w.rt.UnbindDevice(id); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		delete(w.zones, id)
		w.mu.Unlock()
	}
	steps := []func(){
		func() {},
		func() { fail("a1", true) },
		func() { w.set("b1", false) },
		func() { fail("a1", false); w.set("a1", true) },
		func() { w.bind(t, "a2", "za", false) },
		func() { w.set("a0", true) },
		func() { unbind("b1") },
		func() { w.set("a0", false) },
		func() { fail("b0", true); w.bind(t, "b2", "zb", false) },
		func() { fail("b0", false) },
	}
	for i, step := range steps {
		step()
		w.round(t)
		w.mu.Lock()
		var ids []string
		for id := range w.zones {
			if !w.failing[id] {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		var in []mapreduce.Pair[string, any]
		for _, id := range ids {
			in = append(in, mapreduce.Pair[string, any]{Key: w.zones[id], Value: w.occupied[id]})
		}
		w.mu.Unlock()
		want := make(map[string]int)
		for _, p := range mapreduce.RunSequential(in, w.h.Map, w.h.Reduce) {
			want[p.Key] = p.Value.(int)
		}
		got, _ := w.h.snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: aggregate = %v, batch run = %v", i, got, want)
		}
	}
}

// TestIncrementalPeriodicRawGrouped covers `grouped by` without MapReduce
// on the incremental path: per-group raw value lists stay exact across
// changes, and emptied groups disappear.
func TestIncrementalPeriodicRawGrouped(t *testing.T) {
	model := dsl.MustLoad(`
device S { attribute zone as String; source level as Integer; }
context Levels as Integer {
	when periodic level from S <1 min>
	grouped by zone
	always publish;
}
`)
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(model, runtime.WithClock(vc))
	defer rt.Stop()
	var mu sync.Mutex
	levels := map[string]int{"s1": 1, "s2": 2, "s3": 30}
	mkDev := func(id, zone string) {
		d := device.NewBase(id, "S", nil, registry.Attributes{"zone": zone}, vc.Now)
		d.OnQuery("level", func() (any, error) {
			mu.Lock()
			defer mu.Unlock()
			return levels[id], nil
		})
		if err := rt.BindDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	mkDev("s1", "za")
	mkDev("s2", "za")
	mkDev("s3", "zb")
	var got map[string][]any
	var triggers int
	if err := rt.ImplementContext("Levels", funcContext(func(call *runtime.ContextCall) (any, bool, error) {
		mu.Lock()
		got = make(map[string][]any, len(call.Grouped))
		for k, vs := range call.Grouped {
			got[k] = append([]any(nil), vs...)
		}
		triggers++
		mu.Unlock()
		return len(call.Grouped), true, nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	round := func() {
		mu.Lock()
		before := triggers
		mu.Unlock()
		vc.Advance(time.Minute)
		waitFor(t, "grouped delivery", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return triggers > before
		})
	}
	round()
	mu.Lock()
	if len(got) != 2 || len(got["za"]) != 2 || len(got["zb"]) != 1 || got["zb"][0] != 30 {
		t.Fatalf("grouped = %v", got)
	}
	// Values arrive in device-id order.
	if got["za"][0] != 1 || got["za"][1] != 2 {
		t.Fatalf("za values = %v, want [1 2]", got["za"])
	}
	levels["s2"] = 20
	mu.Unlock()
	round()
	mu.Lock()
	if got["za"][1] != 20 || got["za"][0] != 1 {
		t.Fatalf("za after change = %v, want [1 20]", got["za"])
	}
	mu.Unlock()
}

const providedAggDesign = `
device S { attribute zone as String; source presence as Boolean; }
context Occupancy as Integer {
	when provided presence from S
	grouped by zone
	with map as Boolean reduce as Integer
	always publish;
}
`

// TestProvidedGroupedContinuousAggregate covers the event-driven grouped
// path: every delivered event updates a continuous per-group aggregate,
// departed devices drop out on the next reconcile, and the triggering
// reading rides along in the call.
func TestProvidedGroupedContinuousAggregate(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(dsl.MustLoad(providedAggDesign), runtime.WithClock(vc))
	defer rt.Stop()
	h := &vacancyAggHandler{}
	if err := rt.ImplementContext("Occupancy", h); err != nil {
		t.Fatal(err)
	}
	mk := func(id, zone string) *device.Base {
		d := device.NewBase(id, "S", nil, registry.Attributes{"zone": zone}, vc.Now)
		if err := rt.BindDevice(d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	s1 := mk("s1", "za")
	s2 := mk("s2", "za")
	s3 := mk("s3", "zb")
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}

	emit := func(d *device.Base, v bool, wantTriggers int) {
		d.Emit("presence", v)
		waitFor(t, "event delivery", func() bool {
			_, n := h.snapshot()
			return n >= wantTriggers
		})
	}
	emit(s1, false, 1) // za: 1 vacant
	emit(s2, false, 2) // za: 2
	emit(s3, false, 3) // zb: 1
	got, _ := h.snapshot()
	if got["za"] != 2 || got["zb"] != 1 {
		t.Fatalf("aggregate = %v, want za:2 zb:1", got)
	}
	emit(s1, true, 4) // s1 occupied: za back to 1
	got, _ = h.snapshot()
	if got["za"] != 1 {
		t.Fatalf("aggregate = %v, want za:1", got)
	}

	// s2 leaves the fleet: the watcher-driven reconcile retracts its
	// contribution and re-dispatches the aggregate without waiting for
	// another event.
	if err := rt.UnbindDevice("s2"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "retraction of s2's contribution", func() bool {
		got, _ := h.snapshot()
		_, live := got["za"]
		return !live && got["zb"] == 1
	})
}

// TestRemoteAggregateMergesPartials covers the agg_sync merge point:
// federation partials fold into the continuous aggregate alongside local
// events, replace on re-sync, and retract on removal; non-combinable
// consumers refuse the payload.
func TestRemoteAggregateMergesPartials(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(dsl.MustLoad(providedAggDesign), runtime.WithClock(vc))
	defer rt.Stop()
	h := &vacancyAggHandler{}
	if err := rt.ImplementContext("Occupancy", h); err != nil {
		t.Fatal(err)
	}
	d := device.NewBase("local-1", "S", nil, registry.Attributes{"zone": "za"}, vc.Now)
	if err := rt.BindDevice(d); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	d.Emit("presence", false)
	waitFor(t, "local event", func() bool { _, n := h.snapshot(); return n >= 1 })

	if n := rt.RemoteAggregate("S", "presence", "edge-1", []transport.GroupPartial{
		{Group: "za", Value: 7}, {Group: "zc", Value: 3},
	}); n != 1 {
		t.Fatalf("RemoteAggregate applied to %d interactions, want 1", n)
	}
	got, _ := h.snapshot()
	if got["za"] != 8 || got["zc"] != 3 {
		t.Fatalf("merged aggregate = %v, want za:8 zc:3", got)
	}
	if st := rt.Stats(); st.FederationAggPartialsIn != 2 {
		t.Fatalf("FederationAggPartialsIn = %d, want 2", st.FederationAggPartialsIn)
	}

	// Re-sync replaces the edge's partial; removal retracts it.
	rt.RemoteAggregate("S", "presence", "edge-1", []transport.GroupPartial{{Group: "za", Value: 2}})
	got, _ = h.snapshot()
	if got["za"] != 3 {
		t.Fatalf("re-synced aggregate = %v, want za:3", got)
	}
	rt.RemoteAggregate("S", "presence", "edge-1", []transport.GroupPartial{
		{Group: "za", Removed: true}, {Group: "zc", Removed: true},
	})
	got, _ = h.snapshot()
	if got["za"] != 1 {
		t.Fatalf("retracted aggregate = %v, want za:1", got)
	}
	if _, live := got["zc"]; live {
		t.Fatalf("retracted aggregate = %v, zc should be gone", got)
	}

	// Unknown (kind, source) is unrouted.
	if n := rt.RemoteAggregate("S", "nope", "edge-1", []transport.GroupPartial{{Group: "x", Value: 1}}); n != 0 {
		t.Fatalf("unrouted sync applied to %d interactions", n)
	}
}

// TestEveryWindowPartialFlushOnStop: a partially accumulated `every`
// window is delivered at Stop instead of being discarded.
func TestEveryWindowPartialFlushOnStop(t *testing.T) {
	model := dsl.MustLoad(`
device S { attribute zone as String; source level as Integer; }
context Agg as Integer { when periodic level from S <1 min> grouped by zone every <5 min> always publish; }
`)
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(model, runtime.WithClock(vc))
	d := device.NewBase("s1", "S", nil, registry.Attributes{"zone": "z"}, vc.Now)
	d.OnQuery("level", func() (any, error) { return 4, nil })
	if err := rt.BindDevice(d); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var windows [][]any
	if err := rt.ImplementContext("Agg", funcContext(func(call *runtime.ContextCall) (any, bool, error) {
		mu.Lock()
		windows = append(windows, append([]any(nil), call.Grouped["z"]...))
		mu.Unlock()
		return len(call.Grouped["z"]), false, nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Two of five ticks: the window is partial when Stop arrives.
	for i := 0; i < 2; i++ {
		before := rt.Stats().PeriodicPolls
		vc.Advance(time.Minute)
		waitFor(t, "poll", func() bool { return rt.Stats().PeriodicPolls > before })
	}
	rt.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(windows) != 1 || len(windows[0]) != 2 {
		t.Fatalf("windows = %v, want one partial window of 2 readings", windows)
	}
}

// windowRecorder records each delivered window as one map: the reduced
// value per group, or a copy of the group's raw value list.
type windowRecorder struct {
	mu      sync.Mutex
	windows []map[string]any
}

func (w *windowRecorder) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	got := make(map[string]any)
	for k, v := range call.GroupedReduced {
		got[k] = v
	}
	for k, vs := range call.Grouped {
		got[k] = append([]any(nil), vs...)
	}
	w.mu.Lock()
	w.windows = append(w.windows, got)
	w.mu.Unlock()
	return len(got), false, nil
}

func (w *windowRecorder) delivered() []map[string]any {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]map[string]any(nil), w.windows...)
}

func identityMap(k string, v any, emit func(string, any)) { emit(k, v) }

func listReduce(k string, vs []any, emit func(string, any)) { emit(k, vs) }

func sumInts(vs []any) int {
	s := 0
	for _, v := range vs {
		s += v.(int)
	}
	return s
}

// sumWindow is combinable; its Map drops levels divisible by 3, so some
// readings contribute to no group.
type sumWindow struct{ windowRecorder }

func (*sumWindow) Map(k string, v any, emit func(string, any)) {
	if v.(int)%3 != 0 {
		emit(k, v)
	}
}
func (*sumWindow) Reduce(k string, vs []any, emit func(string, any)) { emit(k, sumInts(vs)) }
func (*sumWindow) Combine(_ string, a, b any) any                    { return a.(int) + b.(int) }
func (*sumWindow) Uncombine(_ string, a, v any) any                  { return a.(int) - v.(int) }

// orderWindow is non-combinable and order-sensitive: a polynomial hash of
// the group's values in the order the reducer sees them.
type orderWindow struct{ windowRecorder }

func (*orderWindow) Map(k string, v any, emit func(string, any)) { identityMap(k, v, emit) }
func (*orderWindow) Reduce(k string, vs []any, emit func(string, any)) {
	h := 0
	for _, v := range vs {
		h = h*31 + v.(int)
	}
	emit(k, h)
}

// twiceWindow's Reduce emits twice for one key; the last emission wins.
type twiceWindow struct{ windowRecorder }

func (*twiceWindow) Map(k string, v any, emit func(string, any)) { identityMap(k, v, emit) }
func (*twiceWindow) Reduce(k string, vs []any, emit func(string, any)) {
	emit(k, len(vs))
	emit(k, sumInts(vs))
}

// TestEveryWindowMatchesBatchRun delivers `every` windows through the
// incremental engine and checks each against mapreduce.RunSequential over
// the window's readings in window order (tick-major, then device order):
// two full windows, then a partial one flushed by Stop.
func TestEveryWindowMatchesBatchRun(t *testing.T) {
	sum, order, twice, raw := &sumWindow{}, &orderWindow{}, &twiceWindow{}, &windowRecorder{}
	const mr = "with map as Integer reduce as Integer"
	cases := []struct {
		name   string
		clause string
		h      runtime.ContextHandler
		rec    *windowRecorder
		m      mapreduce.MapFunc[string, any, string, any]
		r      mapreduce.ReduceFunc[string, any, string, any]
	}{
		{"combinable-sum", mr, sum, &sum.windowRecorder, sum.Map, sum.Reduce},
		{"ordered-reduce", mr, order, &order.windowRecorder, order.Map, order.Reduce},
		{"raw-grouped", "", raw, raw, identityMap, listReduce},
		{"reduce-emits-twice", mr, twice, &twice.windowRecorder, twice.Map, twice.Reduce},
	}
	zone := func(i int) string { return []string{"za", "za", "za", "zb", "zb"}[i] }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vc := simclock.NewVirtual(epoch)
			rt := runtime.New(dsl.MustLoad(`
device S { attribute zone as String; source level as Integer; }
context Agg as Integer { when periodic level from S <1 min> grouped by zone every <3 min> `+tc.clause+` no publish; }
`), runtime.WithClock(vc))
			defer rt.Stop()
			// Device i answers its k-th query with 10k+i.
			for i := 0; i < 5; i++ {
				i, k := i, 0
				d := device.NewBase(fmt.Sprintf("s%d", i), "S", nil, registry.Attributes{"zone": zone(i)}, vc.Now)
				d.OnQuery("level", func() (any, error) { k++; return 10*k + i, nil })
				if err := rt.BindDevice(d); err != nil {
					t.Fatal(err)
				}
			}
			if err := rt.ImplementContext("Agg", tc.h); err != nil {
				t.Fatal(err)
			}
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			tick := func() {
				before := rt.Stats().PeriodicPolls
				vc.Advance(time.Minute)
				waitFor(t, "poll", func() bool { return rt.Stats().PeriodicPolls > before })
			}
			for i := 0; i < 6; i++ {
				tick()
			}
			waitFor(t, "two full windows", func() bool { return len(tc.rec.delivered()) == 2 })
			tick()
			tick()
			rt.Stop()

			got := tc.rec.delivered()
			windows := [][]int{{1, 2, 3}, {4, 5, 6}, {7, 8}}
			if len(got) != len(windows) {
				t.Fatalf("%d windows delivered, want %d", len(got), len(windows))
			}
			for w, ticks := range windows {
				var in []mapreduce.Pair[string, any]
				for _, k := range ticks {
					for i := 0; i < 5; i++ {
						in = append(in, mapreduce.Pair[string, any]{Key: zone(i), Value: 10*k + i})
					}
				}
				want := make(map[string]any)
				for _, p := range mapreduce.RunSequential(in, tc.m, tc.r) {
					want[p.Key] = p.Value
				}
				if !reflect.DeepEqual(got[w], want) {
					t.Fatalf("window %d = %v, want %v", w, got[w], want)
				}
			}
		})
	}
}

// TestWithPollWorkersConfiguresPool is a smoke test for the configurable
// poller pool: a single-worker pool still completes rounds correctly.
func TestWithPollWorkersConfiguresPool(t *testing.T) {
	w := newAggWorld(t, runtime.WithPollWorkers(1))
	w.bind(t, "s0", "z0", false)
	w.bind(t, "s1", "z0", false)
	w.bind(t, "s2", "z1", true)
	if err := w.rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.rt.Stop()
	w.round(t)
	w.expect(t, map[string]int{"z0": 2})
}

// TestProvidedGroupedPendingReadingAdopted: a reading that arrives before
// its device's registration is observed (a federation event_batch can
// outrun the registry delta sync) is parked and adopted into the aggregate
// when the registration lands — not silently dropped.
func TestProvidedGroupedPendingReadingAdopted(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(dsl.MustLoad(providedAggDesign), runtime.WithClock(vc))
	defer rt.Stop()
	h := &vacancyAggHandler{}
	if err := rt.ImplementContext("Occupancy", h); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}

	// A forwarded reading for a device this runtime has never seen: the
	// ingestion pipeline admits it (RemoteIngest routes by kind+source),
	// but the aggregate cannot yet resolve its group.
	n := rt.RemoteIngest("S", "presence", 1, []device.Reading{
		{DeviceID: "mirror-1", Source: "presence", Value: false, Time: vc.Now()},
	})
	if n != 1 {
		t.Fatalf("RemoteIngest admitted %d, want 1", n)
	}
	// Give the pipeline time to deliver; the aggregate must stay empty
	// (unknown devices are parked, not folded).
	time.Sleep(20 * time.Millisecond)
	if got, _ := h.snapshot(); len(got) != 0 {
		t.Fatalf("unregistered device folded into aggregate: %v", got)
	}

	// The registration arrives (as a mirror entry, the federation shape);
	// the watcher adopts the parked reading and dispatches.
	if err := rt.Registry().Register(registry.Entity{
		ID: "mirror-1", Kind: "S", Kinds: []string{"S"},
		Attrs: registry.Attributes{"zone": "za"}, Origin: "edge-1",
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pending reading adopted", func() bool {
		got, _ := h.snapshot()
		return got["za"] == 1
	})
	// The adopted reading counts as a delivery: consumers that hold
	// delivered + dropped == accepted see it, late, as a reading.
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.readings != 1 {
		t.Fatalf("%d deliveries carried a reading, want the adopted one", h.readings)
	}
}

// TestProvidedGroupedPendingDropsCounted: readings parked because their
// device's registration had not been observed are delivered or counted,
// never lost. Three readings of one mirror arrive before it is registered:
// the last is adopted, the two it superseded are drops. A second mirror is
// never registered, and its reading is still parked when the app stops.
// Past the parking bound a reading is refused. Each reading admitted from
// the peer is delivered or in Stats.Drops().
func TestProvidedGroupedPendingDropsCounted(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(dsl.MustLoad(providedAggDesign), runtime.WithClock(vc))
	defer rt.Stop()
	h := &vacancyAggHandler{}
	if err := rt.ImplementContext("Occupancy", h); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	at := vc.Now()
	early := []device.Reading{
		{DeviceID: "mirror-1", Source: "presence", Value: true, Time: at},
		{DeviceID: "mirror-1", Source: "presence", Value: true, Time: at.Add(time.Second)},
		{DeviceID: "mirror-1", Source: "presence", Value: false, Time: at.Add(2 * time.Second)},
	}
	if n := rt.RemoteIngest("S", "presence", 1, early); n != len(early) {
		t.Fatalf("RemoteIngest admitted %d, want %d", n, len(early))
	}
	waitFor(t, "the superseded readings to be counted", func() bool { return rt.Stats().Drops() == 2 })
	if err := rt.Registry().Register(registry.Entity{
		ID: "mirror-1", Kind: "S", Kinds: []string{"S"},
		Attrs: registry.Attributes{"zone": "za"}, Origin: "edge-1",
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the latest reading adopted", func() bool {
		got, _ := h.snapshot()
		return got["za"] == 1
	})

	// 4,097 distinct unregistered senders: the first 4,096 park (the
	// bound), the last is refused.
	ghosts := make([]device.Reading, 4097)
	for i := range ghosts {
		ghosts[i] = device.Reading{DeviceID: fmt.Sprintf("ghost-%04d", i), Source: "presence", Value: true, Time: at}
	}
	if n := rt.RemoteIngest("S", "presence", 1, ghosts); n != len(ghosts) {
		t.Fatalf("RemoteIngest admitted %d, want %d", n, len(ghosts))
	}
	waitFor(t, "the reading past the bound to be counted", func() bool { return rt.Stats().Drops() == 3 })
	rt.Stop()

	st := rt.Stats()
	h.mu.Lock()
	delivered := uint64(h.readings)
	h.mu.Unlock()
	if delivered != 1 {
		t.Fatalf("%d deliveries carried a reading, want the adopted one", delivered)
	}
	if got, want := delivered+st.Drops(), st.FederationEventsIn; got != want || want != uint64(len(early)+len(ghosts)) {
		t.Fatalf("delivered %d + dropped %d = %d, want every one of the %d readings admitted",
			delivered, st.Drops(), got, want)
	}
	if st.AggPendingDrops != st.Drops() {
		t.Fatalf("AggPendingDrops = %d, Drops() = %d: no other row should move", st.AggPendingDrops, st.Drops())
	}
}
