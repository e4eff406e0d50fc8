package runtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/registry"
	"repro/internal/simclock"
)

// viewDesign declares a panel taxonomy the controller discovers, and a
// pulse whose every beat runs the controller once.
const viewDesign = `
device Panel { attribute zone as String; attribute floor as String; action show(msg as String); }
device SubPanel extends Panel { action blink; }
device Sensor { attribute zone as String; source level as Integer; }
device Pulse { source beat as Integer; }
context Beat as Integer { when provided beat from Pulse always publish; }
controller Show {
	when provided Beat
	do show on Panel
	do blink on SubPanel;
}
`

type beatCtx struct{}

func (beatCtx) OnTrigger(call *ContextCall) (any, bool, error) { return call.Reading.Value, true, nil }

// ctrlJobs is a controller handler that runs one queued job per delivered
// value, so a test can run code where a ControllerCall is live.
type ctrlJobs struct {
	jobs chan func(*ControllerCall)
	done chan struct{}
}

func (c ctrlJobs) OnContext(call *ControllerCall) error {
	defer func() { c.done <- struct{}{} }()
	(<-c.jobs)(call)
	return nil
}

// viewHarness starts a runtime on viewDesign and returns it with a function
// that runs fn inside one OnContext of the Show clause. fn runs on the
// delivering goroutine, so it reports failures with t.Error and returns.
func viewHarness(tb testing.TB) (*Runtime, *simclock.Virtual, func(fn func(*ControllerCall))) {
	tb.Helper()
	vc := simclock.NewVirtual(hostEpoch)
	rt := New(dsl.MustLoad(viewDesign), WithClock(vc))
	tb.Cleanup(rt.Stop)
	pulse := device.NewBase("pulse", "Pulse", nil, nil, vc.Now)
	if err := rt.BindDevice(pulse); err != nil {
		tb.Fatal(err)
	}
	h := ctrlJobs{jobs: make(chan func(*ControllerCall)), done: make(chan struct{})}
	if err := rt.ImplementContext("Beat", beatCtx{}); err != nil {
		tb.Fatal(err)
	}
	if err := rt.ImplementController("Show", h); err != nil {
		tb.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		tb.Fatal(err)
	}
	return rt, vc, func(fn func(*ControllerCall)) {
		pulse.Emit("beat", 1)
		h.jobs <- fn
		<-h.done
	}
}

// registerPanels registers n driverless panels with zones z0..z(n-1), plus
// the given number of sensors, which discovery of a panel must skip.
func registerPanels(tb testing.TB, reg *registry.Registry, n, sensors int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		e := registry.Entity{ID: registry.ID(fmt.Sprintf("panel-%05d", i)), Kind: "Panel",
			Kinds: []string{"Panel"}, Attrs: registry.Attributes{"zone": fmt.Sprintf("z%d", i)}}
		if err := reg.Register(e); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < sensors; i++ {
		e := registry.Entity{ID: registry.ID(fmt.Sprintf("sensor-%05d", i)), Kind: "Sensor",
			Attrs: registry.Attributes{"zone": fmt.Sprintf("z%d", i%n)}}
		if err := reg.Register(e); err != nil {
			tb.Fatal(err)
		}
	}
}

// sameAsDiscover reports whether proxies hold exactly what a fresh Discover
// returns, in the same order: IDs, kinds, attributes, endpoint, origin.
func sameAsDiscover(t *testing.T, reg *registry.Registry, step string, kind string, where registry.Attributes, proxies []*ActuatorProxy) bool {
	t.Helper()
	want := reg.Discover(registry.Query{Kind: kind, Where: where})
	got := make([]registry.Entity, len(proxies))
	for i, p := range proxies {
		got[i] = p.entity
	}
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Errorf("%s: %s where %v:\n got %v\nwant %v", step, kind, where, got, want)
		return false
	}
	return true
}

// TestDevicesWhereMatchesDiscover is the discovery views' equivalence
// property: over a seeded script of registrations, updates, removals,
// changed and identical reclaims and a taxonomy subkind, every Devices and
// DevicesWhere result
// equals a fresh Registry.Discover. The where map is one map mutated between
// calls, as generated selectors do.
func TestDevicesWhereMatchesDiscover(t *testing.T) {
	rt, _, inCall := viewHarness(t)
	reg := rt.Registry()
	rng := rand.New(rand.NewSource(37))
	zones := []string{"z0", "z1", "z2"}
	entity := func(id string) registry.Entity {
		kind, kinds := "Panel", []string{"Panel"}
		if rng.Intn(3) == 0 {
			kind, kinds = "SubPanel", []string{"SubPanel", "Panel"}
		}
		e := registry.Entity{ID: registry.ID(id), Kind: kind, Kinds: kinds,
			Attrs: registry.Attributes{"zone": zones[rng.Intn(len(zones))], "floor": fmt.Sprint(rng.Intn(2))}}
		if rng.Intn(2) == 0 {
			e.Endpoint = "127.0.0.1:1"
		}
		return e
	}
	inCall(func(call *ControllerCall) {
		where := registry.Attributes{}
		check := func(step string) bool {
			for _, kind := range []string{"Panel", "SubPanel"} {
				same := func(where registry.Attributes, got []*ActuatorProxy, err error) bool {
					if err != nil {
						t.Error(err)
						return false
					}
					return sameAsDiscover(t, reg, step, kind, where, got)
				}
				if all, err := call.Devices(kind); !same(nil, all, err) {
					return false
				}
				for _, z := range zones {
					clear(where)
					where["zone"] = z
					if got, err := call.DevicesWhere(kind, where); !same(where, got, err) {
						return false
					}
					where["floor"] = "1"
					if got, err := call.DevicesWhere(kind, where); !same(where, got, err) {
						return false
					}
				}
			}
			return true
		}
		if !check("empty") {
			return
		}
		for step := 0; step < 400; step++ {
			id := fmt.Sprintf("p%02d", rng.Intn(16))
			cur, bound := reg.Get(registry.ID(id))
			var op string
			var err error
			switch r := rng.Intn(7); {
			case !bound:
				op = "register"
				err = reg.Register(entity(id))
			case r == 0 || r == 2:
				op = "update"
				e := entity(id)
				err = reg.Update(cur.ID, e.Attrs, e.Endpoint)
			case r == 1 || r == 3:
				op = "unregister"
				err = reg.Unregister(cur.ID)
			case r == 4:
				op = "reclaim-identical"
				err = reg.Reclaim(cur)
			case r == 5:
				op = "reclaim-changed"
				e := entity(id)
				e.Kind, e.Kinds = cur.Kind, cur.Kinds
				err = reg.Reclaim(e)
			default:
				op = "query-only"
			}
			if err != nil {
				t.Errorf("step %d %s %s: %v", step, op, id, err)
				return
			}
			if !check(fmt.Sprintf("step %d %s %s", step, op, id)) {
				return
			}
		}
	})
}

// TestDevicesWhereWarmAllocs pins the warm call: over an unchanged fleet,
// DevicesWhere of one panel among 100 panels and 1,000 sensors allocates
// only the returned slice.
func TestDevicesWhereWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rt, _, inCall := viewHarness(t)
	registerPanels(t, rt.Registry(), 100, 1000)
	inCall(func(call *ControllerCall) {
		where := registry.Attributes{"zone": "z42"}
		discover := func() {
			ps, err := call.DevicesWhere("Panel", where)
			if err != nil || len(ps) != 1 {
				t.Errorf("DevicesWhere = %d proxies, %v; want 1", len(ps), err)
			}
		}
		discover()
		n := testing.AllocsPerRun(100, discover)
		t.Logf("warm DevicesWhere: %.1f allocs", n)
		if n > 1 {
			t.Errorf("warm DevicesWhere: %.1f allocs, want <= 1", n)
		}
	})
}

// TestDevicesRetentionBound: a kind larger than the retention bound is
// discovered correctly and not retained, and many small distinct views stay
// within the bound.
func TestDevicesRetentionBound(t *testing.T) {
	rt, _, inCall := viewHarness(t)
	registerPanels(t, rt.Registry(), maxViewProxies+10, 0)
	inCall(func(call *ControllerCall) {
		small := registry.Attributes{"zone": "z1"}
		if _, err := call.DevicesWhere("Panel", small); err != nil {
			t.Error(err)
			return
		}
		all, err := call.Devices("Panel")
		if err != nil {
			t.Error(err)
			return
		}
		if !sameAsDiscover(t, rt.Registry(), "oversized", "Panel", nil, all) {
			return
		}
		if _, ok := call.views.byKey[string(viewKey(nil, "Panel", nil))]; ok {
			t.Errorf("a %d-proxy result was retained past the bound %d", len(all), maxViewProxies)
		}
		if _, ok := call.views.byKey[string(viewKey(nil, "Panel", small))]; !ok {
			t.Errorf("an uncached oversized result dropped the other views")
		}
		for i := 0; i < 2*maxViewProxies; i++ {
			if _, err := call.DevicesWhere("Panel", registry.Attributes{"zone": fmt.Sprintf("z%d", i)}); err != nil {
				t.Error(err)
				return
			}
			if call.views.retained > maxViewProxies {
				t.Errorf("after %d views: %d retained, bound %d", i+1, call.views.retained, maxViewProxies)
				return
			}
		}
	})
}

// TestDevicesWhereResultIsCallers: sorting or appending to a result leaves
// the next call's result unchanged.
func TestDevicesWhereResultIsCallers(t *testing.T) {
	rt, _, inCall := viewHarness(t)
	registerPanels(t, rt.Registry(), 10, 0)
	ids := func(ps []*ActuatorProxy) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.ID()
		}
		return out
	}
	var want, got []string
	inCall(func(call *ControllerCall) {
		first, err := call.Devices("Panel")
		if err != nil {
			t.Error(err)
			return
		}
		want = ids(first)
		slices.Reverse(first)
		grown := append(first[:3], first[0])
		slices.Reverse(grown)
		second, err := call.Devices("Panel")
		if err != nil {
			t.Error(err)
			return
		}
		got = ids(second)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("after the caller reordered its result, the next call = %v, want %v", got, want)
	}
}

// TestDevicesWhereConcurrent: a handler may discover and actuate from
// goroutines it joins, while the fleet changes under them. Run with -race.
func TestDevicesWhereConcurrent(t *testing.T) {
	rt, _, inCall := viewHarness(t)
	var mu sync.Mutex
	shown := map[string]int{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("panel-%d", i)
		p := device.NewBase(id, "Panel", nil, registry.Attributes{"zone": fmt.Sprintf("z%d", i%2)}, nil)
		p.OnAction("show", func(...any) error { mu.Lock(); shown[id]++; mu.Unlock(); return nil })
		if err := rt.BindDevice(p); err != nil {
			t.Fatal(err)
		}
	}
	const workers, calls = 8, 50
	inCall(func(call *ControllerCall) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					if w == 0 {
						// Move the generation so the others rebuild.
						e := registry.Entity{ID: "extra", Kind: "Panel", Attrs: registry.Attributes{"zone": "z9"}}
						if err := rt.Registry().Register(e); err != nil {
							t.Error(err)
						}
						rt.Registry().Unregister("extra")
					}
					ps, err := call.DevicesWhere("Panel", registry.Attributes{"zone": fmt.Sprintf("z%d", w%2)})
					if err != nil || len(ps) != 2 {
						t.Errorf("worker %d: %d proxies, %v; want 2", w, len(ps), err)
						return
					}
					for _, p := range ps {
						if err := p.Invoke("show", "x"); err != nil {
							t.Error(err)
						}
					}
				}
			}()
		}
		wg.Wait()
	})
	mu.Lock()
	defer mu.Unlock()
	for id, n := range shown {
		if n != workers/2*calls {
			t.Errorf("%s shown %d times, want %d", id, n, workers/2*calls)
		}
	}
	if len(shown) != 4 {
		t.Errorf("%d panels shown, want 4", len(shown))
	}
}
