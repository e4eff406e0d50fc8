package runtime_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/dsl/designs"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

var epoch = time.Date(2017, 6, 5, 8, 0, 0, 0, time.UTC)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ---- Cooker monitoring (paper Figures 3, 5, 7, 9): small scale ----

// cookerWorld wires the full cooker monitoring application against simulated
// devices and returns the pieces tests assert on.
type cookerWorld struct {
	rt       *runtime.Runtime
	vc       *simclock.Virtual
	clockDev *device.Base
	cooker   *device.Base
	prompter *device.Base

	mu          sync.Mutex
	consumption float64
	questions   []string
}

type alertCtx struct {
	threshold int
	onTicks   int
}

func (a *alertCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	v, err := call.QueryDeviceOne("Cooker", "consumption")
	if err != nil {
		return nil, false, err
	}
	if v.(float64) > 0 {
		a.onTicks++
	} else {
		a.onTicks = 0
	}
	if a.onTicks >= a.threshold {
		return a.onTicks, true, nil // cooker on too long
	}
	return nil, false, nil
}

type notifyCtrl struct{}

func (notifyCtrl) OnContext(call *runtime.ControllerCall) error {
	prompters, err := call.Devices("Prompter")
	if err != nil {
		return err
	}
	for _, p := range prompters {
		if err := p.Invoke("askQuestion",
			fmt.Sprintf("Cooker on for %v ticks. Turn it off?", call.Value)); err != nil {
			return err
		}
	}
	return nil
}

type remoteTurnOffCtx struct{}

func (remoteTurnOffCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	if call.Reading == nil || call.Reading.Value != "yes" {
		return nil, false, nil
	}
	v, err := call.QueryDeviceOne("Cooker", "consumption")
	if err != nil {
		return nil, false, err
	}
	if v.(float64) > 0 { // still on: confirm remote turn-off
		return true, true, nil
	}
	return nil, false, nil
}

type turnOffCtrl struct{}

func (turnOffCtrl) OnContext(call *runtime.ControllerCall) error {
	cookers, err := call.Devices("Cooker")
	if err != nil {
		return err
	}
	for _, c := range cookers {
		if err := c.Invoke("Off"); err != nil {
			return err
		}
	}
	return nil
}

func newCookerWorld(t *testing.T) *cookerWorld {
	t.Helper()
	w := &cookerWorld{vc: simclock.NewVirtual(epoch), consumption: 1500}
	model := dsl.MustLoad(designs.Cooker)
	w.rt = runtime.New(model, runtime.WithClock(w.vc))

	w.clockDev = device.NewBase("clock-1", "Clock", nil, nil, w.vc.Now)
	tick := 0
	w.clockDev.OnQuery("tickSecond", func() (any, error) { return tick, nil })

	w.cooker = device.NewBase("cooker-1", "Cooker", nil, nil, w.vc.Now)
	w.cooker.OnQuery("consumption", func() (any, error) {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.consumption, nil
	})
	w.cooker.OnAction("On", func(...any) error {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.consumption = 1500
		return nil
	})
	w.cooker.OnAction("Off", func(...any) error {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.consumption = 0
		return nil
	})

	w.prompter = device.NewBase("tv-1", "Prompter", nil, nil, w.vc.Now)
	w.prompter.OnAction("askQuestion", func(args ...any) error {
		w.mu.Lock()
		w.questions = append(w.questions, args[0].(string))
		w.mu.Unlock()
		return nil
	})

	for _, d := range []*device.Base{w.clockDev, w.cooker, w.prompter} {
		if err := w.rt.BindDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.rt.ImplementContext("Alert", &alertCtx{threshold: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.rt.ImplementController("Notify", notifyCtrl{}); err != nil {
		t.Fatal(err)
	}
	if err := w.rt.ImplementContext("RemoteTurnOff", remoteTurnOffCtx{}); err != nil {
		t.Fatal(err)
	}
	if err := w.rt.ImplementController("TurnOff", turnOffCtrl{}); err != nil {
		t.Fatal(err)
	}
	if err := w.rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.rt.Stop)
	return w
}

func (w *cookerWorld) questionCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.questions)
}

func (w *cookerWorld) cookerConsumption() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.consumption
}

func TestCookerChainAlertNotifies(t *testing.T) {
	w := newCookerWorld(t)
	// Three ticks with the cooker on reach the alert threshold.
	for i := 1; i <= 3; i++ {
		w.clockDev.Emit("tickSecond", i)
	}
	waitFor(t, "prompter question", func() bool { return w.questionCount() >= 1 })
	st := w.rt.Stats()
	if st.ContextTriggers < 3 || st.ControllerTriggers < 1 || st.Actuations < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if v, ok := w.rt.LastPublished("Alert"); !ok || v.(int) < 3 {
		t.Fatalf("Alert last published = %v, %v", v, ok)
	}
}

func TestCookerChainMaybePublishSuppressesBelowThreshold(t *testing.T) {
	w := newCookerWorld(t)
	w.clockDev.Emit("tickSecond", 1) // one tick: below threshold
	waitFor(t, "first trigger", func() bool { return w.rt.Stats().ContextTriggers >= 1 })
	if w.questionCount() != 0 {
		t.Fatal("Notify ran despite maybe-publish returning false")
	}
	if _, ok := w.rt.LastPublished("Alert"); ok {
		t.Fatal("Alert published below threshold")
	}
}

func TestCookerChainRemoteTurnOff(t *testing.T) {
	w := newCookerWorld(t)
	// The user answers "yes" on the prompter: the second functional chain
	// queries the cooker (still on) and turns it off.
	w.prompter.EmitIndexed("answer", "yes", "q1")
	waitFor(t, "cooker off", func() bool { return w.cookerConsumption() == 0 })
	if st := w.rt.Stats(); st.Actuations < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCookerChainAnswerNoLeavesCookerOn(t *testing.T) {
	w := newCookerWorld(t)
	w.prompter.EmitIndexed("answer", "no", "q1")
	waitFor(t, "trigger processed", func() bool { return w.rt.Stats().ContextTriggers >= 1 })
	if w.cookerConsumption() != 1500 {
		t.Fatal("cooker turned off despite 'no' answer")
	}
}

func TestCookerTurnOffSkippedWhenAlreadyOff(t *testing.T) {
	w := newCookerWorld(t)
	w.mu.Lock()
	w.consumption = 0
	w.mu.Unlock()
	w.prompter.EmitIndexed("answer", "yes", "q1")
	waitFor(t, "trigger processed", func() bool { return w.rt.Stats().ContextTriggers >= 1 })
	if st := w.rt.Stats(); st.Actuations != 0 {
		t.Fatalf("actuations = %d, want 0 (cooker already off)", st.Actuations)
	}
}

// ---- Parking management (paper Figures 4, 6, 8, 10, 11): large scale ----

type parkingAvailability struct{}

func (parkingAvailability) Map(lot string, v any, emit func(string, any)) {
	if !v.(bool) { // vacant space
		emit(lot, true)
	}
}

func (parkingAvailability) Reduce(lot string, vs []any, emit func(string, any)) {
	emit(lot, len(vs))
}

// Availability mirrors the paper's structure Availability.
type Availability struct {
	ParkingLot string
	Count      int
}

func (parkingAvailability) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	var out []Availability
	for _, lot := range runtime.GroupKeys(call.GroupedReduced) {
		out = append(out, Availability{ParkingLot: lot, Count: call.GroupedReduced[lot].(int)})
	}
	return out, true, nil
}

type usagePattern struct {
	mu   sync.Mutex
	hist map[string][]int
}

func (u *usagePattern) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for lot, vals := range call.Grouped {
		occupied := 0
		for _, v := range vals {
			if v.(bool) {
				occupied++
			}
		}
		u.hist[lot] = append(u.hist[lot], occupied)
	}
	return nil, false, nil // no publish
}

func (u *usagePattern) OnRequired(*runtime.ContextCall) (any, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make(map[string]string, len(u.hist))
	for lot, hs := range u.hist {
		level := "LOW"
		if len(hs) > 0 && hs[len(hs)-1] > 2 {
			level = "HIGH"
		}
		out[lot] = level
	}
	return out, nil
}

type averageOccupancy struct{}

func (averageOccupancy) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	out := make(map[string]float64)
	for lot, vals := range call.Grouped {
		occ := 0
		for _, v := range vals {
			if v.(bool) {
				occ++
			}
		}
		if len(vals) > 0 {
			out[lot] = float64(occ) / float64(len(vals))
		}
	}
	return out, true, nil
}

type parkingSuggestion struct{}

func (parkingSuggestion) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	patterns, err := call.QueryContext("ParkingUsagePattern")
	if err != nil {
		return nil, false, err
	}
	levels := patterns.(map[string]string)
	var best []string
	for _, av := range call.Value.([]Availability) {
		if av.Count > 0 && levels[av.ParkingLot] != "HIGH" {
			best = append(best, av.ParkingLot)
		}
	}
	return best, true, nil
}

type panelCtrl struct {
	attr string // which attribute carries the panel location
}

func (pc panelCtrl) OnContext(call *runtime.ControllerCall) error {
	switch v := call.Value.(type) {
	case []Availability:
		for _, av := range v {
			panels, err := call.DevicesWhere("ParkingEntrancePanel",
				registry.Attributes{pc.attr: av.ParkingLot})
			if err != nil {
				return err
			}
			for _, p := range panels {
				if err := p.Invoke("update", fmt.Sprintf("%d free", av.Count)); err != nil {
					return err
				}
			}
		}
	case []string:
		panels, err := call.Devices("CityEntrancePanel")
		if err != nil {
			return err
		}
		for _, p := range panels {
			if err := p.Invoke("update", strings.Join(v, ",")); err != nil {
				return err
			}
		}
	}
	return nil
}

type messengerCtrl struct{}

func (messengerCtrl) OnContext(call *runtime.ControllerCall) error {
	ms, err := call.Devices("Messenger")
	if err != nil {
		return err
	}
	for _, m := range ms {
		if err := m.Invoke("sendMessage", fmt.Sprintf("daily occupancy: %v", call.Value)); err != nil {
			return err
		}
	}
	return nil
}

type parkingWorld struct {
	rt *runtime.Runtime
	vc *simclock.Virtual

	mu       sync.Mutex
	occupied map[string]bool   // sensorID -> presence
	panels   map[string]string // panelID -> last status
	messages []string
}

func newParkingWorld(t *testing.T, sensorsPerLot int, lots []string) *parkingWorld {
	t.Helper()
	w := &parkingWorld{
		vc:       simclock.NewVirtual(epoch),
		occupied: make(map[string]bool),
		panels:   make(map[string]string),
	}
	model := dsl.MustLoad(designs.Parking)
	w.rt = runtime.New(model, runtime.WithClock(w.vc))

	for _, lot := range lots {
		lot := lot
		for i := 0; i < sensorsPerLot; i++ {
			id := fmt.Sprintf("sensor-%s-%d", lot, i)
			// Deterministic initial occupancy: even sensors occupied.
			w.occupied[id] = i%2 == 0
			s := device.NewBase(id, "PresenceSensor", nil,
				registry.Attributes{"parkingLot": lot}, w.vc.Now)
			s.OnQuery("presence", func() (any, error) {
				w.mu.Lock()
				defer w.mu.Unlock()
				return w.occupied[id], nil
			})
			if err := w.rt.BindDevice(s); err != nil {
				t.Fatal(err)
			}
		}
		panel := device.NewBase("panel-"+lot, "ParkingEntrancePanel",
			[]string{"ParkingEntrancePanel", "DisplayPanel"},
			registry.Attributes{"location": lot}, w.vc.Now)
		lotID := "panel-" + lot
		panel.OnAction("update", func(args ...any) error {
			w.mu.Lock()
			defer w.mu.Unlock()
			w.panels[lotID] = args[0].(string)
			return nil
		})
		if err := w.rt.BindDevice(panel); err != nil {
			t.Fatal(err)
		}
	}
	city := device.NewBase("citypanel-1", "CityEntrancePanel",
		[]string{"CityEntrancePanel", "DisplayPanel"},
		registry.Attributes{"location": "NORTH_EAST_14Y"}, w.vc.Now)
	city.OnAction("update", func(args ...any) error {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.panels["citypanel-1"] = args[0].(string)
		return nil
	})
	if err := w.rt.BindDevice(city); err != nil {
		t.Fatal(err)
	}
	msgr := device.NewBase("messenger-1", "Messenger", nil, nil, w.vc.Now)
	msgr.OnAction("sendMessage", func(args ...any) error {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.messages = append(w.messages, args[0].(string))
		return nil
	})
	if err := w.rt.BindDevice(msgr); err != nil {
		t.Fatal(err)
	}

	for name, h := range map[string]runtime.ContextHandler{
		"ParkingAvailability": parkingAvailability{},
		"ParkingUsagePattern": &usagePattern{hist: make(map[string][]int)},
		"AverageOccupancy":    averageOccupancy{},
		"ParkingSuggestion":   parkingSuggestion{},
	} {
		if err := w.rt.ImplementContext(name, h); err != nil {
			t.Fatal(err)
		}
	}
	for name, h := range map[string]runtime.ControllerHandler{
		"ParkingEntrancePanelController": panelCtrl{attr: "location"},
		"CityEntrancePanelController":    panelCtrl{attr: "location"},
		"MessengerController":            messengerCtrl{},
	} {
		if err := w.rt.ImplementController(name, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.rt.Stop)
	return w
}

// advancePeriods moves virtual time forward in 10-minute steps, waiting for
// the ParkingAvailability poll to complete each round so no ticks are lost.
func (w *parkingWorld) advancePeriods(t *testing.T, n int) {
	t.Helper()
	// Both 10-minute pollers (Availability, AverageOccupancy) plus the
	// hourly UsagePattern poller contribute counts; track total polls.
	for i := 0; i < n; i++ {
		before := w.rt.Stats().PeriodicPolls
		w.vc.Advance(10 * time.Minute)
		waitFor(t, "poll round", func() bool {
			return w.rt.Stats().PeriodicPolls >= before+2
		})
	}
}

func (w *parkingWorld) panelStatus(id string) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.panels[id]
}

func TestParkingAvailabilityMapReduce(t *testing.T) {
	lots := []string{"A22", "B16"}
	w := newParkingWorld(t, 6, lots) // 3 occupied, 3 vacant per lot
	w.advancePeriods(t, 1)
	waitFor(t, "availability publication", func() bool {
		_, ok := w.rt.LastPublished("ParkingAvailability")
		return ok
	})
	v, _ := w.rt.LastPublished("ParkingAvailability")
	avs := v.([]Availability)
	if len(avs) != 2 {
		t.Fatalf("availability = %v", avs)
	}
	for _, av := range avs {
		if av.Count != 3 {
			t.Fatalf("lot %s count = %d, want 3 vacant", av.ParkingLot, av.Count)
		}
	}
}

func TestParkingEntrancePanelsUpdated(t *testing.T) {
	w := newParkingWorld(t, 4, []string{"A22", "B16"}) // 2 vacant per lot
	w.advancePeriods(t, 1)
	waitFor(t, "panel updates", func() bool {
		return w.panelStatus("panel-A22") != "" && w.panelStatus("panel-B16") != ""
	})
	if got := w.panelStatus("panel-A22"); got != "2 free" {
		t.Fatalf("panel-A22 = %q, want \"2 free\"", got)
	}
}

func TestParkingSuggestionCombinesAvailabilityAndPatterns(t *testing.T) {
	w := newParkingWorld(t, 4, []string{"A22"})
	w.advancePeriods(t, 1)
	waitFor(t, "city panel", func() bool { return w.panelStatus("citypanel-1") != "" })
	if got := w.panelStatus("citypanel-1"); !strings.Contains(got, "A22") {
		t.Fatalf("city panel = %q, want suggestion containing A22", got)
	}
}

func TestOccupancyChangesPropagate(t *testing.T) {
	w := newParkingWorld(t, 4, []string{"A22"})
	w.advancePeriods(t, 1)
	waitFor(t, "initial panel", func() bool { return w.panelStatus("panel-A22") == "2 free" })

	// Every space frees up.
	w.mu.Lock()
	for id := range w.occupied {
		w.occupied[id] = false
	}
	w.mu.Unlock()
	w.advancePeriods(t, 1)
	waitFor(t, "updated panel", func() bool { return w.panelStatus("panel-A22") == "4 free" })
}

// ---- Runtime mechanics ----

func TestStartRequiresAllImplementations(t *testing.T) {
	model := dsl.MustLoad(designs.Cooker)
	rt := runtime.New(model)
	defer rt.Stop()
	err := rt.Start()
	if err == nil || !strings.Contains(err.Error(), "no implementation") {
		t.Fatalf("err = %v, want missing implementation", err)
	}
}

func TestBindDeviceValidatesKindAndAttributes(t *testing.T) {
	rt := runtime.New(dsl.MustLoad(designs.Parking))
	defer rt.Stop()
	alien := device.NewBase("x", "Toaster", nil, nil, nil)
	if err := rt.BindDevice(alien); err == nil {
		t.Fatal("undeclared kind accepted")
	}
	bad := device.NewBase("s", "PresenceSensor", nil,
		registry.Attributes{"color": "red"}, nil)
	if err := rt.BindDevice(bad); err == nil {
		t.Fatal("undeclared attribute accepted")
	}
}

func TestImplementValidatesDeclarations(t *testing.T) {
	rt := runtime.New(dsl.MustLoad(designs.Parking))
	defer rt.Stop()
	if err := rt.ImplementContext("Nope", parkingAvailability{}); err == nil {
		t.Fatal("unknown context accepted")
	}
	if err := rt.ImplementController("Nope", messengerCtrl{}); err == nil {
		t.Fatal("unknown controller accepted")
	}
	// ParkingAvailability declares map/reduce: a plain handler must be
	// rejected.
	if err := rt.ImplementContext("ParkingAvailability", averageOccupancy{}); err == nil ||
		!strings.Contains(err.Error(), "MapReducer") {
		t.Fatalf("err = %v, want MapReducer requirement", err)
	}
	// ParkingUsagePattern declares `when required`: handler must
	// implement RequiredHandler.
	if err := rt.ImplementContext("ParkingUsagePattern", averageOccupancy{}); err == nil ||
		!strings.Contains(err.Error(), "RequiredHandler") {
		t.Fatalf("err = %v, want RequiredHandler requirement", err)
	}
}

func TestRuntimeBindingAfterStart(t *testing.T) {
	w := newCookerWorld(t)
	// A second prompter appears at runtime; the answer chain must pick it
	// up dynamically (the paper's runtime binding).
	p2 := device.NewBase("tv-2", "Prompter", nil, nil, w.vc.Now)
	p2.OnAction("askQuestion", func(...any) error { return nil })
	if err := w.rt.BindDevice(p2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dynamic subscription", func() bool {
		// Emitting on the new device must reach RemoteTurnOff.
		p2.EmitIndexed("answer", "yes", "q9")
		return w.cookerConsumption() == 0
	})
}

func TestUnbindDeviceStopsDelivery(t *testing.T) {
	w := newCookerWorld(t)
	if err := w.rt.UnbindDevice("tv-1"); err != nil {
		t.Fatal(err)
	}
	// Give the watcher a moment to cancel the subscription.
	waitFor(t, "unbind visible", func() bool {
		return len(w.rt.Registry().Discover(registry.Query{Kind: "Prompter"})) == 0
	})
	time.Sleep(10 * time.Millisecond)
	base := w.rt.Stats().ContextTriggers
	w.prompter.EmitIndexed("answer", "yes", "q1")
	time.Sleep(20 * time.Millisecond)
	if got := w.rt.Stats().ContextTriggers; got != base {
		t.Fatalf("delivery after unbind: triggers %d -> %d", base, got)
	}
}

func TestControllerCannotInvokeUndeclaredAction(t *testing.T) {
	model := dsl.MustLoad(`
device Lamp { action powerOn; action powerOff; }
device Siren { action wail; }
context C as Integer { when provided heartbeat from Pulse always publish; }
device Pulse { source heartbeat as Integer; }
controller K { when provided C do powerOn on Lamp; }
`)
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(model, runtime.WithClock(vc))
	defer rt.Stop()

	lamp := device.NewBase("lamp-1", "Lamp", nil, nil, vc.Now)
	var lampOn bool
	var mu sync.Mutex
	lamp.OnAction("powerOn", func(...any) error { mu.Lock(); lampOn = true; mu.Unlock(); return nil })
	lamp.OnAction("powerOff", func(...any) error { return nil })
	pulse := device.NewBase("pulse-1", "Pulse", nil, nil, vc.Now)
	siren := device.NewBase("siren-1", "Siren", nil, nil, vc.Now)
	siren.OnAction("wail", func(...any) error { return nil })
	for _, d := range []*device.Base{lamp, pulse, siren} {
		if err := rt.BindDevice(d); err != nil {
			t.Fatal(err)
		}
	}

	violations := make(chan error, 4)
	if err := rt.ImplementContext("C", passThroughCtx{}); err != nil {
		t.Fatal(err)
	}
	err := rt.ImplementController("K", funcController(func(call *runtime.ControllerCall) error {
		// Undeclared device kind: discovery must fail.
		if _, err := call.Devices("Siren"); err == nil {
			violations <- errors.New("Siren discovery allowed")
		}
		lamps, err := call.Devices("Lamp")
		if err != nil {
			return err
		}
		// Undeclared action on a declared device must fail.
		if err := lamps[0].Invoke("powerOff"); err == nil {
			violations <- errors.New("undeclared action allowed")
		}
		// Wrong arity on declared action must fail.
		if err := lamps[0].Invoke("powerOn", "extra"); err == nil {
			violations <- errors.New("wrong arity allowed")
		}
		return lamps[0].Invoke("powerOn")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	pulse.Emit("heartbeat", 1)
	waitFor(t, "lamp actuated", func() bool { mu.Lock(); defer mu.Unlock(); return lampOn })
	close(violations)
	for v := range violations {
		t.Error(v)
	}
}

type passThroughCtx struct{}

func (passThroughCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	if call.Reading != nil {
		return call.Reading.Value, true, nil
	}
	return call.Value, true, nil
}

type funcController func(*runtime.ControllerCall) error

func (f funcController) OnContext(call *runtime.ControllerCall) error { return f(call) }

func TestContextCannotQueryUndeclaredGet(t *testing.T) {
	model := dsl.MustLoad(`
device D { source s as Integer; source hidden as Integer; }
context C as Integer { when provided s from D get s from D always publish; }
`)
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(model, runtime.WithClock(vc))
	defer rt.Stop()
	d := device.NewBase("d1", "D", nil, nil, vc.Now)
	d.OnQuery("s", func() (any, error) { return 7, nil })
	d.OnQuery("hidden", func() (any, error) { return 13, nil })
	if err := rt.BindDevice(d); err != nil {
		t.Fatal(err)
	}
	results := make(chan error, 1)
	err := rt.ImplementContext("C", funcContext(func(call *runtime.ContextCall) (any, bool, error) {
		if _, err := call.QueryDeviceOne("D", "hidden"); err == nil {
			results <- errors.New("undeclared get allowed")
		} else {
			results <- nil
		}
		v, err := call.QueryDeviceOne("D", "s")
		return v, true, err
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	d.Emit("s", 1)
	select {
	case err := <-results:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("context never triggered")
	}
}

type funcContext func(*runtime.ContextCall) (any, bool, error)

func (f funcContext) OnTrigger(call *runtime.ContextCall) (any, bool, error) { return f(call) }

func TestHandlerErrorsAreCountedAndReported(t *testing.T) {
	model := dsl.MustLoad(`
device D { source s as Integer; }
context C as Integer { when provided s from D always publish; }
`)
	vc := simclock.NewVirtual(epoch)
	var reported []runtime.ComponentError
	var mu sync.Mutex
	rt := runtime.New(model, runtime.WithClock(vc),
		runtime.WithErrorHandler(func(ce runtime.ComponentError) {
			mu.Lock()
			reported = append(reported, ce)
			mu.Unlock()
		}))
	defer rt.Stop()
	d := device.NewBase("d1", "D", nil, nil, vc.Now)
	if err := rt.BindDevice(d); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := rt.ImplementContext("C", funcContext(func(*runtime.ContextCall) (any, bool, error) {
		return nil, false, boom
	})); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	d.Emit("s", 1)
	waitFor(t, "error reported", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(reported) == 1
	})
	mu.Lock()
	ce := reported[0]
	mu.Unlock()
	if ce.Component != "C" || !errors.Is(ce.Err, boom) {
		t.Fatalf("reported = %+v", ce)
	}
	if !strings.Contains(ce.Error(), "component C") {
		t.Fatalf("Error() = %q", ce.Error())
	}
	if rt.Stats().Errors != 1 {
		t.Fatalf("Errors stat = %d", rt.Stats().Errors)
	}
}

func TestEveryWindowAggregatesAcrossPeriods(t *testing.T) {
	model := dsl.MustLoad(`
device S { attribute zone as String; source level as Integer; }
context Agg as Integer { when periodic level from S <1 min> grouped by zone every <3 min> always publish; }
`)
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(model, runtime.WithClock(vc))
	defer rt.Stop()
	d := device.NewBase("s1", "S", nil, registry.Attributes{"zone": "z"}, vc.Now)
	level := 0
	var mu sync.Mutex
	d.OnQuery("level", func() (any, error) {
		mu.Lock()
		defer mu.Unlock()
		level++
		return level, nil
	})
	if err := rt.BindDevice(d); err != nil {
		t.Fatal(err)
	}
	var batches [][]any
	if err := rt.ImplementContext("Agg", funcContext(func(call *runtime.ContextCall) (any, bool, error) {
		mu.Lock()
		batches = append(batches, call.Grouped["z"])
		mu.Unlock()
		return len(call.Grouped["z"]), true, nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		before := rt.Stats().PeriodicPolls
		vc.Advance(time.Minute)
		waitFor(t, "poll", func() bool { return rt.Stats().PeriodicPolls > before })
	}
	waitFor(t, "two windows", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(batches) >= 2
	})
	mu.Lock()
	defer mu.Unlock()
	if len(batches[0]) != 3 || len(batches[1]) != 3 {
		t.Fatalf("window sizes = %d, %d; want 3 readings each", len(batches[0]), len(batches[1]))
	}
	if batches[0][0] != 1 || batches[1][0] != 4 {
		t.Fatalf("window contents = %v, %v", batches[0], batches[1])
	}
}

func TestRemoteDeviceViaSharedRegistry(t *testing.T) {
	// The cooker runs in another process (a transport server); the
	// runtime discovers it through the shared registry and dials it.
	srv, err := transport.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	vc := simclock.NewVirtual(epoch)
	model := dsl.MustLoad(designs.Cooker)
	rt := runtime.New(model, runtime.WithClock(vc))
	defer rt.Stop()
	reg := rt.Registry()

	cooker := device.NewBase("cooker-remote", "Cooker", nil, nil, vc.Now)
	consumption := 900.0
	var mu sync.Mutex
	cooker.OnQuery("consumption", func() (any, error) {
		mu.Lock()
		defer mu.Unlock()
		return consumption, nil
	})
	cooker.OnAction("Off", func(...any) error {
		mu.Lock()
		defer mu.Unlock()
		consumption = 0
		return nil
	})
	cooker.OnAction("On", func(...any) error { return nil })
	srv.Host(cooker)
	if err := reg.Register(cooker.Entity(srv.Addr())); err != nil {
		t.Fatal(err)
	}

	clockDev := device.NewBase("clock-1", "Clock", nil, nil, vc.Now)
	prompter := device.NewBase("tv-1", "Prompter", nil, nil, vc.Now)
	prompter.OnAction("askQuestion", func(...any) error { return nil })
	if err := rt.BindDevice(clockDev); err != nil {
		t.Fatal(err)
	}
	if err := rt.BindDevice(prompter); err != nil {
		t.Fatal(err)
	}
	if err := rt.ImplementContext("Alert", &alertCtx{threshold: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rt.ImplementController("Notify", notifyCtrl{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.ImplementContext("RemoteTurnOff", remoteTurnOffCtx{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.ImplementController("TurnOff", turnOffCtrl{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Answer yes: RemoteTurnOff queries the REMOTE cooker, then TurnOff
	// actuates it over TCP.
	prompter.EmitIndexed("answer", "yes", "q1")
	waitFor(t, "remote cooker off", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return consumption == 0
	})
}

func TestStopIsIdempotentAndStopsPollers(t *testing.T) {
	w := newParkingWorld(t, 2, []string{"A22"})
	w.rt.Stop()
	w.rt.Stop()
	polls := w.rt.Stats().PeriodicPolls
	w.vc.Advance(time.Hour)
	time.Sleep(10 * time.Millisecond)
	if got := w.rt.Stats().PeriodicPolls; got != polls {
		t.Fatalf("polls after Stop: %d -> %d", polls, got)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	w := newCookerWorld(t)
	if err := w.rt.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
}

func TestStatsSnapshot(t *testing.T) {
	w := newCookerWorld(t)
	for i := 1; i <= 3; i++ {
		w.clockDev.Emit("tickSecond", i)
	}
	waitFor(t, "alert", func() bool { return w.questionCount() >= 1 })
	st := w.rt.Stats()
	if st.ContextPublishes < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAccessorsAndProxyMetadata(t *testing.T) {
	model := dsl.MustLoad(`
device Lamp { attribute room as String; action flash; }
device Pulse { source beat as Integer; }
context C as Integer { when provided beat from Pulse always publish; }
controller K { when provided C do flash on Lamp; }
`)
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(model, runtime.WithClock(vc))
	defer rt.Stop()
	if rt.Model() != model {
		t.Fatal("Model() wrong")
	}
	if rt.Clock() != simclock.Clock(vc) {
		t.Fatal("Clock() wrong")
	}
	lamp := device.NewBase("lamp-1", "Lamp", nil, registry.Attributes{"room": "hall"}, vc.Now)
	flashed := make(chan struct{}, 1)
	lamp.OnAction("flash", func(...any) error {
		select {
		case flashed <- struct{}{}:
		default:
		}
		return nil
	})
	pulse := device.NewBase("pulse-1", "Pulse", nil, nil, vc.Now)
	if err := rt.BindDevice(lamp); err != nil {
		t.Fatal(err)
	}
	if err := rt.BindDevice(pulse); err != nil {
		t.Fatal(err)
	}
	if err := rt.ImplementContext("C", passThroughCtx{}); err != nil {
		t.Fatal(err)
	}
	meta := make(chan [3]string, 1)
	err := rt.ImplementController("K", funcController(func(call *runtime.ControllerCall) error {
		lamps, err := call.Devices("Lamp")
		if err != nil {
			return err
		}
		p := lamps[0]
		select {
		case meta <- [3]string{p.ID(), p.Kind(), p.Attr("room")}:
		default:
		}
		return p.Invoke("flash")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	pulse.Emit("beat", 1)
	select {
	case <-flashed:
	case <-time.After(10 * time.Second):
		t.Fatal("never actuated")
	}
	got := <-meta
	if got != [3]string{"lamp-1", "Lamp", "hall"} {
		t.Fatalf("proxy metadata = %v", got)
	}
}
