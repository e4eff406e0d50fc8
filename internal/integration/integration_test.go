// Package integration_test exercises cross-module scenarios: failure
// injection through lossy links and QoS deadlines, fleet churn against periodic
// discovery, and fully distributed deployments where sensor fleets live
// behind TCP servers — the situations the paper's large-scale orchestration
// targets.
package integration_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/dsl/designs"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

var epoch = time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC)

// lotDesign is a cut-down parking design: one periodic grouped context and
// one panel controller — enough to drive the full delivery path without the
// unrelated contexts.
const lotDesign = `
device PresenceSensor {
	attribute parkingLot as String;
	source presence as Boolean;
}
device DisplayPanel {
	attribute location as String;
	action update(status as String);
}
context Availability as Integer {
	when periodic presence from PresenceSensor <10 min>
	grouped by parkingLot
	always publish;
}
controller Panels {
	when provided Availability
	do update on DisplayPanel;
}
`

type availabilityCtx struct{}

func (availabilityCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	free := make(map[string]int)
	for lot, vals := range call.Grouped {
		for _, v := range vals {
			if !v.(bool) {
				free[lot]++
			}
		}
	}
	return free, true, nil
}

type panelsCtrl struct{}

func (panelsCtrl) OnContext(call *runtime.ControllerCall) error {
	free := call.Value.(map[string]int)
	for lot, n := range free {
		panels, err := call.DevicesWhere("DisplayPanel", registry.Attributes{"location": lot})
		if err != nil {
			return err
		}
		for _, p := range panels {
			if err := p.Invoke("update", fmt.Sprintf("%d free", n)); err != nil {
				return err
			}
		}
	}
	return nil
}

func sensorDriver(id, lot string, present bool, now func() time.Time) *device.Base {
	s := device.NewBase(id, "PresenceSensor", nil, registry.Attributes{"parkingLot": lot}, now)
	s.OnQuery("presence", func() (any, error) { return present, nil })
	return s
}

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

func advanceOnePeriod(t *testing.T, app *runtime.Runtime, vc *simclock.Virtual) {
	t.Helper()
	before := app.Stats().PeriodicPolls
	vc.Advance(10 * time.Minute)
	waitFor(t, "poll round", func() bool { return app.Stats().PeriodicPolls > before })
}

// newLotApp builds the cut-down app with n sensors (half occupied) and one
// panel, optionally wrapping each sensor driver.
func newLotApp(t *testing.T, n int, wrap func(device.Driver, int) device.Driver) (*runtime.Runtime, *simclock.Virtual, *device.Base) {
	t.Helper()
	vc := simclock.NewVirtual(epoch)
	app := runtime.New(dsl.MustLoad(lotDesign), runtime.WithClock(vc))
	t.Cleanup(app.Stop)
	for i := 0; i < n; i++ {
		var drv device.Driver = sensorDriver(fmt.Sprintf("s%03d", i), "A22", i%2 == 0, vc.Now)
		if wrap != nil {
			drv = wrap(drv, i)
		}
		if err := app.BindDevice(drv); err != nil {
			t.Fatal(err)
		}
	}
	panel := device.NewBase("panel-A22", "DisplayPanel", nil,
		registry.Attributes{"location": "A22"}, vc.Now)
	panel.OnAction("update", func(...any) error { return nil })
	if err := app.BindDevice(panel); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementContext("Availability", availabilityCtx{}); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementController("Panels", panelsCtrl{}); err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	return app, vc, panel
}

func TestHealthyFleetBaseline(t *testing.T) {
	app, vc, _ := newLotApp(t, 20, nil)
	advanceOnePeriod(t, app, vc)
	waitFor(t, "publication", func() bool {
		v, ok := app.LastPublished("Availability")
		return ok && v.(map[string]int)["A22"] == 10
	})
	if st := app.Stats(); st.Errors != 0 {
		t.Fatalf("errors = %d", st.Errors)
	}
}

// Failure injection: a quarter of the fleet fails every query; the
// application keeps publishing from the surviving sensors and the failures
// are surfaced through the error counter — the paper's device-failure
// dimension (§VI).
func TestFaultInjectedFleetDegradesGracefully(t *testing.T) {
	links := make([]*transport.Link, 0, 5)
	app, vc, _ := newLotApp(t, 20, func(d device.Driver, i int) device.Driver {
		if i%4 != 0 {
			return d
		}
		l := transport.NewLink(d, transport.LinkProfile{LossRate: 1}) // 5 sensors always fail
		links = append(links, l)
		return l
	})
	advanceOnePeriod(t, app, vc)
	waitFor(t, "publication", func() bool {
		_, ok := app.LastPublished("Availability")
		return ok
	})
	v, _ := app.LastPublished("Availability")
	// 15 surviving sensors: ids 1,2,3,5,6,7,9,… — 7 even ids failed?
	// ids 0,4,8,12,16 fail (occupied, even): survivors are 15 sensors of
	// which free (odd ids) are 10.
	free := v.(map[string]int)["A22"]
	if free != 10 {
		t.Fatalf("free = %d, want 10 from surviving sensors", free)
	}
	if st := app.Stats(); st.Errors == 0 {
		t.Fatal("injected faults not surfaced in Stats.Errors")
	}
	total := uint64(0)
	for _, l := range links {
		_, lost := l.Stats()
		total += lost
	}
	if total == 0 {
		t.Fatal("no faults injected; test vacuous")
	}
}

// Fleet churn: sensors leaving between periods shrink the next round's
// reading set; sensors joining grow it (runtime binding, paper §IV).
func TestFleetChurnAcrossPeriods(t *testing.T) {
	app, vc, _ := newLotApp(t, 10, nil)
	advanceOnePeriod(t, app, vc)
	waitFor(t, "first publication", func() bool {
		v, ok := app.LastPublished("Availability")
		return ok && v.(map[string]int)["A22"] == 5
	})

	// 4 sensors go away (2 free, 2 occupied), 2 new free ones arrive.
	for i := 0; i < 4; i++ {
		if err := app.UnbindDevice(fmt.Sprintf("s%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 100; i < 102; i++ {
		if err := app.BindDevice(sensorDriver(fmt.Sprintf("s%03d", i), "A22", false, vc.Now)); err != nil {
			t.Fatal(err)
		}
	}
	advanceOnePeriod(t, app, vc)
	waitFor(t, "post-churn publication", func() bool {
		v, ok := app.LastPublished("Availability")
		// Before churn: sensors 0..9, free = odd ids = 5. After: ids
		// 4..9 (free 5,7,9 = 3) plus two new free = 5... recompute:
		// removed 0,1,2,3 (0,2 occupied; 1,3 free) → remaining free =
		// 5,7,9 = 3; adding 2 free → 5.
		return ok && v.(map[string]int)["A22"] == 5
	})
	// Ground truth cross-check via the registry.
	if n := len(app.Registry().Discover(registry.Query{Kind: "PresenceSensor"})); n != 8 {
		t.Fatalf("fleet size after churn = %d, want 8", n)
	}
}

// Distributed deployment: two sensor sites run behind TCP servers; the
// orchestrating app discovers them through a shared registry and gathers
// periodic readings over the network.
func TestDistributedSensorSites(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	app := runtime.New(dsl.MustLoad(lotDesign), runtime.WithClock(vc))
	t.Cleanup(app.Stop)
	reg := app.Registry()

	for site := 0; site < 2; site++ {
		srv, err := transport.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		for i := 0; i < 5; i++ {
			s := sensorDriver(fmt.Sprintf("site%d-s%d", site, i), "A22", i%2 == 0, vc.Now)
			srv.Host(s)
			if err := reg.Register(s.Entity(srv.Addr())); err != nil {
				t.Fatal(err)
			}
		}
	}

	panel := device.NewBase("panel-A22", "DisplayPanel", nil,
		registry.Attributes{"location": "A22"}, vc.Now)
	var mu sync.Mutex
	lastStatus := ""
	panel.OnAction("update", func(args ...any) error {
		mu.Lock()
		defer mu.Unlock()
		lastStatus = args[0].(string)
		return nil
	})
	if err := app.BindDevice(panel); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementContext("Availability", availabilityCtx{}); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementController("Panels", panelsCtrl{}); err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	advanceOnePeriod(t, app, vc)
	waitFor(t, "panel update over TCP", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return lastStatus == "4 free" // 2 sites × 2 free sensors each
	})
	if st := app.Stats(); st.Errors != 0 {
		t.Fatalf("errors = %d", st.Errors)
	}
}

// Deadline QoS on the full path: slow panels breach their actuation budget
// and the violations are recorded while the application keeps running.
func TestDeadlineViolationsRecorded(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	app := runtime.New(dsl.MustLoad(lotDesign), runtime.WithClock(vc))
	t.Cleanup(app.Stop)
	if err := app.BindDevice(sensorDriver("s0", "A22", false, vc.Now)); err != nil {
		t.Fatal(err)
	}
	monitor := qos.NewMonitor()
	panel := device.NewBase("panel-A22", "DisplayPanel", nil,
		registry.Attributes{"location": "A22"}, vc.Now)
	panel.OnAction("update", func(...any) error {
		time.Sleep(3 * time.Millisecond) // a sluggish display
		return nil
	})
	if err := app.BindDevice(qos.NewDeadline(panel, time.Millisecond, monitor, vc.Now)); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementContext("Availability", availabilityCtx{}); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementController("Panels", panelsCtrl{}); err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	advanceOnePeriod(t, app, vc)
	waitFor(t, "QoS violation", func() bool { return monitor.Count() >= 1 })
	viol := monitor.Violations()[0]
	if viol.Op != "invoke" || viol.Facet != "update" {
		t.Fatalf("violation = %+v", viol)
	}
	if st := app.Stats(); st.Actuations == 0 {
		t.Fatal("actuation did not complete despite deadline breach")
	}
}

// The full paper designs load, generate and run together — a last smoke
// check that the three applications do not interfere (separate runtimes,
// shared process).
func TestThreeApplicationsCoexist(t *testing.T) {
	for _, design := range []string{designs.Cooker, designs.Parking, designs.Avionics} {
		if _, err := dsl.Load(design); err != nil {
			t.Fatal(err)
		}
	}
	vc := simclock.NewVirtual(epoch)
	apps := make([]*runtime.Runtime, 0, 3)
	for _, design := range []string{designs.Cooker, designs.Parking, designs.Avionics} {
		apps = append(apps, runtime.New(dsl.MustLoad(design), runtime.WithClock(vc)))
	}
	for _, app := range apps {
		app.Stop()
	}
}

// tinyDesign is the smallest Sense-Compute-Control loop: one event-driven
// context and one controller.
const tinyDesign = `
device Thermometer {
	attribute room as String;
	source temperature as Float;
}
device Vent { action open; action close; }
context Comfort as Boolean {
	when provided temperature from Thermometer
	maybe publish;
}
controller VentControl {
	when provided Comfort
	do open on Vent
	do close on Vent;
}
`

type comfort struct{}

func (comfort) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	temp := call.Reading.Value.(float64)
	if temp > 26 {
		return true, true, nil // too hot: open the vent
	}
	if temp < 20 {
		return false, true, nil
	}
	return false, false, nil
}

type ventControl struct{}

func (ventControl) OnContext(call *runtime.ControllerCall) error {
	vents, err := call.Devices("Vent")
	if err != nil {
		return err
	}
	for _, v := range vents {
		if call.Value.(bool) {
			if err := v.Invoke("open"); err != nil {
				return err
			}
		} else {
			if err := v.Invoke("close"); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestAppEndToEnd(t *testing.T) {
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC))
	app := runtime.New(dsl.MustLoad(tinyDesign), runtime.WithClock(vc))
	defer app.Stop()

	thermo := device.NewBase("th-1", "Thermometer", nil, registry.Attributes{"room": "living"}, vc.Now)
	vent := device.NewBase("vent-1", "Vent", nil, nil, vc.Now)
	var mu sync.Mutex
	ventOpen := false
	vent.OnAction("open", func(...any) error { mu.Lock(); ventOpen = true; mu.Unlock(); return nil })
	vent.OnAction("close", func(...any) error { mu.Lock(); ventOpen = false; mu.Unlock(); return nil })
	for _, d := range []device.Driver{thermo, vent} {
		if err := app.BindDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.ImplementContext("Comfort", comfort{}); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementController("VentControl", ventControl{}); err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	thermo.Emit("temperature", 28.5)
	waitFor(t, "vent actuation", func() bool { mu.Lock(); defer mu.Unlock(); return ventOpen })

	thermo.Emit("temperature", 18.0)
	waitFor(t, "vent actuation", func() bool { mu.Lock(); defer mu.Unlock(); return !ventOpen })

	if v, ok := app.LastPublished("Comfort"); !ok || v.(bool) {
		t.Fatalf("LastPublished = %v, %v", v, ok)
	}
	if st := app.Stats(); st.Actuations < 2 || st.ContextTriggers < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRemoteDevicePushBinding drives an app whose thermometer lives in
// another process: it is hosted on a transport server and reached through a
// registry entry pointing at that server, and its pushed reading must travel
// over TCP into the app's event-driven context and actuate the local vent.
func TestRemoteDevicePushBinding(t *testing.T) {
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC))

	// Process A: hosts the thermometer remotely.
	srv, err := transport.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	thermo := device.NewBase("th-remote", "Thermometer", nil, registry.Attributes{"room": "attic"}, vc.Now)
	var temp float64 = 30
	var mu sync.Mutex
	thermo.OnQuery("temperature", func() (any, error) { mu.Lock(); defer mu.Unlock(); return temp, nil })
	srv.Host(thermo)

	// Process B: the orchestrating app, sharing a registry entry that
	// points at A's endpoint.
	app := runtime.New(dsl.MustLoad(tinyDesign), runtime.WithClock(vc))
	defer app.Stop()
	if err := app.Registry().Register(thermo.Entity(srv.Addr())); err != nil {
		t.Fatal(err)
	}
	vent := device.NewBase("vent-1", "Vent", nil, nil, vc.Now)
	opened := make(chan struct{}, 1)
	vent.OnAction("open", func(...any) error {
		select {
		case opened <- struct{}{}:
		default:
		}
		return nil
	})
	vent.OnAction("close", func(...any) error { return nil })
	if err := app.BindDevice(vent); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementContext("Comfort", comfort{}); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementController("VentControl", ventControl{}); err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	// The remote thermometer pushes an event over TCP.
	thermo.Emit("temperature", 30.0)
	select {
	case <-opened:
	case <-time.After(10 * time.Second):
		t.Fatal("remote reading never actuated the vent")
	}
}
