package core_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/dsl/designs"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

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
	app, err := core.NewApp(tinyDesign, runtime.WithClock(vc))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	thermo := device.NewBase("th-1", "Thermometer", nil, registry.Attributes{"room": "living"}, vc.Now)
	vent := device.NewBase("vent-1", "Vent", nil, nil, vc.Now)
	var mu sync.Mutex
	ventOpen := false
	vent.OnAction("open", func(...any) error { mu.Lock(); ventOpen = true; mu.Unlock(); return nil })
	vent.OnAction("close", func(...any) error { mu.Lock(); ventOpen = false; mu.Unlock(); return nil })
	if err := app.BindDevices(thermo, vent); err != nil {
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

	thermo.Emit("temperature", 28.5)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return ventOpen })

	thermo.Emit("temperature", 18.0)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return !ventOpen })

	if v, ok := app.LastPublished("Comfort"); !ok || v.(bool) {
		t.Fatalf("LastPublished = %v, %v", v, ok)
	}
	if st := app.Stats(); st.Actuations < 2 || st.ContextTriggers < 2 {
		t.Fatalf("stats = %+v", st)
	}
	if app.Model() == nil || app.Runtime() == nil {
		t.Fatal("accessors returned nil")
	}
}

func TestNewAppRejectsBadDesign(t *testing.T) {
	if _, err := core.NewApp("device {"); err == nil {
		t.Fatal("syntax error accepted")
	}
	if _, err := core.NewApp(`controller K { when provided X do a on D; }`); err == nil {
		t.Fatal("semantic error accepted")
	}
}

func TestNewAppFromModel(t *testing.T) {
	m, err := dsl.Load(tinyDesign)
	if err != nil {
		t.Fatal(err)
	}
	app := core.NewAppFromModel(m)
	defer app.Stop()
	if app.Model() != m {
		t.Fatal("model not retained")
	}
}

func TestGenerateFramework(t *testing.T) {
	app, err := core.NewApp(designs.Parking)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	src, err := app.GenerateFramework("parkinggen")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "package parkinggen") ||
		!strings.Contains(string(src), "ParkingAvailabilityMapReduce") {
		t.Fatal("generated framework incomplete")
	}
}

func TestServeDevicesRemoteBinding(t *testing.T) {
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC))

	// Process A: hosts the thermometer remotely.
	hostApp, err := core.NewApp(tinyDesign, runtime.WithClock(vc))
	if err != nil {
		t.Fatal(err)
	}
	defer hostApp.Stop()
	thermo := device.NewBase("th-remote", "Thermometer", nil, registry.Attributes{"room": "attic"}, vc.Now)
	var temp float64 = 30
	var mu sync.Mutex
	thermo.OnQuery("temperature", func() (any, error) { mu.Lock(); defer mu.Unlock(); return temp, nil })
	addr, err := hostApp.ServeDevices("127.0.0.1:0", thermo)
	if err != nil {
		t.Fatal(err)
	}

	// Process B: the orchestrating app, sharing a registry entry that
	// points at A's endpoint.
	app, err := core.NewApp(tinyDesign, runtime.WithClock(vc))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	if err := app.Runtime().Registry().Register(thermo.Entity(addr)); err != nil {
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

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("condition not reached")
}
