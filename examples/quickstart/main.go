// Command quickstart is the smallest complete orchestration application:
// one inline DiaSpec design (a thermometer, a comfort context, a vent
// controller), simulated devices, and the runtime API. It shows the whole
// pipeline — design text → semantic check → inversion-of-control runtime —
// in under a hundred lines of application code.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// design is a minimal Sense-Compute-Control loop in DiaSpec (paper §II).
const design = `
device Thermometer {
	attribute room as String;
	source temperature as Float;
}

device Vent {
	action open;
	action close;
}

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

// comfort decides when the room is too hot. It publishes only on state
// changes (`maybe publish`).
type comfort struct {
	tooHot bool
	primed bool
}

func (c *comfort) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	temp := call.Reading.Value.(float64)
	hot := temp > 26
	changed := !c.primed || hot != c.tooHot
	c.tooHot, c.primed = hot, true
	fmt.Printf("  [comfort] %s reads %.1f°C -> tooHot=%v\n", call.Reading.DeviceID, temp, hot)
	return hot, changed, nil
}

// ventControl opens or closes every vent on comfort changes.
type ventControl struct{}

func (ventControl) OnContext(call *runtime.ControllerCall) error {
	vents, err := call.Devices("Vent")
	if err != nil {
		return err
	}
	action := "close"
	if call.Value.(bool) {
		action = "open"
	}
	for _, v := range vents {
		if err := v.Invoke(action); err != nil {
			return err
		}
		fmt.Printf("  [ventctl] %s -> %s\n", v.ID(), action)
	}
	return nil
}

func main() {
	rounds := flag.Int("rounds", 1, "temperature sweeps to run")
	flag.Parse()
	if err := run(*rounds); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(rounds int) error {
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 14, 0, 0, 0, time.UTC))
	model, err := dsl.Load(design)
	if err != nil {
		return err
	}
	app := runtime.New(model, runtime.WithClock(vc))
	defer app.Stop()

	thermo := device.NewBase("thermo-living", "Thermometer", nil,
		registry.Attributes{"room": "living"}, vc.Now)
	vent := device.NewBase("vent-living", "Vent", nil, nil, vc.Now)
	vent.OnAction("open", func(...any) error { return nil })
	vent.OnAction("close", func(...any) error { return nil })
	for _, d := range []device.Driver{thermo, vent} {
		if err := app.BindDevice(d); err != nil {
			return err
		}
	}
	if err := app.ImplementContext("Comfort", &comfort{}); err != nil {
		return err
	}
	if err := app.ImplementController("VentControl", ventControl{}); err != nil {
		return err
	}
	if err := app.Start(); err != nil {
		return err
	}

	fmt.Println("quickstart: thermometer -> Comfort -> VentControl -> vent")
	for r := 0; r < rounds; r++ {
		for _, temp := range []float64{22.0, 24.5, 27.3, 28.1, 25.0, 21.9} {
			thermo.Emit("temperature", temp)
			time.Sleep(5 * time.Millisecond) // let the async dispatch run
		}
	}
	st := app.Stats()
	fmt.Printf("done: %d readings processed, %d publications, %d actuations\n",
		st.ContextTriggers, st.ContextPublishes, st.Actuations)
	return nil
}
