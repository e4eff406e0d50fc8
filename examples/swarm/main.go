// Command swarm is the large-scale orchestration scenario: a city-wide
// population of simulated presence sensors (50k by default) reporting into
// one vacancy computation through the sharded delivery substrate — the
// paper's small-to-large-scale continuum pushed to its DiaSwarm end.
//
// Each delivery round the runtime scans the sharded registry for the fleet,
// queries every sensor in parallel, lowers the grouped readings onto the
// MapReduce engine, and publishes per-lot vacancy counts that a controller
// pushes to zone panels. The clock is virtual, so 50k-sensor rounds run
// back to back as fast as the hardware allows.
//
// Run it with:
//
//	go run ./examples/swarm -sensors 50000 -lots 100 -rounds 6
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// design is the swarm vacancy application. The lot attribute is a plain
// string so the population can spread over any number of lots.
const design = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}

device ZonePanel {
	attribute lot as String;
	action update(status as String);
}

context LotVacancy as Integer {
	when periodic presence from PresenceSensor <10 min>
	grouped by lot
	with map as Boolean reduce as Integer
	always publish;
}

controller PanelUpdater {
	when provided LotVacancy
	do update on ZonePanel;
}
`

// vacancy counts free spaces per lot via the MapReduce lowering.
type vacancy struct{}

func (vacancy) Map(lot string, v any, emit func(string, any)) {
	if !v.(bool) {
		emit(lot, true)
	}
}

func (vacancy) Reduce(lot string, vs []any, emit func(string, any)) {
	emit(lot, len(vs))
}

func (vacancy) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	// The aggregate is engine-owned and mutated in place on later rounds:
	// publish a copy, never the map itself.
	out := make(map[string]any, len(call.GroupedReduced))
	for k, v := range call.GroupedReduced {
		out[k] = v
	}
	return out, true, nil
}

// panelUpdater pushes each lot's count to its zone panel.
type panelUpdater struct{}

func (panelUpdater) OnContext(call *runtime.ControllerCall) error {
	counts := call.Value.(map[string]any)
	for lot, n := range counts {
		panels, err := call.DevicesWhere("ZonePanel", registry.Attributes{"lot": lot})
		if err != nil {
			return err
		}
		for _, p := range panels {
			if err := p.Invoke("update", fmt.Sprintf("%v free", n)); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	sensors := flag.Int("sensors", 50000, "population size")
	lots := flag.Int("lots", 100, "number of parking lots")
	rounds := flag.Int("rounds", 6, "10-minute delivery rounds to run")
	flag.Parse()
	if err := run(*sensors, *lots, *rounds); err != nil {
		fmt.Fprintln(os.Stderr, "swarm:", err)
		os.Exit(1)
	}
}

func run(sensors, lots, rounds int) error {
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC))
	model, err := dsl.Load(design)
	if err != nil {
		return err
	}
	rt := runtime.New(model, runtime.WithClock(vc))
	defer rt.Stop()

	lotNames := make([]string, lots)
	for i := range lotNames {
		lotNames[i] = fmt.Sprintf("L%03d", i)
	}
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors:   sensors,
		Lots:      lotNames,
		GroupAttr: "lot",
		Seed:      7,
	}, vc)

	bindStart := time.Now()
	for _, s := range swarm.Sensors() {
		if err := rt.BindDevice(s); err != nil {
			return err
		}
	}
	panels := make([]*devsim.RecorderDevice, lots)
	for i, lot := range lotNames {
		panels[i] = devsim.NewRecorderDevice("panel-"+lot, "ZonePanel", nil,
			registry.Attributes{"lot": lot}, []string{"update"}, vc.Now)
		if err := rt.BindDevice(panels[i]); err != nil {
			return err
		}
	}
	fmt.Printf("bound %d sensors and %d panels in %v\n",
		swarm.Size(), lots, time.Since(bindStart).Round(time.Millisecond))

	if err := rt.ImplementContext("LotVacancy", vacancy{}); err != nil {
		return err
	}
	if err := rt.ImplementController("PanelUpdater", panelUpdater{}); err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}

	for r := 1; r <= rounds; r++ {
		before := rt.Stats().ContextPublishes
		wall := time.Now()
		vc.Advance(10 * time.Minute)
		swarm.Step()
		for rt.Stats().ContextPublishes <= before {
			time.Sleep(50 * time.Microsecond)
		}
		elapsed := time.Since(wall)
		fmt.Printf("round %d: gathered %d readings in %v (%.0f readings/sec)\n",
			r, sensors, elapsed.Round(time.Millisecond),
			float64(sensors)/elapsed.Seconds())
	}

	// Cross-check the published vacancy against the swarm's ground truth.
	truth := swarm.VacantPerLot()
	published, _ := rt.LastPublished("LotVacancy")
	counts, _ := published.(map[string]any)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	mismatches := 0
	for _, lot := range keys {
		if counts[lot].(int) != truth[lot] {
			mismatches++
		}
	}
	if len(keys) == 0 {
		fmt.Println("no vacancy published (empty population)")
	} else {
		sample := keys[0]
		fmt.Printf("vacancy[%s] = %v (ground truth %d), %d/%d lots mismatched\n",
			sample, counts[sample], truth[sample], mismatches, len(keys))
	}

	st := rt.Stats()
	bs := rt.BusStats()
	fmt.Printf("runtime: %d polls, %d context triggers, %d publications, %d actuations, %d errors\n",
		st.PeriodicPolls, st.ContextTriggers, st.ContextPublishes, st.Actuations, st.Errors)
	fmt.Printf("bus: %d published, %d delivered\n", bs.Published, bs.Delivered)
	return nil
}
