// Command aggstorm exercises incremental grouped aggregation at swarm
// scale: a population of presence sensors is polled periodically by a
// runtime whose grouped MapReduce delivery rides the delta-aware
// incremental engine. Between rounds a configurable fraction of the fleet
// changes state (1%, 10%, 100%), and a slice of the fleet churns out of and
// back into the registry, forcing snapshot rebuilds and engine resets.
//
// Every round the scenario cross-checks, exactly:
//
//	incremental aggregate == ground truth
//
// where ground truth is recomputed from the simulator's occupancy table
// over the currently bound population. Any divergence fails the run. The
// final report prints the incremental engine's dirty-group ratio
// (Stats.GroupsDirty / Stats.GroupsTotal) and aggregate reuse.
//
// Run it with:
//
//	go run ./examples/aggstorm -sensors 50000 -rounds 4
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// design is the aggregation storm application: per-lot vacancy counts over
// a periodic grouped MapReduce delivery.
const design = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}

context Vacancy as Integer {
	when periodic presence from PresenceSensor <10 min>
	grouped by lot
	with map as Boolean reduce as Integer
	always publish;
}
`

// vacancy is the combinable aggregate: count vacant spaces per lot. The
// incremental engine uses Combine/Uncombine for O(1) folds.
type vacancy struct {
	mu       sync.Mutex
	last     map[string]int
	triggers int
}

func (h *vacancy) Map(lot string, v any, emit func(string, any)) {
	if !v.(bool) {
		emit(lot, true)
	}
}
func (h *vacancy) Reduce(lot string, vs []any, emit func(string, any)) { emit(lot, len(vs)) }
func (h *vacancy) Combine(_ string, a, b any) any                      { return a.(int) + b.(int) }
func (h *vacancy) Uncombine(_ string, a, v any) any                    { return a.(int) - v.(int) }

func (h *vacancy) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	snap := make(map[string]int, len(call.GroupedReduced))
	for k, v := range call.GroupedReduced {
		snap[k] = v.(int)
	}
	h.mu.Lock()
	h.last = snap
	h.triggers++
	h.mu.Unlock()
	return len(snap), true, nil
}

func (h *vacancy) snapshot() (map[string]int, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := make(map[string]int, len(h.last))
	for k, v := range h.last {
		cp[k] = v
	}
	return cp, h.triggers
}

func main() {
	sensors := flag.Int("sensors", 50000, "population size")
	lots := flag.Int("lots", 100, "number of parking lots (groups)")
	rounds := flag.Int("rounds", 4, "rounds per change rate")
	churn := flag.Float64("churn", 0.005, "fraction of the fleet churned out+in per rate phase")
	flag.Parse()
	if err := run(*sensors, *lots, *rounds, *churn); err != nil {
		fmt.Fprintln(os.Stderr, "aggstorm:", err)
		os.Exit(1)
	}
}

// world is one runtime polling the shared swarm.
type world struct {
	rt *runtime.Runtime
	h  *vacancy
}

func newWorld(swarm *devsim.Swarm, vc *simclock.Virtual) (*world, error) {
	model, err := dsl.Load(design)
	if err != nil {
		return nil, err
	}
	w := &world{h: &vacancy{}}
	w.rt = runtime.New(model, runtime.WithClock(vc))
	if err := w.rt.ImplementContext("Vacancy", w.h); err != nil {
		return nil, err
	}
	for _, s := range swarm.Sensors() {
		if err := w.rt.BindDevice(s); err != nil {
			return nil, err
		}
	}
	return w, w.rt.Start()
}

func run(sensors, lots, rounds int, churnFrac float64) error {
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC))
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

	inc, err := newWorld(swarm, vc)
	if err != nil {
		return err
	}
	defer inc.rt.Stop()

	// unbound tracks sensors currently churned out, so
	// ground truth covers exactly the bound population.
	unbound := make(map[int]bool)
	churnCursor := 0
	churnN := int(churnFrac * float64(sensors))

	round := func() error {
		_, before := inc.h.snapshot()
		vc.Advance(10 * time.Minute)
		deadline := time.Now().Add(60 * time.Second)
		for {
			_, n := inc.h.snapshot()
			if n > before {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("round stalled (triggers %d->%d)", before, n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	// groundTruth recomputes per-lot vacancy over the bound population
	// from the simulator's own occupancy table.
	groundTruth := func() map[string]int {
		want := make(map[string]int, lots)
		for i, s := range swarm.Sensors() {
			if unbound[i] {
				continue
			}
			v, err := s.Query("presence")
			if err == nil && !v.(bool) {
				want[lotNames[i%len(lotNames)]]++
			}
		}
		return want
	}

	crossCheck := func(phase string, r int) error {
		gi, _ := inc.h.snapshot()
		if err := sameMap(gi, groundTruth()); err != nil {
			return fmt.Errorf("%s round %d: incremental diverged from ground truth: %v", phase, r, err)
		}
		return nil
	}

	fmt.Printf("aggstorm: %d sensors, %d lots, %d rounds per rate\n", sensors, lots, rounds)
	for _, rate := range []float64{0.01, 0.10, 1.0} {
		phase := fmt.Sprintf("rate=%.0f%%", rate*100)
		st0 := inc.rt.Stats()
		wall := time.Now()
		for r := 1; r <= rounds; r++ {
			swarm.DeltaRound(rate)
			if err := round(); err != nil {
				return fmt.Errorf("%s: %w", phase, err)
			}
			if err := crossCheck(phase, r); err != nil {
				return err
			}
		}

		// Churn a slice of the fleet out of the registry and back in: the
		// snapshot rebuild resets the incremental engine, which must still
		// agree with ground truth afterwards.
		if churnN > 0 {
			for i := churnCursor; i < churnCursor+churnN; i++ {
				idx := i % sensors
				id := swarm.Sensors()[idx].ID()
				if err := inc.rt.UnbindDevice(id); err != nil {
					return err
				}
				unbound[idx] = true
			}
			if err := round(); err != nil {
				return fmt.Errorf("%s churn-out: %w", phase, err)
			}
			if err := crossCheck(phase+" churn-out", 0); err != nil {
				return err
			}
			for i := churnCursor; i < churnCursor+churnN; i++ {
				idx := i % sensors
				if err := inc.rt.BindDevice(swarm.Sensors()[idx]); err != nil {
					return err
				}
				delete(unbound, idx)
			}
			churnCursor += churnN
			if err := round(); err != nil {
				return fmt.Errorf("%s churn-in: %w", phase, err)
			}
			if err := crossCheck(phase+" churn-in", 0); err != nil {
				return err
			}
		}

		st1 := inc.rt.Stats()
		dirty := st1.GroupsDirty - st0.GroupsDirty
		total := st1.GroupsTotal - st0.GroupsTotal
		fmt.Printf("%-9s OK: %d rounds in %v; dirty groups %d/%d (%.1f%%), reuse %d\n",
			phase, rounds, time.Since(wall).Round(time.Millisecond),
			dirty, total, 100*float64(dirty)/float64(max(total, 1)),
			st1.AggReuse-st0.AggReuse)
	}

	st := inc.rt.Stats()
	fmt.Printf("cross-check OK: incremental == ground truth at every round; ")
	fmt.Printf("lifetime dirty ratio %.1f%% (%d/%d), reuse %d, snapshot rebuilds %d\n",
		100*float64(st.GroupsDirty)/float64(max(st.GroupsTotal, 1)),
		st.GroupsDirty, st.GroupsTotal, st.AggReuse, st.PollSnapshotRebuilds)
	return nil
}

func sameMap(got, want map[string]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("group %s = %d, want %d", k, got[k], v)
		}
	}
	return nil
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
