// Command parking runs the paper's large-scale application (Figures 4, 6,
// 8, 10, 11): city-wide parking management over a fleet of presence sensors.
// Availability per lot is computed with the design-declared MapReduce
// lowering, entrance panels are refreshed through attribute-filtered
// actuation proxies, parking suggestions combine availability with usage
// patterns, and a daily occupancy digest goes to the manager's messenger.
//
// The application logic below is written against the framework generated by
// diaspecc from the parking design (examples/parking/gen).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/examples/parking/gen"
	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/dsl/designs"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// parkingAvailability implements the ParkingAvailability context exactly as
// the paper's Figure 10: Map emits a marker per vacant space, Reduce counts
// them, and OnPeriodicPresence wraps the per-lot totals into Availability
// records.
type parkingAvailability struct{}

func (parkingAvailability) Map(parkingLot gen.ParkingLotEnum, presence bool, emit func(gen.ParkingLotEnum, bool)) {
	if !presence {
		emit(parkingLot, true)
	}
}

func (parkingAvailability) Reduce(parkingLot gen.ParkingLotEnum, values []bool, emit func(gen.ParkingLotEnum, int)) {
	emit(parkingLot, len(values))
}

func (parkingAvailability) OnPeriodicPresence(presenceByParkingLot map[gen.ParkingLotEnum]int) ([]gen.Availability, error) {
	out := make([]gen.Availability, 0, len(presenceByParkingLot))
	for lot, count := range presenceByParkingLot {
		out = append(out, gen.Availability{ParkingLot: lot, Count: count})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ParkingLot < out[j].ParkingLot })
	return out, nil
}

// usagePattern implements the ParkingUsagePattern context: hourly occupancy
// history per lot, classified HIGH/MODERATE/LOW, served on demand.
type usagePattern struct {
	history map[gen.ParkingLotEnum][]float64
}

func (u *usagePattern) OnPeriodicPresence(presenceByParkingLot map[gen.ParkingLotEnum][]bool) error {
	for lot, vals := range presenceByParkingLot {
		occupied := 0
		for _, p := range vals {
			if p {
				occupied++
			}
		}
		if len(vals) > 0 {
			u.history[lot] = append(u.history[lot], float64(occupied)/float64(len(vals)))
		}
	}
	return nil
}

func (u *usagePattern) OnRequired() ([]gen.UsagePattern, error) {
	out := make([]gen.UsagePattern, 0, len(u.history))
	for lot, hist := range u.history {
		recent := hist
		if len(recent) > 4 {
			recent = recent[len(recent)-4:]
		}
		avg := 0.0
		for _, v := range recent {
			avg += v
		}
		if len(recent) > 0 {
			avg /= float64(len(recent))
		}
		level := gen.UsagePatternEnumLOW
		switch {
		case avg > 0.75:
			level = gen.UsagePatternEnumHIGH
		case avg > 0.4:
			level = gen.UsagePatternEnumMODERATE
		}
		out = append(out, gen.UsagePattern{ParkingLot: lot, Level: level})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ParkingLot < out[j].ParkingLot })
	return out, nil
}

// averageOccupancy implements the AverageOccupancy context: presence values
// per lot averaged over the 24-hour aggregation window for management.
type averageOccupancy struct{}

func (averageOccupancy) OnPeriodicPresence(presenceByParkingLot map[gen.ParkingLotEnum][]bool) ([]gen.ParkingOccupancy, error) {
	out := make([]gen.ParkingOccupancy, 0, len(presenceByParkingLot))
	for lot, vals := range presenceByParkingLot {
		occupied := 0
		for _, p := range vals {
			if p {
				occupied++
			}
		}
		occ := 0.0
		if len(vals) > 0 {
			occ = float64(occupied) / float64(len(vals))
		}
		out = append(out, gen.ParkingOccupancy{ParkingLot: lot, Occupancy: occ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ParkingLot < out[j].ParkingLot })
	return out, nil
}

// parkingSuggestion combines availability with usage patterns (Figure 8's
// ParkingSuggestion context) to pick lots worth directing drivers to.
type parkingSuggestion struct{}

func (parkingSuggestion) OnParkingAvailability(avs []gen.Availability, discover *gen.ParkingSuggestionParkingAvailabilityDiscover) ([]gen.ParkingLotEnum, error) {
	patterns, err := discover.ParkingUsagePattern()
	if err != nil {
		return nil, err
	}
	level := make(map[gen.ParkingLotEnum]gen.UsagePatternEnum, len(patterns))
	for _, p := range patterns {
		level[p.ParkingLot] = p.Level
	}
	var best []gen.ParkingLotEnum
	for _, av := range avs {
		if av.Count > 0 && level[av.ParkingLot] != gen.UsagePatternEnumHIGH {
			best = append(best, av.ParkingLot)
		}
	}
	return best, nil
}

// entrancePanels implements the ParkingEntrancePanelController exactly as
// the paper's Figure 11: per-lot panel refresh through the discover chain.
type entrancePanels struct{}

func (entrancePanels) OnParkingAvailability(avs []gen.Availability, discover *gen.ParkingEntrancePanelControllerDiscover) error {
	for _, av := range avs {
		status := fmt.Sprintf("%d free", av.Count)
		if err := discover.ParkingEntrancePanels().WhereLocation(av.ParkingLot).Update(status); err != nil {
			return err
		}
	}
	return nil
}

// cityPanels implements the CityEntrancePanelController.
type cityPanels struct{}

func (cityPanels) OnParkingSuggestion(lots []gen.ParkingLotEnum, discover *gen.CityEntrancePanelControllerDiscover) error {
	strs := make([]string, len(lots))
	for i, l := range lots {
		strs[i] = string(l)
	}
	msg := "suggested lots: " + strings.Join(strs, ", ")
	if len(lots) == 0 {
		msg = "city parking full"
	}
	return discover.CityEntrancePanels().Update(msg)
}

// messenger implements the MessengerController: the daily digest.
type messenger struct{}

func (messenger) OnAverageOccupancy(occ []gen.ParkingOccupancy, discover *gen.MessengerControllerDiscover) error {
	parts := make([]string, len(occ))
	for i, o := range occ {
		parts[i] = fmt.Sprintf("%s=%.0f%%", o.ParkingLot, o.Occupancy*100)
	}
	return discover.Messengers().SendMessage("daily occupancy " + strings.Join(parts, " "))
}

func main() {
	spaces := flag.Int("spaces", 200, "presence sensors per parking lot")
	hours := flag.Int("hours", 26, "virtual hours to simulate")
	flag.Parse()
	if err := run(*spaces, *hours); err != nil {
		fmt.Fprintln(os.Stderr, "parking:", err)
		os.Exit(1)
	}
}

func run(spacesPerLot, hours int) error {
	start := time.Date(2017, 6, 5, 6, 0, 0, 0, time.UTC)
	vc := simclock.NewVirtual(start)
	model, err := dsl.Load(designs.Parking)
	if err != nil {
		return err
	}
	rt := runtime.New(model, runtime.WithClock(vc),
		runtime.WithErrorHandler(func(ce runtime.ComponentError) {
			fmt.Fprintln(os.Stderr, "runtime error:", ce)
		}))
	defer rt.Stop()
	gen.RegisterWireTypes()

	// The city: sensor fleet, entrance panels per lot, one city panel per
	// entrance, the manager's messenger.
	lots := []string{"A22", "B16", "D6", "E31", "F12"}
	fleet := devsim.NewSwarm(devsim.SwarmConfig{Sensors: len(lots) * spacesPerLot, Lots: lots, Seed: 2017}, vc)
	for _, s := range fleet.Sensors() {
		if err := rt.BindDevice(s); err != nil {
			return err
		}
	}
	panels := make(map[string]*devsim.RecorderDevice, len(lots))
	for _, lot := range lots {
		p := devsim.NewRecorderDevice("panel-"+lot, "ParkingEntrancePanel",
			[]string{"ParkingEntrancePanel", "DisplayPanel"},
			map[string]string{"location": lot}, []string{"update"}, vc.Now)
		panels[lot] = p
		if err := rt.BindDevice(p); err != nil {
			return err
		}
	}
	city := devsim.NewRecorderDevice("city-NE", "CityEntrancePanel",
		[]string{"CityEntrancePanel", "DisplayPanel"},
		map[string]string{"location": "NORTH_EAST_14Y"}, []string{"update"}, vc.Now)
	if err := rt.BindDevice(city); err != nil {
		return err
	}
	msgr := devsim.NewRecorderDevice("messenger-ops", "Messenger", nil, nil,
		[]string{"sendMessage"}, vc.Now)
	if err := rt.BindDevice(msgr); err != nil {
		return err
	}

	// Application logic against the generated framework.
	if err := gen.BindParkingAvailability(rt, parkingAvailability{}); err != nil {
		return err
	}
	if err := gen.BindParkingUsagePattern(rt, &usagePattern{history: make(map[gen.ParkingLotEnum][]float64)}); err != nil {
		return err
	}
	if err := gen.BindAverageOccupancy(rt, averageOccupancy{}); err != nil {
		return err
	}
	if err := gen.BindParkingSuggestion(rt, parkingSuggestion{}); err != nil {
		return err
	}
	if err := gen.BindParkingEntrancePanelController(rt, entrancePanels{}); err != nil {
		return err
	}
	if err := gen.BindCityEntrancePanelController(rt, cityPanels{}); err != nil {
		return err
	}
	if err := gen.BindMessengerController(rt, messenger{}); err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}

	fmt.Printf("parking management (paper Figures 4, 8, 10, 11) — %d lots × %d sensors = %d devices\n",
		len(lots), spacesPerLot, fleet.Size()+len(lots)+2)
	fmt.Printf("%-6s %-44s %s\n", "time", "free spaces per lot", "city panel")

	// Simulate: one 10-minute delivery period at a time; the fleet's
	// occupancy model advances in between.
	steps := hours * 6
	for i := 0; i < steps; i++ {
		before := rt.Stats().PeriodicPolls
		vc.Advance(10 * time.Minute)
		waitForPolls(rt, before)
		fleet.Step()
		if (i+1)%6 == 0 { // hourly report row
			now := vc.Now()
			var free []string
			for _, lot := range lots {
				if last, ok := panels[lot].LastCall("update"); ok {
					free = append(free, fmt.Sprintf("%s:%s", lot, strings.TrimSuffix(last, " free")))
				}
			}
			cityMsg, _ := city.LastCall("update")
			fmt.Printf("%02d:%02d  %-44s %s\n", now.Hour(), now.Minute(), strings.Join(free, " "), cityMsg)
		}
	}
	// A run spanning a day closes the 24-hour window; its delivery is
	// asynchronous, so wait for the digest before reporting.
	if hours >= 24 {
		waitUntil(func() bool { _, ok := msgr.LastCall("sendMessage"); return ok })
	}
	if digest, ok := msgr.LastCall("sendMessage"); ok {
		fmt.Println("manager digest:", digest)
	}
	st := rt.Stats()
	fmt.Printf("done: %d polls, %d context triggers, %d publications, %d actuations, %d errors\n",
		st.PeriodicPolls, st.ContextTriggers, st.ContextPublishes, st.Actuations, st.Errors)
	return nil
}

// waitForPolls blocks until at least two more polling rounds (the two
// 10-minute contexts) complete, so virtual-time advances do not outrun the
// pollers.
func waitForPolls(rt *runtime.Runtime, before uint64) {
	waitUntil(func() bool { return rt.Stats().PeriodicPolls >= before+2 })
}

// waitUntil polls cond for up to 10 seconds of real time.
func waitUntil(cond func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !cond() {
		time.Sleep(100 * time.Microsecond)
	}
}
