// Package repro holds the benchmark harness that regenerates the paper's
// figures and quantitative claims F1–F2 and C1–C5 (the paper has no numeric
// tables; README "Benchmarks" maps each claim to its benchmark), plus the
// large-scale experiments and ablations. Run with:
//
//	go test -bench=. -benchmem .
package repro_test

import (
	"fmt"
	"os"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/dsl/designs"
	"repro/internal/eventbus"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

var benchEpoch = time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC)

// ---- shared parking implementation (no typing layer: raw runtime SPI) ----

type benchAvailability struct{}

func (benchAvailability) Map(lot string, v any, emit func(string, any)) {
	if !v.(bool) {
		emit(lot, true)
	}
}
func (benchAvailability) Reduce(lot string, vs []any, emit func(string, any)) {
	emit(lot, len(vs))
}
func (benchAvailability) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	// Publish a copy: the aggregate map is engine-owned and mutated in
	// place on later rounds.
	out := make(map[string]any, len(call.GroupedReduced))
	for k, v := range call.GroupedReduced {
		out[k] = v
	}
	return out, true, nil
}

type benchUsage struct{}

func (benchUsage) OnTrigger(*runtime.ContextCall) (any, bool, error) { return nil, false, nil }
func (benchUsage) OnRequired(*runtime.ContextCall) (any, error) {
	return map[string]string{}, nil
}

type benchOccupancy struct{}

func (benchOccupancy) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	return len(call.Grouped), true, nil
}

type benchSuggestion struct{}

func (benchSuggestion) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	return []string{"L00"}, true, nil
}

type benchSink struct{}

func (benchSink) OnContext(*runtime.ControllerCall) error { return nil }

// parkingWorld builds the full parking application over a simulated fleet.
func parkingBenchWorld(b *testing.B, sensors int) (*runtime.Runtime, *simclock.Virtual) {
	b.Helper()
	vc := simclock.NewVirtual(benchEpoch)
	model, err := dsl.Load(designs.Parking)
	if err != nil {
		b.Fatal(err)
	}
	rt := runtime.New(model, runtime.WithClock(vc))
	lots := []string{"A22", "B16", "D6", "E31", "F12"}
	perLot := sensors / len(lots)
	if perLot == 0 {
		perLot = 1
	}
	fleet := devsim.NewSwarm(devsim.SwarmConfig{Sensors: len(lots) * perLot, Lots: lots, Seed: 7}, vc)
	for _, s := range fleet.Sensors() {
		if err := rt.BindDevice(s); err != nil {
			b.Fatal(err)
		}
	}
	for _, lot := range lots {
		p := devsim.NewRecorderDevice("panel-"+lot, "ParkingEntrancePanel",
			[]string{"ParkingEntrancePanel", "DisplayPanel"},
			registry.Attributes{"location": lot}, []string{"update"}, vc.Now)
		if err := rt.BindDevice(p); err != nil {
			b.Fatal(err)
		}
	}
	city := devsim.NewRecorderDevice("city-1", "CityEntrancePanel",
		[]string{"CityEntrancePanel", "DisplayPanel"},
		registry.Attributes{"location": "NORTH_EAST_14Y"}, []string{"update"}, vc.Now)
	if err := rt.BindDevice(city); err != nil {
		b.Fatal(err)
	}
	msgr := devsim.NewRecorderDevice("m-1", "Messenger", nil, nil, []string{"sendMessage"}, vc.Now)
	if err := rt.BindDevice(msgr); err != nil {
		b.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	must(rt.ImplementContext("ParkingAvailability", benchAvailability{}))
	must(rt.ImplementContext("ParkingUsagePattern", benchUsage{}))
	must(rt.ImplementContext("AverageOccupancy", benchOccupancy{}))
	must(rt.ImplementContext("ParkingSuggestion", benchSuggestion{}))
	must(rt.ImplementController("ParkingEntrancePanelController", benchSink{}))
	must(rt.ImplementController("CityEntrancePanelController", benchSink{}))
	must(rt.ImplementController("MessengerController", benchSink{}))
	must(rt.Start())
	b.Cleanup(rt.Stop)
	return rt, vc
}

// BenchmarkF1_Continuum (paper Figure 1): the identical application and API
// from home scale to city scale; each iteration is one complete 10-minute
// delivery period (discover fleet, query every sensor, group, MapReduce,
// publish, actuate panels).
func BenchmarkF1_Continuum(b *testing.B) {
	for _, scale := range []struct {
		name    string
		sensors int
	}{
		{"home-10", 10},
		{"building-100", 100},
		{"district-1000", 1000},
		{"city-10000", 10000},
	} {
		b.Run(scale.name, func(b *testing.B) {
			rt, vc := parkingBenchWorld(b, scale.sensors)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := rt.Stats().ContextPublishes
				vc.Advance(10 * time.Minute)
				for rt.Stats().ContextPublishes <= before {
					time.Sleep(20 * time.Microsecond)
				}
			}
			b.ReportMetric(float64(scale.sensors), "sensors")
		})
	}
}

// BenchmarkF2_SCCLoop (paper Figure 2): latency of one full
// Sense-Compute-Control traversal — device event → context (with a
// query-driven pull) → controller → actuation.
func BenchmarkF2_SCCLoop(b *testing.B) {
	vc := simclock.NewVirtual(benchEpoch)
	model, err := dsl.Load(designs.Cooker)
	if err != nil {
		b.Fatal(err)
	}
	rt := runtime.New(model, runtime.WithClock(vc))
	defer rt.Stop()

	clock := device.NewBase("clock-1", "Clock", nil, nil, vc.Now)
	cooker := device.NewBase("cooker-1", "Cooker", nil, nil, vc.Now)
	cooker.OnQuery("consumption", func() (any, error) { return 1500.0, nil })
	cooker.OnAction("Off", func(...any) error { return nil })
	cooker.OnAction("On", func(...any) error { return nil })
	prompter := device.NewBase("tv-1", "Prompter", nil, nil, vc.Now)
	var asked sync.WaitGroup
	prompter.OnAction("askQuestion", func(...any) error { asked.Done(); return nil })
	for _, d := range []*device.Base{clock, cooker, prompter} {
		if err := rt.BindDevice(d); err != nil {
			b.Fatal(err)
		}
	}
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	must(rt.ImplementContext("Alert", alwaysAlert{}))
	must(rt.ImplementController("Notify", askCtrl{}))
	must(rt.ImplementContext("RemoteTurnOff", neverCtx{}))
	must(rt.ImplementController("TurnOff", benchSink{}))
	must(rt.Start())

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asked.Add(1)
		clock.Emit("tickSecond", i)
		asked.Wait()
	}
}

type alwaysAlert struct{}

func (alwaysAlert) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	if _, err := call.QueryDeviceOne("Cooker", "consumption"); err != nil {
		return nil, false, err
	}
	return 1, true, nil
}

type askCtrl struct{}

func (askCtrl) OnContext(call *runtime.ControllerCall) error {
	ps, err := call.Devices("Prompter")
	if err != nil {
		return err
	}
	for _, p := range ps {
		if err := p.Invoke("askQuestion", "q"); err != nil {
			return err
		}
	}
	return nil
}

// pullCtx pulls the cooker's consumption on every trigger and signals done.
type pullCtx struct {
	done sync.WaitGroup
	err  error // the last pull's failure, read after done
}

func (p *pullCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	_, p.err = call.QueryDevice("Cooker", "consumption")
	p.done.Done()
	return nil, false, nil
}

type neverCtx struct{}

func (neverCtx) OnTrigger(*runtime.ContextCall) (any, bool, error) { return nil, false, nil }

// BenchmarkC1_GeneratedFraction (paper §V: "generated code may represent up
// to 80% of the resulting application code"): reports the generated-code
// fraction of the two paper applications as a custom metric.
func BenchmarkC1_GeneratedFraction(b *testing.B) {
	cases := []struct {
		name   string
		design string
		impl   string
	}{
		{"cooker", designs.Cooker, "examples/cookermonitor/main.go"},
		{"parking", designs.Parking, "examples/parking/main.go"},
		{"avionics", designs.Avionics, "examples/avionics/main.go"},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			m, err := dsl.Load(tc.design)
			if err != nil {
				b.Fatal(err)
			}
			var gen []byte
			for i := 0; i < b.N; i++ {
				gen, err = codegen.Generate(m, codegen.Options{Package: "gen"})
				if err != nil {
					b.Fatal(err)
				}
			}
			impl, err := os.ReadFile(tc.impl)
			if err != nil {
				b.Fatal(err)
			}
			genL := codegen.CountLines(gen)
			implL := codegen.CountLines(impl)
			b.ReportMetric(100*float64(genL)/float64(genL+implL), "%generated")
		})
	}
}

// BenchmarkC2_GatherConcurrency (paper §IV.2): the gather half of the
// `grouped by`/MapReduce lowering at large scale — readings are gathered
// from devices across a simulated LPWAN link, so per-reading latency
// dominates and the runtime's concurrent gather wins even on one core.
func BenchmarkC2_GatherConcurrency(b *testing.B) {
	const n = 64
	mkDevices := func() []device.Driver {
		out := make([]device.Driver, n)
		for i := range out {
			d := device.NewBase(fmt.Sprintf("s%03d", i), "S", nil, nil, nil)
			d.OnQuery("v", func() (any, error) { return true, nil })
			out[i] = transport.NewLink(d, transport.LinkProfile{Latency: 200 * time.Microsecond, Seed: int64(i)})
		}
		return out
	}
	b.Run("sequential", func(b *testing.B) {
		devicesUnderTest := mkDevices()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range devicesUnderTest {
				if _, err := d.Query("v"); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{8, 32} {
		b.Run(fmt.Sprintf("concurrent-%d", workers), func(b *testing.B) {
			devicesUnderTest := mkDevices()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				next := make(chan device.Driver)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for d := range next {
							if _, err := d.Query("v"); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				for _, d := range devicesUnderTest {
					next <- d
				}
				close(next)
				wg.Wait()
			}
		})
	}
}

// BenchmarkC3_DeliveryModels (paper §IV "delivering data"): cost of one
// delivery under each of the three models.
func BenchmarkC3_DeliveryModels(b *testing.B) {
	b.Run("event", func(b *testing.B) {
		bus := eventbus.New()
		defer bus.Close()
		var wg sync.WaitGroup
		if _, err := bus.Subscribe("t", func(eventbus.Event) { wg.Done() }); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wg.Add(1)
			if err := bus.Publish("t", true, benchEpoch); err != nil {
				b.Fatal(err)
			}
			wg.Wait()
		}
	})
	b.Run("query", func(b *testing.B) {
		// One query-driven pull (`get consumption from Cooker`) through
		// ContextCall.QueryDevice, triggered by a clock event as
		// BenchmarkF2_SCCLoop triggers its pull.
		vc := simclock.NewVirtual(benchEpoch)
		model, err := dsl.Load(designs.Cooker)
		if err != nil {
			b.Fatal(err)
		}
		rt := runtime.New(model, runtime.WithClock(vc))
		defer rt.Stop()
		clock := device.NewBase("clock-1", "Clock", nil, nil, vc.Now)
		cooker := device.NewBase("cooker-1", "Cooker", nil, nil, vc.Now)
		cooker.OnQuery("consumption", func() (any, error) { return 1500.0, nil })
		for _, d := range []*device.Base{clock, cooker} {
			if err := rt.BindDevice(d); err != nil {
				b.Fatal(err)
			}
		}
		pull := &pullCtx{}
		for _, err := range []error{
			rt.ImplementContext("Alert", pull),
			rt.ImplementController("Notify", benchSink{}),
			rt.ImplementContext("RemoteTurnOff", neverCtx{}),
			rt.ImplementController("TurnOff", benchSink{}),
			rt.Start(),
		} {
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pull.done.Add(1)
			clock.Emit("tickSecond", i)
			pull.done.Wait()
			if pull.err != nil {
				b.Fatal(pull.err)
			}
		}
	})
	b.Run("periodic-1000dev", func(b *testing.B) {
		// One periodic round over 1000 sensors through the real
		// runtime poller (discover + parallel query + group + publish).
		rt, vc := parkingBenchWorld(b, 1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			before := rt.Stats().ContextPublishes
			vc.Advance(10 * time.Minute)
			for rt.Stats().ContextPublishes <= before {
				time.Sleep(20 * time.Microsecond)
			}
		}
	})
}

// BenchmarkC4_Discovery (paper §IV binding): attribute-filtered discovery
// across registry sizes, then through a runtime controller (the `runtime/`
// rows).
func BenchmarkC4_Discovery(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			reg := registry.New()
			defer reg.Close()
			lots := []string{"A22", "B16", "D6", "E31", "F12"}
			for i := 0; i < n; i++ {
				err := reg.Register(registry.Entity{
					ID:    registry.ID(fmt.Sprintf("s%06d", i)),
					Kind:  "PresenceSensor",
					Attrs: registry.Attributes{"parkingLot": lots[i%len(lots)]},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			q := registry.Query{Kind: "PresenceSensor", Where: registry.Attributes{"parkingLot": "A22"}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := reg.Discover(q); len(got) == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
	// The paper's Figure 11 chain as a controller runs it:
	// ControllerCall.DevicesWhere for one lot's panel, 1 of 100 panels among
	// 10,000 sensors. warm repeats it over an unchanged fleet; rebind binds
	// or unbinds another panel (untimed) before each call, so every call
	// rebuilds its discovery view.
	b.Run("runtime/warm", func(b *testing.B) { benchControllerDiscovery(b, false) })
	b.Run("runtime/rebind", func(b *testing.B) { benchControllerDiscovery(b, true) })
}

// benchControllerDiscovery runs the timed loop inside one OnContext, where a
// ControllerCall is live.
func benchControllerDiscovery(b *testing.B, rebind bool) {
	model, err := dsl.Load(`
device Sensor { attribute lot as String; source presence as Boolean; }
device LotPanel { attribute location as String; action update(free as Integer); }
device Pulse { source beat as Integer; }
context Beat as Integer { when provided beat from Pulse always publish; }
controller Updater { when provided Beat do update on LotPanel; }
`)
	if err != nil {
		b.Fatal(err)
	}
	rt := runtime.New(model)
	defer rt.Stop()
	reg := rt.Registry()
	for i := 0; i < 10000; i++ {
		e := registry.Entity{ID: registry.ID(fmt.Sprintf("s%05d", i)), Kind: "Sensor",
			Attrs: registry.Attributes{"lot": fmt.Sprintf("L%02d", i%100)}}
		if err := reg.Register(e); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		e := registry.Entity{ID: registry.ID(fmt.Sprintf("panel-%02d", i)), Kind: "LotPanel",
			Attrs: registry.Attributes{"location": fmt.Sprintf("L%02d", i)}}
		if err := reg.Register(e); err != nil {
			b.Fatal(err)
		}
	}
	extra := registry.Entity{ID: "panel-extra", Kind: "LotPanel", Attrs: registry.Attributes{"location": "L99"}}
	pulse := device.NewBase("pulse", "Pulse", nil, nil, nil)
	if err := rt.BindDevice(pulse); err != nil {
		b.Fatal(err)
	}
	if err := rt.ImplementContext("Beat", benchPassThrough{}); err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	err = rt.ImplementController("Updater", benchCtrlFunc(func(call *runtime.ControllerCall) error {
		where := registry.Attributes{"location": "L42"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rebind {
				b.StopTimer()
				var err error
				if i%2 == 0 {
					err = reg.Register(extra)
				} else {
					err = reg.Unregister(extra.ID)
				}
				b.StartTimer()
				if err != nil {
					done <- err
					return nil
				}
			}
			if ps, err := call.DevicesWhere("LotPanel", where); err != nil || len(ps) != 1 {
				done <- fmt.Errorf("DevicesWhere = %d panels, %v; want 1", len(ps), err)
				return nil
			}
		}
		b.StopTimer()
		done <- nil
		return nil
	}))
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		b.Fatal(err)
	}
	pulse.Emit("beat", 1)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

type benchPassThrough struct{}

func (benchPassThrough) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	return call.Reading.Value, true, nil
}

type benchCtrlFunc func(*runtime.ControllerCall) error

func (f benchCtrlFunc) OnContext(call *runtime.ControllerCall) error { return f(call) }

// BenchmarkC5_Actuation (paper §V.B): actuating a device through a local
// driver, over TCP via the proxy layer, and across a simulated LPWAN link.
func BenchmarkC5_Actuation(b *testing.B) {
	mkPanel := func(id string) *device.Base {
		p := device.NewBase(id, "DisplayPanel", nil, nil, nil)
		p.OnAction("update", func(...any) error { return nil })
		return p
	}
	b.Run("local", func(b *testing.B) {
		p := mkPanel("p1")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Invoke("update", "7 free"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		srv, err := transport.NewServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		p := mkPanel("p1")
		srv.Host(p)
		cli, err := transport.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		drv := transport.NewRemoteDriver(cli, p.Entity(srv.Addr()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := drv.Invoke("update", "7 free"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lpwan-sim", func(b *testing.B) {
		p := transport.NewLink(mkPanel("p1"), transport.LinkProfile{
			Latency: 5 * time.Millisecond, Jitter: time.Millisecond, Seed: 1,
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.Invoke("update", "7 free"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSwarm_BusDelivery: the large-scale delivery substrate experiment.
// One round fans 50k simulated sensor readings into per-source topics, as a
// swarm-scale gather does, one bus event per reading, and checks that every
// reading was delivered. (The runtime's own fan-in batches readings into one
// ReadingBatch event per burst; that path is measured end to end by
// BenchmarkSwarm_EventStorm.)
func BenchmarkSwarm_BusDelivery(b *testing.B) {
	const topics = 64                 // distinct device-source topics
	const perTopic = 50000 / topics   // readings per topic per round
	const devices = topics * perTopic // 49984: what one round publishes
	payloads := make([][]any, topics) // topic -> readings of one round
	topicNames := make([]string, topics)
	for t := 0; t < topics; t++ {
		topicNames[t] = fmt.Sprintf("source/Kind%02d/0", t)
		payloads[t] = make([]any, perTopic)
		for i := 0; i < perTopic; i++ {
			payloads[t][i] = device.Reading{
				DeviceID: fmt.Sprintf("sw-%02d-%04d", t, i),
				Source:   "presence",
				Value:    i%3 == 0,
				Time:     benchEpoch,
			}
		}
	}
	bus := eventbus.New()
	b.Cleanup(bus.Close)
	for t := 0; t < topics; t++ {
		if _, err := bus.Subscribe(topicNames[t], func(eventbus.Event) {}, eventbus.WithQueue(1024)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < topics; t++ {
			for _, p := range payloads[t] {
				if err := bus.Publish(topicNames[t], p, benchEpoch); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// Close drains every queue, so the ledger below is final.
	bus.Close()
	b.ReportMetric(float64(devices)*float64(b.N)/b.Elapsed().Seconds(), "readings/sec")
	st, want := bus.Stats(), uint64(devices)*uint64(b.N)
	if st.Published != want || st.Delivered != want {
		b.Fatalf("bus published %d, delivered %d; want both %d", st.Published, st.Delivered, want)
	}
}

// BenchmarkSwarm_PeriodicRound: one complete pull-based gathering round over
// a 50k-sensor swarm through the real runtime (sharded-registry scan,
// parallel query, MapReduce lowering, publish, actuation) — the DiaSwarm
// workload end to end.
func BenchmarkSwarm_PeriodicRound(b *testing.B) {
	for _, sensors := range []int{10000, 50000} {
		b.Run(fmt.Sprintf("sensors=%d", sensors), func(b *testing.B) {
			vc := simclock.NewVirtual(benchEpoch)
			model, err := dsl.Load(designs.Parking)
			if err != nil {
				b.Fatal(err)
			}
			rt := runtime.New(model, runtime.WithClock(vc))
			lots := []string{"A22", "B16", "D6", "E31", "F12"}
			swarm := devsim.NewSwarm(devsim.SwarmConfig{
				Sensors: sensors, Lots: lots, Seed: 7,
			}, vc)
			for _, s := range swarm.Sensors() {
				if err := rt.BindDevice(s); err != nil {
					b.Fatal(err)
				}
			}
			for _, lot := range lots {
				p := devsim.NewRecorderDevice("panel-"+lot, "ParkingEntrancePanel",
					[]string{"ParkingEntrancePanel", "DisplayPanel"},
					registry.Attributes{"location": lot}, []string{"update"}, vc.Now)
				if err := rt.BindDevice(p); err != nil {
					b.Fatal(err)
				}
			}
			city := devsim.NewRecorderDevice("city-1", "CityEntrancePanel",
				[]string{"CityEntrancePanel", "DisplayPanel"},
				registry.Attributes{"location": "NORTH_EAST_14Y"}, []string{"update"}, vc.Now)
			if err := rt.BindDevice(city); err != nil {
				b.Fatal(err)
			}
			msgr := devsim.NewRecorderDevice("m-1", "Messenger", nil, nil, []string{"sendMessage"}, vc.Now)
			if err := rt.BindDevice(msgr); err != nil {
				b.Fatal(err)
			}
			must := func(err error) {
				if err != nil {
					b.Fatal(err)
				}
			}
			must(rt.ImplementContext("ParkingAvailability", benchAvailability{}))
			must(rt.ImplementContext("ParkingUsagePattern", benchUsage{}))
			must(rt.ImplementContext("AverageOccupancy", benchOccupancy{}))
			must(rt.ImplementContext("ParkingSuggestion", benchSuggestion{}))
			must(rt.ImplementController("ParkingEntrancePanelController", benchSink{}))
			must(rt.ImplementController("CityEntrancePanelController", benchSink{}))
			must(rt.ImplementController("MessengerController", benchSink{}))
			must(rt.Start())
			b.Cleanup(rt.Stop)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := rt.Stats().ContextPublishes
				vc.Advance(10 * time.Minute)
				for rt.Stats().ContextPublishes <= before {
					time.Sleep(20 * time.Microsecond)
				}
			}
			b.ReportMetric(float64(sensors)*float64(b.N)/b.Elapsed().Seconds(), "readings/sec")
		})
	}
}

// vacancyMonoid is the combinable vacancy aggregation shared by every
// incremental-aggregation bench: count vacant spaces per group, with the
// sum monoid's Combine/Uncombine so the incremental engine folds deltas in
// O(1). Handlers embed it and add only their trigger bookkeeping.
type vacancyMonoid struct{}

func (vacancyMonoid) Map(group string, v any, emit func(string, any)) {
	if !v.(bool) {
		emit(group, true)
	}
}
func (vacancyMonoid) Reduce(group string, vs []any, emit func(string, any)) { emit(group, len(vs)) }
func (vacancyMonoid) Combine(_ string, a, b any) any                        { return a.(int) + b.(int) }
func (vacancyMonoid) Uncombine(_ string, a, v any) any                      { return a.(int) - v.(int) }

// benchVacancy counts deliveries of the aggregate.
type benchVacancy struct {
	vacancyMonoid
	triggers atomic.Uint64
}

func (b *benchVacancy) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	b.triggers.Add(1)
	return len(call.GroupedReduced), false, nil
}

// aggBenchDesign is the grouped MapReduce periodic delivery the
// incremental engine accelerates.
const aggBenchDesign = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}

context Vacancy as Integer {
	when periodic presence from PresenceSensor <10 min>
	grouped by lot
	with map as Boolean reduce as Integer
	no publish;
}
`

// BenchmarkSwarm_IncrementalAgg: one grouped-aggregation round over a
// 50k-sensor fleet at 1%/10%/100% change rates on the delta-aware
// incremental engine, which pays O(changed) upserts plus O(dirty groups)
// re-reduction per round. The runs report the dirty-group ratio as a
// custom metric.
func BenchmarkSwarm_IncrementalAgg(b *testing.B) {
	const sensors = 50000
	const lots = 100
	lotNames := make([]string, lots)
	for i := range lotNames {
		lotNames[i] = fmt.Sprintf("L%03d", i)
	}
	for _, rate := range []float64{0.01, 0.10, 1.0} {
		b.Run(fmt.Sprintf("incremental/change=%.0f%%", rate*100), func(b *testing.B) {
			vc := simclock.NewVirtual(benchEpoch)
			model, err := dsl.Load(aggBenchDesign)
			if err != nil {
				b.Fatal(err)
			}
			rt := runtime.New(model, runtime.WithClock(vc))
			swarm := devsim.NewSwarm(devsim.SwarmConfig{
				Sensors: sensors, Lots: lotNames, GroupAttr: "lot", Seed: 7,
			}, vc)
			for _, s := range swarm.Sensors() {
				if err := rt.BindDevice(s); err != nil {
					b.Fatal(err)
				}
			}
			h := &benchVacancy{}
			if err := rt.ImplementContext("Vacancy", h); err != nil {
				b.Fatal(err)
			}
			if err := rt.Start(); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(rt.Stop)
			round := func() {
				before := h.triggers.Load()
				vc.Advance(10 * time.Minute)
				for h.triggers.Load() <= before {
					time.Sleep(10 * time.Microsecond)
				}
			}
			round() // warm: snapshot built, engine seeded with the full fleet
			st0 := rt.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				swarm.DeltaRound(rate)
				round()
			}
			b.StopTimer()
			st1 := rt.Stats()
			b.ReportMetric(float64(sensors)*float64(b.N)/b.Elapsed().Seconds(), "readings/sec")
			if total := st1.GroupsTotal - st0.GroupsTotal; total > 0 {
				dirty := st1.GroupsDirty - st0.GroupsDirty
				b.ReportMetric(100*float64(dirty)/float64(total), "%dirty-groups")
			}
		})
	}
}

// BenchmarkSwarm_RemoteFleet: polling a fleet hosted behind one remote
// endpoint, per-device Query round trips vs a single QueryBatch request —
// the transport-layer half of the zero-churn polling pipeline. One iteration
// reads every sensor once.
func BenchmarkSwarm_RemoteFleet(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		vc := simclock.NewVirtual(benchEpoch)
		swarm := devsim.NewSwarm(devsim.SwarmConfig{
			Sensors: n, Lots: []string{"A22", "B16", "D6", "E31", "F12"}, Seed: 7,
		}, vc)
		srv, err := transport.NewServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]string, n)
		for i, s := range swarm.Sensors() {
			srv.Host(s)
			ids[i] = s.ID()
		}
		cli, err := transport.Dial(srv.Addr(), transport.WithCallTimeout(time.Minute))
		if err != nil {
			b.Fatal(err)
		}
		report := func(b *testing.B) {
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "readings/sec")
		}
		b.Run(fmt.Sprintf("per-device/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, id := range ids {
					if _, err := cli.Query(id, "presence"); err != nil {
						b.Fatal(err)
					}
				}
			}
			report(b)
		})
		b.Run(fmt.Sprintf("batch/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vals, errs, err := cli.QueryBatch(ids, "presence")
				if err != nil {
					b.Fatal(err)
				}
				if len(vals) != n {
					b.Fatalf("short batch: %d", len(vals))
				}
				for j, e := range errs {
					if e != "" {
						b.Fatalf("device %s: %s", ids[j], e)
					}
				}
			}
			report(b)
		})
		cli.Close()
		srv.Close()
	}
}

// stormDesign is the event-driven (push) counterpart of the swarm's
// periodic gathering: every presence change is delivered `when provided`.
const stormDesign = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}

context OccupancyChange as Boolean {
	when provided presence from PresenceSensor
	no publish;
}
`

// stormCounter counts context deliveries.
type stormCounter struct{ n atomic.Uint64 }

func (c *stormCounter) OnTrigger(*runtime.ContextCall) (any, bool, error) {
	c.n.Add(1)
	return nil, false, nil
}

// stormBenchWorld builds the event-storm application over a swarm.
func stormBenchWorld(b *testing.B, sensors int) (*runtime.Runtime, *devsim.Swarm, *stormCounter) {
	b.Helper()
	vc := simclock.NewVirtual(benchEpoch)
	model, err := dsl.Load(stormDesign)
	if err != nil {
		b.Fatal(err)
	}
	rt := runtime.New(model, runtime.WithClock(vc))
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: []string{"L00"}, GroupAttr: "lot", Seed: 7,
	}, vc)
	for _, s := range swarm.Sensors() {
		if err := rt.BindDevice(s); err != nil {
			b.Fatal(err)
		}
	}
	delivered := &stormCounter{}
	if err := rt.ImplementContext("OccupancyChange", delivered); err != nil {
		b.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Stop)
	waitAttached(b, swarm, sensors)
	return rt, swarm, delivered
}

func waitAttached(b *testing.B, swarm *devsim.Swarm, want int) {
	b.Helper()
	for deadline := time.Now().Add(30 * time.Second); swarm.AttachedCount() != want; {
		if time.Now().After(deadline) {
			b.Fatalf("only %d/%d sensors attached", swarm.AttachedCount(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitAccounted waits until delivered plus the app's drop ledger reaches
// the accepted-event ground truth.
func waitAccounted(b *testing.B, rt *runtime.Runtime, delivered *stormCounter, want uint64) {
	b.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; {
		st := rt.Stats()
		got := delivered.n.Load() + st.Drops()
		if got >= want {
			if got > want {
				b.Fatalf("accounted %d events, ground truth %d", got, want)
			}
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("stalled at %d/%d accounted events", got, want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// BenchmarkSwarm_EventStorm: 10k/50k devices pushing readings through the
// `when provided` path: push sinks into pooled columnar ReadingBatch
// payloads (the "typed" path). One iteration emits one reading per device
// and drains the pipeline; delivered + counted drops must equal the
// accepted readings exactly. Acceptance target: ~0 steady-state
// allocs/event. The allocs/event
// metric is the process-wide malloc delta across the measured iterations
// over the measured accepted-event count — it charges the whole pipeline
// (shards, bus, dispatch, handler), not just the bench goroutine.
func BenchmarkSwarm_EventStorm(b *testing.B) {
	for _, sensors := range []int{10000, 50000} {
		b.Run(fmt.Sprintf("typed/sensors=%d", sensors), func(b *testing.B) {
			rt, swarm, delivered := stormBenchWorld(b, sensors)
			var accepted uint64
			// Warm the pipeline (shard buffers, subscription rings,
			// handler caches, batch pool) so the measured iterations are
			// steady state.
			accepted += uint64(swarm.FlipBurst(sensors))
			waitAccounted(b, rt, delivered, accepted)
			measuredFrom := accepted
			b.ReportAllocs()
			var ms stdruntime.MemStats
			stdruntime.ReadMemStats(&ms)
			mallocsFrom := ms.Mallocs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				accepted += uint64(swarm.FlipBurst(sensors))
				waitAccounted(b, rt, delivered, accepted)
			}
			b.StopTimer()
			stdruntime.ReadMemStats(&ms)
			measured := accepted - measuredFrom
			b.ReportMetric(float64(measured)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(ms.Mallocs-mallocsFrom)/float64(measured), "allocs/event")
		})
	}
}

// BenchmarkSwarm_Churn: the event storm under fleet churn. One iteration
// churns the configured fraction of the 50k fleet out and back in
// (registration, unregistration, attach/detach, possible watcher-overflow
// reconciliation) and then delivers one reading per live device. The
// acceptance criterion is steady-state per-event allocations staying flat
// as churn rises (compare allocs/op across the churn fractions).
func BenchmarkSwarm_Churn(b *testing.B) {
	const sensors = 50000
	for _, churnPct := range []int{0, 1, 10} {
		b.Run(fmt.Sprintf("churn=%d%%", churnPct), func(b *testing.B) {
			rt, swarm, delivered := stormBenchWorld(b, sensors)
			cs, err := devsim.NewChurnSwarm(swarm, devsim.ChurnHooks{
				Bind:   func(s *devsim.SwarmSensor) error { return rt.BindDevice(s) },
				Unbind: rt.UnbindDevice,
			})
			if err != nil {
				b.Fatal(err)
			}
			// stormBenchWorld already bound the whole population; adopt it
			// as the live set.
			cs.AdoptAll()
			churn := sensors * churnPct / 100
			// Steady-state warmup, as in BenchmarkSwarm_EventStorm.
			cs.StormLive(cs.LiveCount())
			waitAccounted(b, rt, delivered, cs.Expected())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if churn > 0 {
					if err := cs.Churn(churn, false); err != nil {
						b.Fatal(err)
					}
				}
				cs.StormLive(cs.LiveCount())
				waitAccounted(b, rt, delivered, cs.Expected())
			}
			b.ReportMetric(float64(cs.Expected())/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkSwarm_RegistryScan: snapshot iteration vs full Discover clones
// over a 50k-entity directory — the per-round binding cost of a periodic
// gather.
func BenchmarkSwarm_RegistryScan(b *testing.B) {
	const n = 50000
	reg := registry.New()
	defer reg.Close()
	lots := []string{"A22", "B16", "D6", "E31", "F12"}
	for i := 0; i < n; i++ {
		err := reg.Register(registry.Entity{
			ID:    registry.ID(fmt.Sprintf("s%06d", i)),
			Kind:  "PresenceSensor",
			Attrs: registry.Attributes{"parkingLot": lots[i%len(lots)]},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	q := registry.Query{Kind: "PresenceSensor"}
	b.Run("discover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := reg.Discover(q); len(got) != n {
				b.Fatal("short discover")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			count := 0
			reg.Scan(q, func(registry.Entity) bool {
				count++
				return true
			})
			if count != n {
				b.Fatal("short scan")
			}
		}
	})
}
