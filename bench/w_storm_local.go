package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// stormLocalDesign: every presence change is delivered event-driven to one
// context, which publishes on a fraction of them; a controller turns each
// publication into one actuation. The due-time stamp rides along as the
// published Integer, so the actuator can time the whole loop.
const stormLocalDesign = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}

device LotPanel {
	attribute zone as String;
	action update(stamp as Integer);
}

context OccupancyChange as Integer {
	when provided presence from PresenceSensor
	maybe publish;
}

controller PanelRefresh {
	when provided OccupancyChange
	do update on LotPanel;
}
`

// publishEvery: the storm context publishes on every 128th delivery.
const publishEvery = 128

// stormBudget is the in-flight admission budget of the storm workloads'
// ingestion pipelines and forwarding links: more than half a second of
// traffic at the fastest paced rate, where the default 65,536 is under
// 100 ms. This shared VM stalls for 100 ms now and then, and such a stall
// must not end in dropped readings; a pipeline that falls half a second
// behind still does drop, and the drops are counted as failed ops.
const stormBudget = 1 << 19

var stormIngest = runtime.WithIngestConfig(runtime.IngestConfig{Budget: stormBudget})

// stormCtx is the benchmark-owned far end of a `when provided` storm: it
// counts every delivery and samples latency by sequence number.
type stormCtx struct {
	n       atomic.Uint64
	rec     *recorder
	publish uint64 // publish on every publish-th delivery; 0 = never
}

func (c *stormCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	n := c.n.Add(1)
	due := call.Reading.Time.UnixNano()
	if n%c.rec.every == 0 {
		c.rec.observe(due)
	}
	if c.publish != 0 && n%c.publish == 0 {
		return due, true, nil
	}
	return nil, false, nil
}

// stampPanel is a benchmark-owned actuator: `update(stamp)` records how long
// after the stamp the actuation arrived.
type stampPanel struct {
	*device.Base
	n   atomic.Uint64
	rec *recorder
}

func newStampPanel(id, kind string, attrs registry.Attributes, rec *recorder) *stampPanel {
	p := &stampPanel{Base: device.NewBase(id, kind, nil, attrs, time.Now), rec: rec}
	p.OnAction("update", func(args ...any) error {
		stamp, ok := args[0].(int64)
		if !ok {
			return fmt.Errorf("panel %s: update(%T), want the int64 stamp", id, args[0])
		}
		p.n.Add(1)
		rec.observe(stamp)
		return nil
	})
	return p
}

// panelRefresh forwards each published stamp to the panels of one zone,
// discovered per call by attribute (the paper's
// `discover.panels().whereLocation(…)` idiom).
type panelRefresh struct {
	kind  string
	where registry.Attributes
}

func (c panelRefresh) OnContext(call *runtime.ControllerCall) error {
	panels, err := call.DevicesWhere(c.kind, c.where)
	if err != nil {
		return err
	}
	for _, p := range panels {
		if err := p.Invoke("update", call.Value); err != nil {
			return err
		}
	}
	return nil
}

// swarmStorm is the part every single-swarm storm shares: a seeded flip
// order over a devsim.Swarm whose clock is the benchmark's due-time clock.
type swarmStorm struct {
	e     *env
	swarm *devsim.Swarm
	order []int
	pos   int
	acc   uint64
}

func newSwarmStorm(e *env, groupAttr string) *swarmStorm {
	s := &swarmStorm{e: e}
	s.swarm = devsim.NewSwarm(devsim.SwarmConfig{
		Sensors:   e.size.fleet,
		Lots:      e.lotNames(e.size.lots),
		GroupAttr: groupAttr,
		Seed:      e.seed,
	}, e.clock)
	s.order = e.rng.Perm(e.size.fleet)
	return s
}

// emit flips the next n sensors of the seeded order; each flip pushes one
// reading, stamped by the due-time clock, into whatever is attached.
func (s *swarmStorm) emit(n int) {
	accepted := 0
	for i := 0; i < n; i++ {
		if s.swarm.Flip(s.order[s.pos]) {
			accepted++
		}
		if s.pos++; s.pos == len(s.order) {
			s.pos = 0
		}
	}
	s.acc += uint64(accepted)
}

// burst emits one reading per sensor inside a runtime.admit span.
func (s *swarmStorm) burst(parent int, op int64) (int, error) {
	n := len(s.order)
	start := time.Now()
	s.emit(n)
	s.e.admit(parent, op, start, time.Now(), n)
	return n, nil
}

func (s *swarmStorm) accepted() uint64 { return s.acc }

// waitAttached waits until the program has attached to all n sensors.
func (s *swarmStorm) waitAttached(n int) error {
	for deadline := time.Now().Add(stallLimit); s.swarm.AttachedCount() != n; {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d sensors attached after %v", s.swarm.AttachedCount(), n, stallLimit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// bindAll binds every sensor of the swarm through bind, as one
// registry.bind span under the setup span.
func (s *swarmStorm) bindAll(bind func(device.Driver) error) error {
	return s.e.setup("registry.bind", func() error {
		for _, d := range s.swarm.Sensors() {
			if err := bind(d); err != nil {
				return err
			}
		}
		return nil
	})
}

// stormLocal is the storm.local world: one runtime, everything in process.
type stormLocal struct {
	*swarmStorm
	rt    *runtime.Runtime
	ctx   *stormCtx
	panel *stampPanel
	base  runtime.Stats
}

func buildStormLocal(e *env) (world, error) {
	w := &stormLocal{}
	model, err := dsl.Load(stormLocalDesign)
	if err != nil {
		return nil, err
	}
	w.rt = runtime.New(model, runtime.WithClock(simclock.Real{}), stormIngest)
	w.ctx = &stormCtx{rec: e.rec, publish: publishEvery}
	zone := registry.Attributes{"zone": "all"}
	w.panel = newStampPanel("panel-0", "LotPanel", zone, e.act)
	if err := w.rt.ImplementContext("OccupancyChange", w.ctx); err != nil {
		return nil, err
	}
	if err := w.rt.ImplementController("PanelRefresh", panelRefresh{"LotPanel", zone}); err != nil {
		return nil, err
	}
	if err := w.rt.Start(); err != nil {
		return nil, err
	}
	w.swarmStorm = newSwarmStorm(e, "lot")
	if err := w.rt.BindDevice(w.panel); err != nil {
		return nil, err
	}
	if err := w.bindAll(func(d device.Driver) error { return w.rt.BindDevice(d) }); err != nil {
		return nil, err
	}
	if err := w.waitAttached(e.size.fleet); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *stormLocal) tick(n int, _ int64) (int, error) {
	w.emit(n)
	return n, nil
}

func (w *stormLocal) delivered() uint64 { return w.ctx.n.Load() }

func (w *stormLocal) dropped() uint64 { return ingestDrops(w.rt.Stats()) }

// ingestDrops sums the counters an admitted-or-refused reading can end in
// instead of a delivery.
func ingestDrops(st runtime.Stats) uint64 {
	return st.IngestBudgetDrops + st.IngestDeadlineDrops + st.IngestDrainDrops
}

func (w *stormLocal) baseline() { w.base = w.rt.Stats() }

func (w *stormLocal) check() error {
	st := w.rt.Stats()
	got, drops := w.ctx.n.Load(), ingestDrops(st)
	if err := exact("storm.local readings", got, drops, w.acc); err != nil {
		return err
	}
	// Every 128th delivery published; each publication must have reached
	// the controller and the panel exactly once.
	want := got / publishEvery
	if err := waitCount("panel updates", want, w.panel.n.Load); err != nil {
		return err
	}
	if st = w.rt.Stats(); st.ContextPublishes != want || st.ControllerTriggers != want || st.Errors != 0 {
		return fmt.Errorf("storm.local: %d publications, %d controller triggers, %d errors; want %d, %d, 0",
			st.ContextPublishes, st.ControllerTriggers, st.Errors, want, want)
	}
	return nil
}

// exact is the storm output check: delivered plus counted drops must equal
// the accepted ground truth, exactly.
func exact(what string, delivered, dropped, accepted uint64) error {
	if delivered+dropped != accepted {
		return fmt.Errorf("%s: delivered %d + dropped %d = %d, accepted ground truth %d (off by %d)",
			what, delivered, dropped, delivered+dropped, accepted, int64(delivered+dropped)-int64(accepted))
	}
	return nil
}

// waitCount waits for a counter behind the last hop to settle at want.
func waitCount(what string, want uint64, get func() uint64) error {
	for deadline := time.Now().Add(drainGrace); ; {
		got := get()
		if got == want {
			return nil
		}
		if got > want || time.Now().After(deadline) {
			return fmt.Errorf("%s: %d, want exactly %d", what, got, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (w *stormLocal) layers(m map[string]float64) error {
	st := w.rt.Stats()
	ingestLayers(m, w.base, st)
	m["registry.bind_us"] = w.e.bindUs(w.e.size.fleet)
	m["registry.scan_ms"] = probeRegistryScan(w.e, w.rt.Registry(), "PresenceSensor")
	m["eventbus.publish_ns_per_event"] = probeBusPublish(w.e, int(m["runtime.batch_size"]), 1)
	return nil
}

// ingestLayers derives the ingestion pipeline's counter ratios.
func ingestLayers(m map[string]float64, from, to runtime.Stats) {
	if b := to.IngestBatches - from.IngestBatches; b > 0 {
		m["runtime.batch_size"] = float64(to.IngestEvents-from.IngestEvents) / float64(b)
	}
	m["runtime.poll_rebuilds"] = float64(to.PollSnapshotRebuilds - from.PollSnapshotRebuilds)
}

func (w *stormLocal) close() { w.rt.Stop() }
