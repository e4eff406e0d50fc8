package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// gatherDesign is the paper's city parking round: every ten minutes the
// occupancy of every space is gathered, grouped by lot, reduced to a vacancy
// count per lot, and pushed to the lots' entrance panels, discovered by their
// location as in the paper's Figure 11.
const gatherDesign = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}

device LotPanel {
	attribute location as String;
	action update(free as Integer, round as Integer);
}

context LotVacancy as Integer {
	when periodic presence from PresenceSensor <10 min>
	grouped by lot
	with map as Boolean reduce as Integer
	always publish;
}

controller PanelUpdater {
	when provided LotVacancy
	do update on LotPanel;
}
`

const (
	gatherPeriod      = 10 * time.Minute
	gatherPollWorkers = 1
)

var gatherEpoch = time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC)

// changeFraction is the share of the fleet that flips between two rounds:
// the swarm model's 0.6/h turnover over a ten-minute period.
const changeFraction = 0.10

// vacancy is the combinable vacancy count (sum monoid), so the runtime's
// incremental engine folds a round's deltas in O(changed).
type vacancy struct{ epoch time.Time }

func (vacancy) Map(lot string, v any, emit func(string, any)) {
	if !v.(bool) {
		emit(lot, true)
	}
}
func (vacancy) Reduce(lot string, vs []any, emit func(string, any)) { emit(lot, len(vs)) }
func (vacancy) Combine(_ string, a, b any) any                      { return a.(int) + b.(int) }
func (vacancy) Uncombine(_ string, acc, v any) any                  { return acc.(int) - v.(int) }

// roundResult is what the context publishes: the per-lot counts (copied —
// the aggregate is engine-owned) and which round they belong to, recovered
// from the delivery's virtual time.
type roundResult struct {
	round  int64
	counts map[string]int
}

func (v vacancy) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	out := roundResult{
		round:  int64(call.Time.Sub(v.epoch) / gatherPeriod),
		counts: make(map[string]int, len(call.GroupedReduced)),
	}
	for lot, n := range call.GroupedReduced {
		out.counts[lot] = n.(int)
	}
	return out, true, nil
}

// panelUpdater pushes each lot's count to the lot's panels.
type panelUpdater struct{}

func (panelUpdater) OnContext(call *runtime.ControllerCall) error {
	res := call.Value.(roundResult)
	for lot, free := range res.counts {
		panels, err := call.DevicesWhere("LotPanel", registry.Attributes{"location": lot})
		if err != nil {
			return err
		}
		for _, p := range panels {
			if err := p.Invoke("update", free, res.round); err != nil {
				return err
			}
		}
	}
	return nil
}

// roundState is the generator's record of one round, completed by the
// panels.
type roundState struct {
	due   int64          // unix ns the round was due
	truth map[string]int // Swarm.VacantPerLot() after the round's flips
	got   map[string]int // what the panels were told
	first int64          // first and last panel update, unix ns
	last  int64
}

// panelBoard is the benchmark-owned far end of the gather: the lot panels
// report into it, and a round is observed when its last panel is updated.
type panelBoard struct {
	lots int
	rec  *recorder

	mu         sync.Mutex
	rounds     map[int64]*roundState
	done       uint64 // rounds fully updated
	mismatches []string
	actuateMs  []float64
	lastFirst  int64 // first and last panel update of the latest round
	lastLast   int64
}

func (b *panelBoard) update(lot string, free int, round int64) {
	now := time.Now().UnixNano()
	b.mu.Lock()
	defer b.mu.Unlock()
	rs := b.rounds[round]
	if rs == nil {
		b.mismatches = append(b.mismatches, fmt.Sprintf("panel %s updated for unknown round %d", lot, round))
		return
	}
	if rs.first == 0 {
		rs.first = now
	}
	rs.got[lot] = free
	if len(rs.got) < b.lots {
		return
	}
	rs.last = now
	b.done++
	b.actuateMs = append(b.actuateMs, ms(rs.last-rs.first))
	b.lastFirst, b.lastLast = rs.first, rs.last
	for l, want := range rs.truth {
		if rs.got[l] != want {
			b.mismatches = append(b.mismatches,
				fmt.Sprintf("round %d lot %s: panel shows %d free, ground truth %d", round, l, rs.got[l], want))
			break
		}
	}
	b.rec.observe(rs.due)
	delete(b.rounds, round)
}

// gatherAgg is the gather.agg world.
type gatherAgg struct {
	*swarmStorm
	rt    *runtime.Runtime
	vc    *simclock.Virtual
	board *panelBoard
	round int64
	base  runtime.Stats
}

func buildGatherAgg(e *env) (world, error) {
	model, err := dsl.Load(gatherDesign)
	if err != nil {
		return nil, err
	}
	w := &gatherAgg{vc: simclock.NewVirtual(gatherEpoch)}
	// The design's ten-minute period is stepped on a virtual clock; every
	// latency is still taken on the real one. The query pool is sized for
	// this two-core box: with the default 32 workers a round flips, per
	// process, between about 12 ms and 19 ms depending on how the scheduler
	// places the workers around the per-target cursor, and no run-to-run
	// comparison survives that; one worker always runs the fast mode.
	w.rt = runtime.New(model, runtime.WithClock(w.vc), runtime.WithPollWorkers(gatherPollWorkers))
	if err := w.rt.ImplementContext("LotVacancy", vacancy{gatherEpoch}); err != nil {
		return nil, err
	}
	if err := w.rt.ImplementController("PanelUpdater", panelUpdater{}); err != nil {
		return nil, err
	}
	w.swarmStorm = newSwarmStorm(e, "lot")
	w.board = &panelBoard{lots: e.size.lots, rec: e.rec, rounds: make(map[int64]*roundState)}
	if err := w.bindAll(func(d device.Driver) error { return w.rt.BindDevice(d) }); err != nil {
		return nil, err
	}
	for _, lot := range w.swarm.Lots() {
		lot := lot
		p := device.NewBase("panel-"+lot, "LotPanel", nil, registry.Attributes{"location": lot}, time.Now)
		p.OnAction("update", func(args ...any) error {
			w.board.update(lot, args[0].(int), args[1].(int64))
			return nil
		})
		if err := w.rt.BindDevice(p); err != nil {
			return nil, err
		}
	}
	if err := w.rt.Start(); err != nil {
		return nil, err
	}
	return w, nil
}

// roundOnce is one round: flip a tenth of the fleet, record the ground
// truth, and step the virtual clock one period, which makes the poller
// gather all sensors. The round is due at the clock's current time.
//
// The program's ticker drops a tick that finds the previous one still
// unconsumed, and a gather that reads the fleet while it flips cannot be
// compared with any ground truth. So a round whose predecessor's gather is
// still running — after a stall longer than a whole tick — is held until
// that gather is done; it keeps its due time, so the hold is charged to it.
func (w *gatherAgg) roundOnce(parent int, op int64) error {
	for start := time.Now(); w.rt.Stats().PeriodicPolls < uint64(w.round); pause(start) {
		if time.Since(start) > stallLimit {
			return fmt.Errorf("gather of round %d still running after %v", w.round, stallLimit)
		}
	}
	w.round++
	r := w.round
	start := time.Now()
	w.swarm.DeltaRound(changeFraction)
	truth := w.swarm.VacantPerLot()
	flipped := time.Now()
	w.board.mu.Lock()
	w.board.rounds[r] = &roundState{
		due: w.e.clock.Now().UnixNano(), truth: truth, got: make(map[string]int, len(truth)),
	}
	w.board.mu.Unlock()
	w.vc.Advance(gatherPeriod)
	w.e.span("flip", parent, op, start, flipped)
	w.e.span("advance", parent, op, flipped, time.Now())
	w.acc += uint64(w.e.size.fleet)
	return nil
}

func (w *gatherAgg) burst(parent int, op int64) (int, error) {
	return w.e.size.fleet, w.roundOnce(parent, op)
}

func (w *gatherAgg) tick(_ int, op int64) (int, error) {
	return w.e.size.fleet, w.roundOnce(0, op)
}

// drained places the round's actuation fan-out (first to last panel update)
// inside its drain; what precedes it there is the gather itself.
func (w *gatherAgg) drained(parent int, op int64) {
	w.board.mu.Lock()
	first, last := w.board.lastFirst, w.board.lastLast
	w.board.mu.Unlock()
	w.e.tr.add("runtime.actuate", parent, op, time.Unix(0, first), time.Unix(0, last), nil)
}

// delivered counts gathered readings of completed rounds: a round's
// readings are delivered when its last panel is updated.
func (w *gatherAgg) delivered() uint64 {
	w.board.mu.Lock()
	defer w.board.mu.Unlock()
	return w.board.done * uint64(w.e.size.fleet)
}

func (w *gatherAgg) dropped() uint64 { return 0 }

func (w *gatherAgg) baseline() { w.base = w.rt.Stats() }

func (w *gatherAgg) check() error {
	w.board.mu.Lock()
	defer w.board.mu.Unlock()
	if len(w.board.mismatches) > 0 {
		return fmt.Errorf("gather.agg: %d mismatches, first: %s", len(w.board.mismatches), w.board.mismatches[0])
	}
	if st := w.rt.Stats(); st.Errors != 0 {
		return fmt.Errorf("gather.agg: %d component errors", st.Errors)
	}
	if w.board.done != uint64(w.round) {
		return fmt.Errorf("gather.agg: %d of %d rounds reached the panels", w.board.done, w.round)
	}
	return nil
}

func (w *gatherAgg) layers(m map[string]float64) error {
	st := w.rt.Stats()
	ingestLayers(m, w.base, st)
	if total := st.GroupsTotal - w.base.GroupsTotal; total > 0 {
		m["mapreduce.dirty_ratio"] = float64(st.GroupsDirty-w.base.GroupsDirty) / float64(total)
	}
	w.board.mu.Lock()
	m["runtime.actuate_ms"] = median(w.board.actuateMs)
	w.board.mu.Unlock()
	e := w.e
	m["registry.bind_us"] = e.bindUs(e.size.fleet)
	m["registry.scan_ms"] = probeRegistryScan(e, w.rt.Registry(), "PresenceSensor")
	ids := make([]string, e.size.fleet)
	groups := make([]string, e.size.fleet)
	// Lot-major order, as DeltaRound walks the fleet.
	lots := w.swarm.Lots()
	sensors := w.swarm.Sensors()
	n := 0
	for l := range lots {
		for i := l; i < len(sensors); i += len(lots) {
			ids[n], groups[n] = sensors[i].ID(), lots[l]
			n++
		}
	}
	m["mapreduce.flush_ms"] = probeMapReduce(e, ids, groups, int(changeFraction*float64(e.size.fleet)))
	return nil
}

func (w *gatherAgg) close() { w.rt.Stop() }
