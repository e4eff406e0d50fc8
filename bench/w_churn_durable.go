package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/persist"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// churnDesign is the storm over a durable, churning fleet.
const churnDesign = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}

context OccupancyChange as Boolean {
	when provided presence from PresenceSensor
	no publish;
}
`

// imageDesign is what the first incarnation runs: registrations only.
const imageDesign = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}
`

const (
	// spareShare: the population is the fleet plus this share of spare
	// sensors; the seed picks which of them the durable image holds, and
	// churn rotates the rest in.
	spareShare = 0.10
	// churnShare of the fleet leaves, and as many enter, per capacity cycle.
	churnShare = 0.02
	// snapshotEvery-th capacity cycle takes a snapshot. Odd, so that in a
	// traced run, where every second cycle is recorded, snapshots fall on
	// recorded and unrecorded cycles alike.
	snapshotEvery = 15
	// In the paced phase a fiftieth of a percent of the fleet churns every
	// pacedChurnEvery — the capacity cycles' 2% of the fleet, spread over a
	// second of continuous arrivals and departures.
	pacedChurnEvery = 10 * time.Millisecond
)

// churnDurable is the churn.durable world.
type churnDurable struct {
	e     *env
	dir   string
	rt    *runtime.Runtime
	store *persist.Store
	cs    *devsim.ChurnSwarm
	ctx   *stormCtx

	cycles     int
	pacedChurn int
	nextChurn  time.Time
	walPerChg  []float64
	base       runtime.Stats
	// bootErrs: the cold boot reports one component error per recovered
	// registration, because the registry is restored before any driver is
	// re-bound; only errors after setup count against the run.
	bootErrs uint64
}

func (w *churnDurable) population() int {
	return w.e.size.fleet + int(spareShare*float64(w.e.size.fleet))
}

func (w *churnDurable) newSwarm(lots []string) *devsim.Swarm {
	return devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: w.population(), Lots: lots, GroupAttr: "lot", Seed: w.e.seed,
	}, w.e.clock)
}

func buildChurnDurable(e *env) (world, error) {
	w := &churnDurable{e: e, pacedChurn: max(e.size.fleet/5000, 1)}
	var err error
	if w.dir, err = e.tmpDir("durable-"); err != nil {
		return nil, err
	}
	lots := e.lotNames(e.size.lots)
	if err := e.setup("persist.image", func() error { return w.buildImage(lots) }); err != nil {
		return nil, err
	}

	// Cold boot from the crash image: open the store, load the snapshot,
	// replay the WAL tail, restore every registration.
	model, err := dsl.Load(churnDesign)
	if err != nil {
		return nil, err
	}
	err = e.setup("persist.recover", func() error {
		w.rt = runtime.New(model, runtime.WithClock(simclock.Real{}), stormIngest,
			runtime.WithPersistence(w.dir, persist.Options{}))
		w.ctx = &stormCtx{rec: e.rec}
		if err := w.rt.ImplementContext("OccupancyChange", w.ctx); err != nil {
			return err
		}
		return w.rt.Start()
	})
	if err != nil {
		return nil, err
	}
	w.store = w.rt.Persistence()
	rec := w.store.Recovered()
	if rec == nil {
		return nil, fmt.Errorf("cold boot recovered nothing from %s", w.dir)
	}
	if len(rec.Entities) != e.size.fleet {
		return nil, fmt.Errorf("recovered %d registrations, want %d", len(rec.Entities), e.size.fleet)
	}
	restored := make(map[string]bool, len(rec.Entities))
	for _, re := range rec.Entities {
		restored[string(re.Entity.ID)] = true
	}
	if w.cs, err = devsim.NewChurnSwarm(w.newSwarm(lots), devsim.ChurnHooks{
		Bind:   func(s *devsim.SwarmSensor) error { return w.rt.BindDevice(s) },
		Unbind: w.rt.UnbindDevice,
	}); err != nil {
		return nil, err
	}
	// The reborn node re-binds exactly the recovered registrations, through
	// registry reclaim.
	err = e.setup("registry.bind", func() error {
		return w.cs.RebindMatching(func(s *devsim.SwarmSensor) bool { return restored[s.ID()] })
	})
	if err != nil {
		return nil, err
	}
	if err := w.settle(e.setupSpan, e.setupOp); err != nil {
		return nil, err
	}
	w.bootErrs = w.rt.Stats().Errors
	w.nextChurn = time.Now().Add(pacedChurnEvery)
	return w, nil
}

// buildImage leaves in w.dir the crash image of a node owning a seed-chosen
// fleet out of the population: half of it captured in a snapshot, the other
// half in the WAL tail behind it, then a barrier and a crash — as a power
// failure would leave it.
func (w *churnDurable) buildImage(lots []string) error {
	rt := runtime.New(dsl.MustLoad(imageDesign), runtime.WithClock(simclock.Real{}),
		runtime.WithPersistence(w.dir, persist.Options{}))
	if err := rt.Start(); err != nil {
		return err
	}
	defer rt.Stop()
	sensors := w.newSwarm(lots).Sensors()
	fleet := w.e.size.fleet
	for i, idx := range w.e.rng.Perm(len(sensors))[:fleet] {
		if i == fleet/2 {
			if err := rt.Persistence().Snapshot(); err != nil {
				return err
			}
		}
		if err := rt.BindDevice(sensors[idx]); err != nil {
			return err
		}
	}
	if err := rt.Persistence().Barrier(); err != nil {
		return err
	}
	rt.Persistence().Crash()
	return nil
}

// settle waits until the program's attachments match the intended fleet:
// every live sensor attached, every churned-out one detached.
func (w *churnDurable) settle(parent int, op int64) error {
	return w.e.timed("settle", parent, op, func() error {
		for start := time.Now(); !w.cs.Settled(); pause(start) {
			if time.Since(start) > stallLimit {
				return fmt.Errorf("attachments did not settle within %v", stallLimit)
			}
		}
		return nil
	})
}

// churnChunk sensors leave and enter at a time, and the attachments settle
// before the next chunk. Two notifications per sensor keep a chunk below the
// program's 64-entry registry watcher buffers: whether a bigger burst
// overflows them (forcing a full-fleet reconcile scan) is a scheduling race
// between the generator and the program's tracker, and a workload whose cost
// flips between those two modes cannot be compared from run to run.
const churnChunk = 24

// churn rotates n sensors out and n in (journaled), in chunks, waiting after
// each for the attachments to follow.
func (w *churnDurable) churn(n, parent int, op int64) error {
	for n > 0 {
		k := min(n, churnChunk)
		n -= k
		if err := w.e.timed("registry.churn", parent, op, func() error { return w.cs.Churn(k, false) }); err != nil {
			return err
		}
		if err := w.settle(parent, op); err != nil {
			return err
		}
	}
	return nil
}

// burst is one capacity cycle: churn 2% of the fleet, make it durable,
// storm every live sensor; every 15th cycle also snapshots.
func (w *churnDurable) burst(parent int, op int64) (int, error) {
	e := w.e
	n := max(int(churnShare*float64(e.size.fleet)), 1)
	w.cycles++
	snap := w.cycles%snapshotEvery == 0
	before, err := dirSize(w.dir)
	if err != nil {
		return 0, err
	}
	if err := w.churn(n, parent, op); err != nil {
		return 0, err
	}
	if err := e.timed("persist.barrier", parent, op, w.store.Barrier); err != nil {
		return 0, err
	}
	after, err := dirSize(w.dir)
	if err != nil {
		return 0, err
	}
	// n unregistrations and n registrations were journaled; a cycle across
	// a segment rotation or a snapshot's pruning is not a clean sample.
	if after > before && !snap {
		w.walPerChg = append(w.walPerChg, float64(after-before)/float64(2*n))
	}
	if snap {
		if err := e.timed("persist.snapshot", parent, op, w.store.Snapshot); err != nil {
			return 0, err
		}
	}
	live := w.cs.LiveCount()
	start := time.Now()
	w.cs.StormLive(live)
	e.admit(parent, op, start, time.Now(), live)
	return live, nil
}

func (w *churnDurable) tick(n int, op int64) (int, error) {
	if !time.Now().Before(w.nextChurn) {
		w.nextChurn = w.nextChurn.Add(pacedChurnEvery)
		if err := w.churn(w.pacedChurn, 0, op); err != nil {
			return 0, err
		}
	}
	w.cs.StormLive(n)
	return n, nil
}

func (w *churnDurable) accepted() uint64  { return w.cs.Expected() }
func (w *churnDurable) delivered() uint64 { return w.ctx.n.Load() }
func (w *churnDurable) dropped() uint64   { return ingestDrops(w.rt.Stats()) }
func (w *churnDurable) baseline()         { w.base = w.rt.Stats() }

func (w *churnDurable) check() error {
	st := w.rt.Stats()
	if err := exact("churn.durable readings", w.ctx.n.Load(), ingestDrops(st), w.cs.Expected()); err != nil {
		return err
	}
	if f := w.cs.Forbidden(); f != 0 {
		return fmt.Errorf("churn.durable: %d readings accepted from churned-out sensors", f)
	}
	// Churned-out sensors must really be detached: flipping them now must
	// reach nothing.
	if stale := w.cs.StormDead(w.pacedChurn); stale != 0 {
		return fmt.Errorf("churn.durable: %d readings accepted from churned-out sensors after settling", stale)
	}
	if got := w.rt.Registry().Count(); got != w.e.size.fleet {
		return fmt.Errorf("churn.durable: %d registrations, want the fleet of %d", got, w.e.size.fleet)
	}
	if st.Errors != w.bootErrs {
		return fmt.Errorf("churn.durable: %d component errors after setup", st.Errors-w.bootErrs)
	}
	return nil
}

func (w *churnDurable) layers(m map[string]float64) error {
	e := w.e
	ingestLayers(m, w.base, w.rt.Stats())
	m["persist.barrier_ms"] = e.medianMs("persist.barrier")
	m["persist.snapshot_ms"] = e.medianMs("persist.snapshot")
	m["persist.recover_ms"] = e.medianMs("persist.recover")
	m["persist.wal_bytes_per_change"] = median(w.walPerChg)
	// Binds and unbinds under traffic: one churn span covers 2n of them.
	n := max(int(churnShare*float64(e.size.fleet)), 1)
	m["registry.bind_us"] = e.medianMs("registry.churn") * 1e3 / float64(2*min(n, churnChunk))
	m["registry.scan_ms"] = probeRegistryScan(e, w.rt.Registry(), "PresenceSensor")
	m["eventbus.publish_ns_per_event"] = probeBusPublish(e, int(m["runtime.batch_size"]), 1)
	return nil
}

func (w *churnDurable) close() {
	w.rt.Stop()
	os.RemoveAll(w.dir)
}

// dirSize sums the sizes of the files directly in dir.
func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, de := range entries {
		info, err := os.Stat(filepath.Join(dir, de.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned between the listing and the stat
			}
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
