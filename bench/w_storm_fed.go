package main

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// The federated storm: the edge node owns the sensors and forwards their
// readings; the hub node runs the context. Both are in this process but
// talk over loopback TCP exactly as two machines would.
const fedHubDesign = `
device PresenceSensor {
	attribute zone as String;
	source presence as Boolean;
}

context Occupancy as Boolean {
	when provided presence from PresenceSensor
	no publish;
}
`

const fedEdgeDesign = `
device PresenceSensor {
	attribute zone as String;
	source presence as Boolean;
}
`

const (
	fedMaxBatch  = 256
	fedSyncEvery = time.Second
)

// stormFed is the storm.fed world.
type stormFed struct {
	*swarmStorm
	hubRT, edgeRT *runtime.Runtime
	hub, edge     *federation.Node
	ctx           *stormCtx
	nextSync      time.Time

	baseHub         runtime.Stats
	baseEdge        federation.Stats
	baseSent, baseR uint64
}

func buildStormFed(e *env) (world, error) {
	w := &stormFed{}
	hubModel, err := dsl.Load(fedHubDesign)
	if err != nil {
		return nil, err
	}
	w.hubRT = runtime.New(hubModel, runtime.WithClock(simclock.Real{}), stormIngest)
	w.ctx = &stormCtx{rec: e.rec}
	if err := w.hubRT.ImplementContext("Occupancy", w.ctx); err != nil {
		return nil, err
	}
	if err := w.hubRT.Start(); err != nil {
		return nil, err
	}
	if w.hub, err = federation.New(federation.Config{Name: "hub", Runtime: w.hubRT}); err != nil {
		return nil, err
	}
	edgeModel, err := dsl.Load(fedEdgeDesign)
	if err != nil {
		return nil, err
	}
	w.edgeRT = runtime.New(edgeModel, runtime.WithClock(simclock.Real{}))
	if err := w.edgeRT.Start(); err != nil {
		return nil, err
	}
	if w.edge, err = federation.New(federation.Config{
		Name: "edge", Runtime: w.edgeRT,
		Exports: []federation.Export{{Kind: "PresenceSensor", Source: "presence"}},
	}); err != nil {
		return nil, err
	}
	// Two connections in all, one per direction: edge→hub carries the
	// event batches, hub→edge the registry sync.
	if err := w.edge.AddPeer(federation.PeerConfig{
		Name: "hub", Addr: w.hub.Addr(), ForwardEvents: true, MaxBatch: fedMaxBatch,
		ForwardBudget: stormBudget, Seed: e.seed,
	}); err != nil {
		return nil, err
	}
	if err := w.hub.AddPeer(federation.PeerConfig{
		Name: "edge", Addr: w.edge.Addr(), Import: []string{"PresenceSensor"}, Seed: e.seed,
	}); err != nil {
		return nil, err
	}
	w.swarmStorm = newSwarmStorm(e, "zone")
	if err := w.bindAll(func(d device.Driver) error { return w.edgeRT.BindDevice(d) }); err != nil {
		return nil, err
	}
	if err := w.waitAttached(e.size.fleet); err != nil {
		return nil, err
	}
	if err := w.sync(e.setupSpan, e.setupOp); err != nil {
		return nil, err
	}
	if got := w.hub.MirrorCount("edge", "PresenceSensor"); got != e.size.fleet {
		return nil, fmt.Errorf("hub mirrors %d sensors, want %d", got, e.size.fleet)
	}
	if err := w.quiesce(); err != nil {
		return nil, err
	}
	w.nextSync = time.Now().Add(fedSyncEvery)
	return w, nil
}

func (w *stormFed) sync(parent int, op int64) error {
	return w.e.timed("federation.sync", parent, op, w.hub.SyncPeers)
}

// quiesce waits until the bind storm's fallout — watcher-overflow
// reconciles on the hub's source tracker and the edge's exporter — has
// stopped, so the measured phases see steady state.
func (w *stormFed) quiesce() error {
	return w.e.setup("settle", func() error {
		for deadline := time.Now().Add(stallLimit); ; {
			before := w.hubRT.Stats().TrackerReconciles + w.edge.Stats().ExporterReconciles
			time.Sleep(20 * time.Millisecond)
			if w.hubRT.Stats().TrackerReconciles+w.edge.Stats().ExporterReconciles == before {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("reconciles never quiesced")
			}
		}
	})
}

// syncIfDue runs the hub's once-a-second registry sync from the generator,
// between bursts or ticks.
func (w *stormFed) syncIfDue(parent int, op int64) error {
	if time.Now().Before(w.nextSync) {
		return nil
	}
	w.nextSync = w.nextSync.Add(fedSyncEvery)
	return w.sync(parent, op)
}

func (w *stormFed) burst(parent int, op int64) (int, error) {
	if err := w.syncIfDue(parent, op); err != nil {
		return 0, err
	}
	return w.swarmStorm.burst(parent, op)
}

func (w *stormFed) tick(n int, op int64) (int, error) {
	if err := w.syncIfDue(0, op); err != nil {
		return 0, err
	}
	w.emit(n)
	return n, nil
}

func (w *stormFed) delivered() uint64 { return w.ctx.n.Load() }

// dropped sums every counter a reading accepted on the edge can end in
// short of the hub's context.
func (w *stormFed) dropped() uint64 {
	hst, est := w.hubRT.Stats(), w.edge.Stats()
	return ingestDrops(hst) + hst.FederationEventDrops +
		est.ForwardBudgetDrops + est.ForwardSendDrops + est.ForwardUnrouted
}

func (w *stormFed) baseline() {
	w.baseHub, w.baseEdge = w.hubRT.Stats(), w.edge.Stats()
	w.baseSent, w.baseR = w.edge.PeerBytes("hub")
}

func (w *stormFed) check() error {
	if err := exact("storm.fed readings", w.ctx.n.Load(), w.dropped(), w.acc); err != nil {
		return err
	}
	hst, est := w.hubRT.Stats(), w.edge.Stats()
	if est.EventsForwarded != hst.FederationEventsIn {
		return fmt.Errorf("storm.fed: edge forwarded %d readings, hub admitted %d", est.EventsForwarded, hst.FederationEventsIn)
	}
	if hst.Errors != 0 || est.SyncErrors != 0 || w.hub.Stats().SyncErrors != 0 {
		return fmt.Errorf("storm.fed: %d hub errors, %d+%d sync errors", hst.Errors, est.SyncErrors, w.hub.Stats().SyncErrors)
	}
	return nil
}

func (w *stormFed) layers(m map[string]float64) error {
	e := w.e
	hst, est := w.hubRT.Stats(), w.edge.Stats()
	ingestLayers(m, w.baseHub, hst)
	sent, recv := w.edge.PeerBytes("hub")
	if ops := hst.FederationEventsIn - w.baseHub.FederationEventsIn; ops > 0 {
		m["transport.link_bytes_per_event"] = float64(sent-w.baseSent+recv-w.baseR) / float64(ops)
	}
	m["federation.sync_ms"] = e.medianMs("federation.sync")
	m["federation.retries"] = float64(est.ForwardRetries - w.baseEdge.ForwardRetries)
	m["federation.spool_drops"] = float64(est.ForwardSendDrops + est.ForwardBudgetDrops -
		w.baseEdge.ForwardSendDrops - w.baseEdge.ForwardBudgetDrops)
	m["registry.bind_us"] = e.bindUs(e.size.fleet)
	m["registry.scan_ms"] = probeRegistryScan(e, w.hubRT.Registry(), "PresenceSensor")
	m["eventbus.publish_ns_per_event"] = probeBusPublish(e, int(m["runtime.batch_size"]), 1)

	// The RPC probe replays the workload's own readings: the first sensors
	// of the seeded flip order, one shared stamp, MaxBatch per call.
	batches := 64
	if max := len(w.order) / fedMaxBatch; batches > max {
		batches = max
	}
	readings := make([]device.Reading, batches*fedMaxBatch)
	stamp := time.Unix(0, 1_500_000_000_000_000_000)
	sensors := w.swarm.Sensors()
	for i := range readings {
		readings[i] = device.Reading{DeviceID: sensors[w.order[i]].ID(), Source: "presence", Value: i%2 == 0, Time: stamp}
	}
	us, bytes, fallbacks, err := probeTransport(e, readings, fedMaxBatch)
	if err != nil {
		return err
	}
	m["transport.rpc_us_per_batch"] = us
	m["transport.wire_bytes_per_event"] = bytes
	m["transport.codec_fallbacks"] = fallbacks + float64(est.CodecFallbacks-w.baseEdge.CodecFallbacks)
	return nil
}

func (w *stormFed) close() {
	// Nodes first (they do not own their runtimes), then the runtimes.
	w.edge.Close()
	w.hub.Close()
	w.edgeRT.Stop()
	w.hubRT.Stop()
}
