package repro_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/devsim/chaos"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// fedHubDesign consumes the federated presence stream on the hub.
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

// fedEdgeDesign is the device-owner node's taxonomy-only design.
const fedEdgeDesign = `
device PresenceSensor {
	attribute zone as String;
	source presence as Boolean;
}
`

type fedBenchCtx struct{ n atomic.Uint64 }

func (c *fedBenchCtx) OnTrigger(*runtime.ContextCall) (any, bool, error) {
	c.n.Add(1)
	return nil, false, nil
}

// fedBenchWorld is one hub + one edge owning `sensors` devices, connected
// and synced, with the edge forwarding presence events at the given batch
// size. A non-nil dialer replaces the edge->hub dial path (fault-injection
// benches wrap it in a chaos link).
type fedBenchWorld struct {
	hubRT *runtime.Runtime
	hub   *federation.Node
	edge  *federation.Node
	swarm *devsim.Swarm
	ctx   *fedBenchCtx
}

func newFedBenchWorld(b *testing.B, sensors, maxBatch int, dialer transport.Dialer) *fedBenchWorld {
	b.Helper()
	vc := simclock.NewVirtual(benchEpoch)

	hubModel, err := dsl.Load(fedHubDesign)
	if err != nil {
		b.Fatal(err)
	}
	hubRT := runtime.New(hubModel, runtime.WithClock(vc))
	ctx := &fedBenchCtx{}
	if err := hubRT.ImplementContext("Occupancy", ctx); err != nil {
		b.Fatal(err)
	}
	if err := hubRT.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(hubRT.Stop)
	hub, err := federation.New(federation.Config{Name: "hub", Runtime: hubRT})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(hub.Close)

	edgeModel, err := dsl.Load(fedEdgeDesign)
	if err != nil {
		b.Fatal(err)
	}
	edgeRT := runtime.New(edgeModel, runtime.WithClock(vc))
	if err := edgeRT.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(edgeRT.Stop)
	edge, err := federation.New(federation.Config{
		Name:    "edge",
		Runtime: edgeRT,
		Exports: []federation.Export{{Kind: "PresenceSensor", Source: "presence"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(edge.Close)

	if err := edge.AddPeer(federation.PeerConfig{
		Name: "hub", Addr: hub.Addr(), ForwardEvents: true,
		MaxBatch: maxBatch, CallTimeout: time.Minute, Dialer: dialer,
	}); err != nil {
		b.Fatal(err)
	}
	if err := hub.AddPeer(federation.PeerConfig{
		Name: "edge", Addr: edge.Addr(), Import: []string{"PresenceSensor"},
	}); err != nil {
		b.Fatal(err)
	}

	w := &fedBenchWorld{hubRT: hubRT, hub: hub, edge: edge, ctx: ctx}
	w.swarm = devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: []string{"edge"}, GroupAttr: "zone", Seed: 7,
	}, vc)
	for _, s := range w.swarm.Sensors() {
		if err := edgeRT.BindDevice(s); err != nil {
			b.Fatal(err)
		}
	}
	waitAttached(b, w.swarm, sensors)
	if err := hub.SyncPeers(); err != nil {
		b.Fatal(err)
	}
	if got := hub.MirrorCount("edge", "PresenceSensor"); got != sensors {
		b.Fatalf("mirrored %d sensors, want %d", got, sensors)
	}
	w.quiesce(b)
	return w
}

// quiesce waits until the bind-storm fallout — watcher-overflow reconciles
// on the hub's source tracker and the edge's exporter — has stopped, so
// measured iterations see steady state rather than setup residue.
func (w *fedBenchWorld) quiesce(b *testing.B) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		before := w.hubRT.Stats().TrackerReconciles + w.edge.Stats().ExporterReconciles
		time.Sleep(50 * time.Millisecond)
		after := w.hubRT.Stats().TrackerReconciles + w.edge.Stats().ExporterReconciles
		if before == after {
			return
		}
		if time.Now().After(deadline) {
			b.Fatal("reconciles never quiesced")
		}
	}
}

// waitFedAccounted waits until delivered plus both nodes' drop ledgers reach
// the accepted ground truth.
func waitFedAccounted(b *testing.B, w *fedBenchWorld, want uint64) {
	b.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; {
		got := w.ctx.n.Load() + w.hubRT.Stats().Drops() + w.edge.Stats().Drops()
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

// BenchmarkFederation_EventForward: cross-node event delivery at 12.5k
// devices/node. One iteration emits one reading per device on the edge node
// and drains it through the hub's context. The per-event-RPC baseline
// (MaxBatch=1, every reading its own event_batch round trip) is the
// ablation; the acceptance target is ≥5x events/sec for coalesced batching
// over it.
func BenchmarkFederation_EventForward(b *testing.B) {
	const sensors = 12500
	for _, cfg := range []struct {
		name     string
		maxBatch int
	}{
		{"per-event-rpc", 1},
		{"batched", 256},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			w := newFedBenchWorld(b, sensors, cfg.maxBatch, nil)
			var accepted uint64
			// Warm the path end to end so measured iterations are steady
			// state.
			accepted += uint64(w.swarm.FlipBurst(sensors))
			waitFedAccounted(b, w, accepted)
			measuredFrom := accepted
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				accepted += uint64(w.swarm.FlipBurst(sensors))
				waitFedAccounted(b, w, accepted)
			}
			b.ReportMetric(float64(accepted-measuredFrom)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkFederation_ChaosLatency: the event-forwarding round of
// BenchmarkFederation_EventForward, but with 5ms of injected per-write
// latency on the edge->hub link (through the same chaos dialer the
// partition tests use). Coalescing is what keeps a slow WAN link usable:
// one burst costs one 5ms penalty per MaxBatch chunk rather than one per
// event, so events/sec must degrade by the chunk count, not collapse by
// the event count.
func BenchmarkFederation_ChaosLatency(b *testing.B) {
	const sensors = 12500
	net := chaos.NewNet(1)
	net.SetProfile("edge->hub", chaos.Profile{Latency: 5 * time.Millisecond})
	w := newFedBenchWorld(b, sensors, 256, net.Dialer("edge->hub"))
	var accepted uint64
	accepted += uint64(w.swarm.FlipBurst(sensors))
	waitFedAccounted(b, w, accepted)
	measuredFrom := accepted
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accepted += uint64(w.swarm.FlipBurst(sensors))
		waitFedAccounted(b, w, accepted)
	}
	b.ReportMetric(float64(accepted-measuredFrom)/b.Elapsed().Seconds(), "events/sec")
}

// fedAggHubDesign consumes the federated presence stream as a continuous
// per-zone vacancy aggregate (the provided-grouped lowering).
const fedAggHubDesign = `
device PresenceSensor {
	attribute zone as String;
	source presence as Boolean;
}

context ZoneVacancy as Integer {
	when provided presence from PresenceSensor
	grouped by zone
	with map as Boolean reduce as Integer
	no publish;
}
`

// fedVacancy is the vacancy aggregate (vacancyMonoid, bench_test.go)
// shared by the hub context and the edge's Aggregate export, recording the
// latest delivered per-zone state.
type fedVacancy struct {
	vacancyMonoid
	mu       sync.Mutex
	last     map[string]int
	triggers atomic.Uint64
}

func (h *fedVacancy) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	snap := make(map[string]int, len(call.GroupedReduced))
	for k, v := range call.GroupedReduced {
		snap[k] = v.(int)
	}
	h.mu.Lock()
	h.last = snap
	h.mu.Unlock()
	h.triggers.Add(1)
	return nil, false, nil
}

func (h *fedVacancy) matches(want map[string]int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.last) != len(want) {
		return false
	}
	for k, v := range want {
		if h.last[k] != v {
			return false
		}
	}
	return true
}

// aggBenchWorld is one hub consuming the grouped aggregate plus one edge
// owning `sensors` devices across 25 zones, forwarding either raw events
// or node-local partial aggregates.
type aggBenchWorld struct {
	hubRT *runtime.Runtime
	hub   *federation.Node
	edge  *federation.Node
	swarm *devsim.Swarm
	h     *fedVacancy
}

func newAggBenchWorld(b *testing.B, sensors int, agg bool) *aggBenchWorld {
	b.Helper()
	const zones = 25
	zoneNames := make([]string, zones)
	for i := range zoneNames {
		zoneNames[i] = fmt.Sprintf("Z%02d", i)
	}
	vc := simclock.NewVirtual(benchEpoch)

	hubModel, err := dsl.Load(fedAggHubDesign)
	if err != nil {
		b.Fatal(err)
	}
	hubRT := runtime.New(hubModel, runtime.WithClock(vc))
	h := &fedVacancy{}
	if err := hubRT.ImplementContext("ZoneVacancy", h); err != nil {
		b.Fatal(err)
	}
	if err := hubRT.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(hubRT.Stop)
	hub, err := federation.New(federation.Config{Name: "hub", Runtime: hubRT})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(hub.Close)

	edgeModel, err := dsl.Load(fedEdgeDesign)
	if err != nil {
		b.Fatal(err)
	}
	edgeRT := runtime.New(edgeModel, runtime.WithClock(vc))
	if err := edgeRT.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(edgeRT.Stop)
	export := federation.Export{Kind: "PresenceSensor", Source: "presence"}
	if agg {
		export.Aggregate = &federation.Aggregate{GroupAttr: "zone", Handler: &fedVacancy{}}
	}
	edge, err := federation.New(federation.Config{
		Name: "edge", Runtime: edgeRT, Exports: []federation.Export{export},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(edge.Close)
	if err := edge.AddPeer(federation.PeerConfig{
		Name: "hub", Addr: hub.Addr(), ForwardEvents: true, CallTimeout: time.Minute,
	}); err != nil {
		b.Fatal(err)
	}

	w := &aggBenchWorld{hubRT: hubRT, hub: hub, edge: edge, h: h}
	w.swarm = devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: zoneNames, GroupAttr: "zone", Seed: 7,
	}, vc)
	for _, s := range w.swarm.Sensors() {
		if err := edgeRT.BindDevice(s); err != nil {
			b.Fatal(err)
		}
	}
	waitAttached(b, w.swarm, sensors)

	if !agg {
		// Raw mode aggregates on the hub, which needs the mirrors to
		// resolve readings to zones.
		if err := hub.AddPeer(federation.PeerConfig{
			Name: "edge", Addr: edge.Addr(), Import: []string{"PresenceSensor"},
		}); err != nil {
			b.Fatal(err)
		}
		if err := hub.SyncPeers(); err != nil {
			b.Fatal(err)
		}
		if got := hub.MirrorCount("edge", "PresenceSensor"); got != sensors {
			b.Fatalf("mirrored %d sensors, want %d", got, sensors)
		}
	}
	return w
}

// roundConverged waits until the hub's aggregate equals the edge fleet's
// ground truth. In agg mode a group's partial jumps straight to its final
// value (the edge folds synchronously at emission), so matching means every
// dirty group synced.
func (w *aggBenchWorld) roundConverged(b *testing.B) {
	b.Helper()
	want := w.swarm.VacantPerLot()
	for k, v := range want {
		if v == 0 {
			delete(want, k)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for !w.h.matches(want) {
		if time.Now().After(deadline) {
			b.Fatalf("hub aggregate never converged to %v", want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// BenchmarkFederation_AggSync: one full round of fleet-wide change (every
// sensor emits once) delivered cross-node — raw event forwarding plus
// hub-side aggregation vs agg_sync partial-aggregate forwarding. The
// headline metric is syncbytes/round: raw forwarding grows O(devices)
// with fleet size while agg_sync stays flat at O(groups) (25 zones
// regardless of population; the acceptance criterion).
func BenchmarkFederation_AggSync(b *testing.B) {
	for _, mode := range []struct {
		name string
		agg  bool
	}{
		{"raw-events", false},
		{"agg-sync", true},
	} {
		for _, sensors := range []int{1000, 5000, 25000} {
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, sensors), func(b *testing.B) {
				w := newAggBenchWorld(b, sensors, mode.agg)
				// Warm: every sensor emits its current state so the
				// aggregate covers the whole fleet end to end.
				w.swarm.FlipBurst(sensors)
				w.roundConverged(b)
				sent0, _ := w.edge.PeerBytes("hub")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.swarm.FlipBurst(sensors)
					w.roundConverged(b)
				}
				b.StopTimer()
				sent1, _ := w.edge.PeerBytes("hub")
				b.ReportMetric(float64(sent1-sent0)/float64(b.N), "syncbytes/round")
				b.ReportMetric(float64(sensors)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}
}

// BenchmarkFederation_CommandFanout: actuating a 1000-panel fleet hosted on
// one remote endpoint, per-device invoke round trips vs chunked
// command_batch — the actuation twin of BenchmarkSwarm_RemoteFleet.
func BenchmarkFederation_CommandFanout(b *testing.B) {
	const panels = 1000
	srv, err := transport.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ids := make([]string, panels)
	for i := range ids {
		ids[i] = fmt.Sprintf("panel-%04d", i)
		p := device.NewBase(ids[i], "ZonePanel", nil, nil, nil)
		p.OnAction("update", func(...any) error { return nil })
		srv.Host(p)
	}
	cli, err := transport.Dial(srv.Addr(), transport.WithCallTimeout(time.Minute))
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	report := func(b *testing.B) {
		b.ReportMetric(float64(panels)*float64(b.N)/b.Elapsed().Seconds(), "actuations/sec")
	}
	b.Run("per-device", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				if err := cli.Invoke(id, "update", "busy"); err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b)
	})
	b.Run("command-batch", func(b *testing.B) {
		const chunk = 256
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(ids); lo += chunk {
				hi := lo + chunk
				if hi > len(ids) {
					hi = len(ids)
				}
				errs, err := cli.CommandBatch(ids[lo:hi], "update", "busy")
				if err != nil {
					b.Fatal(err)
				}
				for j, es := range errs {
					if es != "" {
						b.Fatalf("panel %s: %s", ids[lo+j], es)
					}
				}
			}
		}
		report(b)
	})
}

// BenchmarkFederation_RegistrySync: one steady-state sync tick (no fleet
// change since the last one) across fleet sizes. The generation-keyed delta
// protocol makes this a single tiny RPC regardless of population, so ns/op
// must stay flat from 1k to 50k devices.
func BenchmarkFederation_RegistrySync(b *testing.B) {
	for _, sensors := range []int{1000, 12500, 50000} {
		b.Run(fmt.Sprintf("n=%d", sensors), func(b *testing.B) {
			w := newFedBenchWorld(b, sensors, 256, nil)
			scans := w.hub.Stats().KindsScanned
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.hub.SyncPeers(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := w.hub.Stats().KindsScanned; got != scans {
				b.Fatalf("steady-state sync rescanned: %d -> %d", scans, got)
			}
		})
	}
}
