// Command federation runs one DiaSpec application across four in-process
// nodes connected by the federation tier: a hub node executes the contexts
// and controllers while three edge nodes (plus the hub itself) each own a
// quarter of the sensor fleet. Edge registries reach the hub through
// generation-keyed delta sync, edge sensor events arrive in coalesced
// event_batch RPCs that land directly in the hub's ingestion shards, and
// the hub actuates edge-hosted panels through chunked command_batch fan-out.
//
// The scenario cross-checks exact delivery accounting across node
// boundaries: every reading accepted from an attached sensor — on any node
// — must either reach the hub's context exactly once or be accounted for by
// exactly one drop counter (sender forward budget/send failure, receiver
// admission/deadline). One edge node additionally churns 10% of its fleet
// every round; after each sync the hub's mirror set must match the owner's
// live fleet exactly (no leaked mirror entries) and readings emitted by
// churned-out sensors must not be accepted anywhere.
//
// Run it with:
//
//	go run ./examples/federation -sensors 12500 -rounds 3 -churn 0.10
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// hubDesign is the application: an event-driven occupancy context over the
// whole federated fleet, publishing a rollup every fanoutEvery deliveries,
// and a controller fanning the rollup out to every zone panel in the
// federation.
const hubDesign = `
device PresenceSensor {
	attribute zone as String;
	source presence as Boolean;
}

device ZonePanel {
	attribute zone as String;
	action update(status as String);
}

context Occupancy as Integer {
	when provided presence from PresenceSensor
	maybe publish;
}

controller PanelFanout {
	when provided Occupancy
	do update on ZonePanel;
}
`

// edgeDesign runs on device-owner nodes: the shared device taxonomy only —
// all computation lives on the hub.
const edgeDesign = `
device PresenceSensor {
	attribute zone as String;
	source presence as Boolean;
}

device ZonePanel {
	attribute zone as String;
	action update(status as String);
}
`

// occupancy counts deliveries and publishes the running total every
// fanoutEvery-th one. Deliveries for one interaction are serialized by the
// bus, so the publish count is deterministic given the delivered count.
type occupancy struct {
	fanoutEvery uint64
	delivered   atomic.Uint64
	published   atomic.Uint64
}

func (o *occupancy) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	n := o.delivered.Add(1)
	if o.fanoutEvery > 0 && n%o.fanoutEvery == 0 {
		o.published.Add(1)
		return int(n), true, nil
	}
	return nil, false, nil
}

// panelFanout actuates every zone panel in the federation — all of them
// edge-hosted mirrors — through one InvokeBatch (chunked command_batch RPCs
// per endpoint).
type panelFanout struct {
	fanouts atomic.Uint64
	errors  atomic.Uint64
}

func (p *panelFanout) OnContext(call *runtime.ControllerCall) error {
	panels, err := call.Devices("ZonePanel")
	if err != nil {
		return err
	}
	ok, errs := call.InvokeBatch(panels, "update", fmt.Sprintf("%v occupied", call.Value))
	p.fanouts.Add(uint64(ok))
	p.errors.Add(uint64(len(errs)))
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// edge is one device-owner node.
type edge struct {
	name   string
	rt     *runtime.Runtime
	node   *federation.Node
	churn  *devsim.ChurnSwarm
	panels []*devsim.RecorderDevice
}

func main() {
	sensors := flag.Int("sensors", 12500, "sensors per node (4 nodes)")
	edges := flag.Int("edges", 3, "edge (device-owner) nodes besides the hub")
	panels := flag.Int("panels", 16, "zone panels per edge node")
	rounds := flag.Int("rounds", 3, "storm+churn rounds to run")
	burst := flag.Int("burst", 2, "event bursts (one per live sensor) per round")
	churn := flag.Float64("churn", 0.10, "fraction of ONE edge node's fleet churned per round")
	fanoutEvery := flag.Uint64("fanout-every", 4096, "context deliveries per panel fan-out")
	flag.Parse()
	if err := run(*sensors, *edges, *panels, *rounds, *burst, *churn, *fanoutEvery); err != nil {
		fmt.Fprintln(os.Stderr, "federation:", err)
		os.Exit(1)
	}
}

func run(sensors, edges, panels, rounds, burst int, churnFrac float64, fanoutEvery uint64) error {
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC))

	// Hub: the application node. It owns a quarter of the fleet itself.
	hubModel, err := dsl.Load(hubDesign)
	if err != nil {
		return err
	}
	hubRT := runtime.New(hubModel, runtime.WithClock(vc))
	defer hubRT.Stop()
	occ := &occupancy{fanoutEvery: fanoutEvery}
	fan := &panelFanout{}
	if err := hubRT.ImplementContext("Occupancy", occ); err != nil {
		return err
	}
	if err := hubRT.ImplementController("PanelFanout", fan); err != nil {
		return err
	}
	if err := hubRT.Start(); err != nil {
		return err
	}
	hub, err := federation.New(federation.Config{Name: "n0", Runtime: hubRT})
	if err != nil {
		return err
	}
	defer hub.Close()

	hubSwarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: []string{"n0"}, GroupAttr: "zone", Seed: 7,
	}, vc)
	hubChurn, err := devsim.NewChurnSwarm(hubSwarm, devsim.ChurnHooks{
		Bind:   func(s *devsim.SwarmSensor) error { return hubRT.BindDevice(s) },
		Unbind: hubRT.UnbindDevice,
	})
	if err != nil {
		return err
	}

	// Edge nodes: devices only; everything flows to the hub.
	edgeNodes := make([]*edge, edges)
	for i := range edgeNodes {
		e, err := newEdge(fmt.Sprintf("n%d", i+1), sensors, panels, vc, hub.Addr())
		if err != nil {
			return err
		}
		defer e.rt.Stop()
		defer e.node.Close()
		edgeNodes[i] = e
		if err := hub.AddPeer(federation.PeerConfig{
			Name: e.name, Addr: e.node.Addr(),
			Import: []string{"PresenceSensor", "ZonePanel"},
		}); err != nil {
			return err
		}
	}

	// Bind every fleet and wait for attachments (hub: runtime ingestion
	// trackers; edges: federation exporters).
	bindStart := time.Now()
	if err := hubChurn.BindAll(); err != nil {
		return err
	}
	for _, e := range edgeNodes {
		if err := e.churn.BindAll(); err != nil {
			return err
		}
	}
	if err := settleAll(hubChurn, edgeNodes); err != nil {
		return err
	}
	if err := hub.SyncPeers(); err != nil {
		return err
	}
	for _, e := range edgeNodes {
		if got := hub.MirrorCount(e.name, "PresenceSensor"); got != e.churn.LiveCount() {
			return fmt.Errorf("initial sync: %d mirrors for %s, want %d", got, e.name, e.churn.LiveCount())
		}
	}
	totalFleet := sensors * (1 + edges)
	fmt.Printf("federated %d nodes, %d sensors (%d mirrored), %d panels in %v\n",
		1+edges, totalFleet, sensors*edges, panels*edges,
		time.Since(bindStart).Round(time.Millisecond))

	churnNode := edgeNodes[0] // churn is confined to one node
	for r := 1; r <= rounds; r++ {
		wall := time.Now()
		emitted := 0
		for b := 0; b < burst; b++ {
			emitted += hubChurn.StormLive(hubChurn.LiveCount())
			for _, e := range edgeNodes {
				emitted += e.churn.StormLive(e.churn.LiveCount())
			}
		}
		if err := waitAccounted(hubRT, occ, hubChurn, edgeNodes, 60*time.Second); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		elapsed := time.Since(wall)
		fmt.Printf("round %d: %d events accounted in %v (%.0f events/sec, %d cross-node)\n",
			r, emitted, elapsed.Round(time.Millisecond),
			float64(emitted)/elapsed.Seconds(), crossNodeForwarded(edgeNodes))

		// Churn one node's fleet, settle, sync — then prove the departed
		// sensors are detached and the hub leaked no mirror entries.
		n := int(churnFrac * float64(churnNode.churn.LiveCount()))
		if err := churnNode.churn.Churn(n, false); err != nil {
			return err
		}
		if err := settleAll(hubChurn, edgeNodes); err != nil {
			return err
		}
		if err := hub.SyncPeers(); err != nil {
			return err
		}
		if got := hub.MirrorCount(churnNode.name, "PresenceSensor"); got != churnNode.churn.LiveCount() {
			return fmt.Errorf("round %d: mirror leak on %s: %d mirrors, %d live",
				r, churnNode.name, got, churnNode.churn.LiveCount())
		}
		if stale := churnNode.churn.StormDead(n); stale != 0 {
			return fmt.Errorf("round %d: %d readings accepted from churned-out sensors", r, stale)
		}
	}

	// Final cross-check: exact accounting across all four nodes, then the
	// actuation path: every panel in the federation must have seen exactly
	// one update per context publish.
	if err := waitAccounted(hubRT, occ, hubChurn, edgeNodes, 60*time.Second); err != nil {
		return err
	}
	publishes := occ.published.Load()
	if err := waitPanels(edgeNodes, publishes, 30*time.Second); err != nil {
		return err
	}

	truth := groundTruth(hubChurn, edgeNodes)
	delivered := occ.delivered.Load()
	dropped := totalDrops(hubRT, edgeNodes)
	ok := "OK"
	if delivered+dropped != truth || fan.errors.Load() != 0 {
		ok = "MISMATCH"
	}
	hst := hubRT.Stats()
	fmt.Printf("cross-check %s: delivered %d + dropped %d = %d, ground truth %d (4 nodes)\n",
		ok, delivered, dropped, delivered+dropped, truth)
	fmt.Printf("federation: %d events in %d batches from peers (%.1f events/batch), %d command chunks, %d fan-out actuations over %d publishes\n",
		hst.FederationEventsIn, hst.FederationEventBatchesIn,
		float64(hst.FederationEventsIn)/float64(max(hst.FederationEventBatchesIn, 1)),
		hst.FederationCommandChunks, fan.fanouts.Load(), publishes)
	in, out := churnNode.churn.Churned()
	fmt.Printf("churn on %s: %d in / %d out, mirrors live %d (hub total %d entities)\n",
		churnNode.name, in, out, hub.Stats().MirrorsLive, hubRT.Registry().Count())
	if ok != "OK" {
		return fmt.Errorf("cross-node accounting diverged")
	}
	if want := uint64(panels*len(edgeNodes)) * publishes; fan.fanouts.Load() != want {
		return fmt.Errorf("panel fan-out actuated %d times, want %d", fan.fanouts.Load(), want)
	}
	return nil
}

func newEdge(name string, sensors, panels int, vc *simclock.Virtual, hubAddr string) (*edge, error) {
	model, err := dsl.Load(edgeDesign)
	if err != nil {
		return nil, err
	}
	rt := runtime.New(model, runtime.WithClock(vc))
	if err := rt.Start(); err != nil {
		return nil, err
	}
	node, err := federation.New(federation.Config{
		Name:    name,
		Runtime: rt,
		Exports: []federation.Export{
			{Kind: "PresenceSensor", Source: "presence"},
			{Kind: "ZonePanel"},
		},
	})
	if err != nil {
		rt.Stop()
		return nil, err
	}
	if err := node.AddPeer(federation.PeerConfig{
		Name: "n0", Addr: hubAddr, ForwardEvents: true,
	}); err != nil {
		node.Close()
		rt.Stop()
		return nil, err
	}
	e := &edge{name: name, rt: rt, node: node}
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: []string{name}, GroupAttr: "zone", Seed: 7,
	}, vc)
	e.churn, err = devsim.NewChurnSwarm(swarm, devsim.ChurnHooks{
		Bind:   func(s *devsim.SwarmSensor) error { return rt.BindDevice(s) },
		Unbind: rt.UnbindDevice,
	})
	if err != nil {
		node.Close()
		rt.Stop()
		return nil, err
	}
	for i := 0; i < panels; i++ {
		p := devsim.NewRecorderDevice(fmt.Sprintf("panel-%s-%02d", name, i), "ZonePanel", nil,
			registry.Attributes{"zone": name}, []string{"update"}, vc.Now)
		if err := rt.BindDevice(p); err != nil {
			node.Close()
			rt.Stop()
			return nil, err
		}
		e.panels = append(e.panels, p)
	}
	return e, nil
}

// settleAll waits until every node's attachments match its intended fleet.
func settleAll(hub *devsim.ChurnSwarm, edges []*edge) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := hub.Settled()
		for _, e := range edges {
			done = done && e.churn.Settled()
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("attachments did not settle within 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// groundTruth sums the accepted readings of every node's fleet.
func groundTruth(hub *devsim.ChurnSwarm, edges []*edge) uint64 {
	truth := hub.Expected()
	for _, e := range edges {
		truth += e.churn.Expected()
	}
	return truth
}

// totalDrops sums every drop counter a reading can fall into between an
// attached sensor and the hub's context handler, across all nodes.
func totalDrops(hubRT *runtime.Runtime, edges []*edge) uint64 {
	drops := hubRT.Stats().Drops()
	for _, e := range edges {
		drops += e.node.Stats().Drops()
	}
	return drops
}

// waitAccounted waits until delivered plus all drop counters equals the
// ground truth exactly; exceeding it means duplicated delivery.
func waitAccounted(hubRT *runtime.Runtime, occ *occupancy, hub *devsim.ChurnSwarm, edges []*edge, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		want := groundTruth(hub, edges)
		got := occ.delivered.Load() + totalDrops(hubRT, edges)
		if got == want {
			return nil
		}
		if got > want {
			return fmt.Errorf("accounted for %d readings, ground truth %d (duplicate or stale delivery)", got, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stalled at %d/%d accounted readings", got, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitPanels waits until every edge panel has recorded exactly `publishes`
// updates (fan-outs are asynchronous behind the context publish).
func waitPanels(edges []*edge, publishes uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for _, e := range edges {
			for _, p := range e.panels {
				n := uint64(len(p.Calls("update")))
				if n > publishes {
					return fmt.Errorf("panel %s saw %d updates, want %d", p.ID(), n, publishes)
				}
				if n < publishes {
					done = false
				}
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("panel fan-outs incomplete after %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// crossNodeForwarded sums the events the edge nodes have had accepted by
// the hub so far.
func crossNodeForwarded(edges []*edge) uint64 {
	var n uint64
	for _, e := range edges {
		n += e.node.Stats().EventsForwarded
	}
	return n
}
