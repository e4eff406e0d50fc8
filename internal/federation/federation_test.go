package federation_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

var epoch = time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC)

// consumerDesign runs on the aggregating node: it consumes presence events
// and fans a panel update out when armed.
const consumerDesign = `
device PresenceSensor {
	attribute zone as String;
	source presence as Boolean;
}

device ZonePanel {
	attribute zone as String;
	action update(status as String);
}

context Occupancy as Boolean {
	when provided presence from PresenceSensor
	no publish;
}
`

// ownerDesign runs on device-owner nodes: devices only, no components.
const ownerDesign = `
device PresenceSensor {
	attribute zone as String;
	source presence as Boolean;
}

device ZonePanel {
	attribute zone as String;
	action update(status as String);
}
`

type countCtx struct{ n atomic.Uint64 }

func (c *countCtx) OnTrigger(*runtime.ContextCall) (any, bool, error) {
	c.n.Add(1)
	return nil, false, nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newConsumerNode builds the aggregating runtime+node pair.
func newConsumerNode(t *testing.T, name string) (*runtime.Runtime, *federation.Node, *countCtx) {
	t.Helper()
	model, err := dsl.Load(consumerDesign)
	if err != nil {
		t.Fatal(err)
	}
	rt := runtime.New(model, runtime.WithClock(simclock.NewVirtual(epoch)))
	ctx := &countCtx{}
	if err := rt.ImplementContext("Occupancy", ctx); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	node, err := federation.New(federation.Config{Name: name, Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return rt, node, ctx
}

// newOwnerNode builds a device-owner runtime+node pair exporting the sensor
// kind (and its presence source) plus panels, with a bound swarm.
func newOwnerNode(t *testing.T, name string, sensors int) (*runtime.Runtime, *federation.Node, *devsim.Swarm, *devsim.ChurnSwarm) {
	t.Helper()
	return newOwnerNodeWrapping(t, name, sensors, func(s *devsim.SwarmSensor) device.Driver { return s })
}

// newOwnerNodeWrapping is newOwnerNode binding wrap(sensor) instead of each
// swarm sensor itself.
func newOwnerNodeWrapping(t *testing.T, name string, sensors int, wrap func(*devsim.SwarmSensor) device.Driver) (*runtime.Runtime, *federation.Node, *devsim.Swarm, *devsim.ChurnSwarm) {
	t.Helper()
	model, err := dsl.Load(ownerDesign)
	if err != nil {
		t.Fatal(err)
	}
	vc := simclock.NewVirtual(epoch)
	rt := runtime.New(model, runtime.WithClock(vc))
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	node, err := federation.New(federation.Config{
		Name:    name,
		Runtime: rt,
		Exports: []federation.Export{
			{Kind: "PresenceSensor", Source: "presence"},
			{Kind: "ZonePanel"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: []string{name}, GroupAttr: "zone", Seed: 7,
	}, vc)
	cs, err := devsim.NewChurnSwarm(swarm, devsim.ChurnHooks{
		Bind:   func(s *devsim.SwarmSensor) error { return rt.BindDevice(wrap(s)) },
		Unbind: rt.UnbindDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, node, swarm, cs
}

func settle(t *testing.T, cs *devsim.ChurnSwarm) {
	t.Helper()
	waitFor(t, "attachments to settle", cs.Settled)
}

// One owner, one consumer: mirrors appear via delta sync, events forward in
// batches and are delivered exactly once, churn leaks no mirror entries and
// no stale attachments, and steady-state sync never rescans.
func TestTwoNodeSyncForwardChurn(t *testing.T) {
	const sensors = 400
	crt, consumer, delivered := newConsumerNode(t, "hub")
	_, owner, _, cs := newOwnerNode(t, "edge", sensors)

	if err := owner.AddPeer(federation.PeerConfig{
		Name: "hub", Addr: consumer.Addr(), ForwardEvents: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := consumer.AddPeer(federation.PeerConfig{
		Name: "edge", Addr: owner.Addr(), Import: []string{"PresenceSensor", "ZonePanel"},
	}); err != nil {
		t.Fatal(err)
	}

	if err := cs.BindAll(); err != nil {
		t.Fatal(err)
	}
	settle(t, cs)

	// First sync scans; the consumer mirrors the whole fleet.
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}
	if got := consumer.MirrorCount("edge", "PresenceSensor"); got != sensors {
		t.Fatalf("mirrored %d sensors, want %d", got, sensors)
	}
	if got := crt.Registry().Count(); got != sensors {
		t.Fatalf("consumer registry holds %d entities, want %d", got, sensors)
	}
	scansAfterFirst := consumer.Stats().KindsScanned

	// Steady state: further syncs are generation checks only.
	for i := 0; i < 5; i++ {
		if err := consumer.SyncPeers(); err != nil {
			t.Fatal(err)
		}
	}
	st := consumer.Stats()
	if st.KindsScanned != scansAfterFirst {
		t.Fatalf("steady-state sync rescanned: %d -> %d", scansAfterFirst, st.KindsScanned)
	}
	if st.SyncRounds != 6 {
		t.Fatalf("SyncRounds=%d, want 6", st.SyncRounds)
	}

	// Storm: every live sensor emits once; all must arrive at the hub.
	accepted := uint64(cs.StormLive(cs.LiveCount()))
	waitFor(t, "cross-node delivery", func() bool { return delivered.n.Load() == accepted })
	// The sender's counter moves when the RPC response lands, which can
	// trail the receiver-side delivery.
	waitFor(t, "forward acknowledgements", func() bool { return owner.Stats().EventsForwarded == accepted })

	ost := owner.Stats()
	if ost.EventsForwarded != accepted {
		t.Fatalf("forwarded %d, accepted %d", ost.EventsForwarded, accepted)
	}
	if ost.Drops() != 0 {
		t.Fatalf("unexpected sender drops: %+v", ost)
	}
	if ost.EventBatchesSent == 0 || ost.EventBatchesSent >= ost.EventsForwarded {
		t.Fatalf("no coalescing: %d events in %d batches", ost.EventsForwarded, ost.EventBatchesSent)
	}
	cst := crt.Stats()
	if cst.FederationEventsIn != accepted || cst.FederationEventDrops != 0 {
		t.Fatalf("receiver accounting off: %+v", cst)
	}

	// Churn 10% out on the owner; after settle + sync the mirrors must
	// match exactly and dead sensors must be fully detached.
	churn := sensors / 10
	if err := cs.Churn(churn, false); err != nil {
		t.Fatal(err)
	}
	settle(t, cs)
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}
	if got := consumer.MirrorCount("edge", "PresenceSensor"); got != cs.LiveCount() {
		t.Fatalf("mirror leak: %d mirrors, %d live", got, cs.LiveCount())
	}
	if stale := cs.StormDead(churn); stale != 0 {
		t.Fatalf("%d readings accepted from churned-out sensors", stale)
	}

	// Post-churn traffic still accounts exactly.
	accepted += uint64(cs.StormLive(cs.LiveCount()))
	waitFor(t, "post-churn delivery", func() bool { return delivered.n.Load() == accepted })
}

// A second sync after local churn on the owner must scan exactly once more
// (generation moved) and then return to steady state.
func TestSyncRescansOnlyOnChange(t *testing.T) {
	_, consumer, _ := newConsumerNode(t, "hub")
	_, owner, _, cs := newOwnerNode(t, "edge", 50)

	if err := consumer.AddPeer(federation.PeerConfig{
		Name: "edge", Addr: owner.Addr(), Import: []string{"PresenceSensor"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cs.BindAll(); err != nil {
		t.Fatal(err)
	}
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}
	base := consumer.Stats().KindsScanned

	if err := cs.Churn(5, false); err != nil {
		t.Fatal(err)
	}
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}
	if got := consumer.Stats().KindsScanned; got != base+1 {
		t.Fatalf("churn sync scanned %d kinds, want exactly 1 more than %d", got, base)
	}
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}
	if got := consumer.Stats().KindsScanned; got != base+1 {
		t.Fatalf("steady-state sync rescanned (%d)", got)
	}
}

// slowPushSensor makes an exporter fall behind the registry: attaching its
// forwarding sink takes a millisecond.
type slowPushSensor struct{ *devsim.SwarmSensor }

func (s slowPushSensor) SubscribePush(source string, sink device.Sink) (func(), error) {
	time.Sleep(time.Millisecond)
	return s.SwarmSensor.SubscribePush(source, sink)
}

// TestBindBurstBehindSlowExporterDoesNotReconcile: a burst of exported binds,
// then of unbinds, far ahead of a slowed exporter is handed over as queued
// deltas: every live sensor ends up hosted and sink-attached, every
// departed one released, and not one full-fleet reconcile ran.
func TestBindBurstBehindSlowExporterDoesNotReconcile(t *testing.T) {
	const sensors = 200 // over three times the 64 notifications an exporter once buffered
	_, owner, _, cs := newOwnerNodeWrapping(t, "edge", sensors, func(s *devsim.SwarmSensor) device.Driver {
		return slowPushSensor{s}
	})
	if err := cs.BindAll(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every bound sensor hosted", func() bool { return owner.Stats().ExportedHosted == sensors })
	settle(t, cs)
	if err := cs.ChurnOut(sensors / 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "unbound sensors unhosted", func() bool { return owner.Stats().ExportedHosted == sensors/2 })
	settle(t, cs)
	if got := owner.Stats().ExporterReconciles; got != 0 {
		t.Fatalf("ExporterReconciles = %d after a bind burst, want 0", got)
	}
}

// Sender-side budget exhaustion must drop at the intake and count exactly:
// accepted == delivered + budget drops (+ send drops, none here).
func TestForwardBudgetDropsAccounted(t *testing.T) {
	const sensors = 200
	crt, consumer, delivered := newConsumerNode(t, "hub")
	_, owner, _, cs := newOwnerNode(t, "edge", sensors)

	if err := owner.AddPeer(federation.PeerConfig{
		Name: "hub", Addr: consumer.Addr(), ForwardEvents: true,
		ForwardBudget: 16, MaxBatch: 8,
	}); err != nil {
		t.Fatal(err)
	}
	if err := consumer.AddPeer(federation.PeerConfig{
		Name: "edge", Addr: owner.Addr(), Import: []string{"PresenceSensor"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cs.BindAll(); err != nil {
		t.Fatal(err)
	}
	settle(t, cs)
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}

	var accepted uint64
	for i := 0; i < 10; i++ {
		accepted += uint64(cs.StormLive(cs.LiveCount()))
	}
	waitFor(t, "accounted delivery", func() bool {
		return delivered.n.Load()+owner.Stats().Drops() == accepted
	})
	if crt.Stats().Drops() != 0 {
		t.Fatalf("receiver dropped despite default budget: %+v", crt.Stats())
	}
	// The budget must actually have clamped something at this burst rate,
	// otherwise the test proves nothing.
	if owner.Stats().ForwardBudgetDrops == 0 {
		t.Skip("burst never outran the forward budget on this machine")
	}
}

// Actuation across nodes: the consumer's runtime discovers mirrored panels
// and a command_batch fan-out actuates the owner-hosted drivers.
func TestCrossNodeCommandBatch(t *testing.T) {
	crt, consumer, _ := newConsumerNode(t, "hub")
	ort, owner, _, _ := newOwnerNode(t, "edge", 1)

	const panels = 30
	recorders := make([]*devsim.RecorderDevice, panels)
	for i := range recorders {
		r := devsim.NewRecorderDevice(fmt.Sprintf("panel-%02d", i), "ZonePanel", nil,
			registry.Attributes{"zone": "edge"}, []string{"update"}, nil)
		recorders[i] = r
		if err := ort.BindDevice(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := consumer.AddPeer(federation.PeerConfig{
		Name: "edge", Addr: owner.Addr(), Import: []string{"ZonePanel"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}
	if got := consumer.MirrorCount("edge", "ZonePanel"); got != panels {
		t.Fatalf("mirrored %d panels, want %d", got, panels)
	}

	// Drive the actuation through a transport client directly against the
	// owner (the runtime-level InvokeBatch path is covered in
	// internal/runtime); here we prove the hosted drivers answer.
	ents := crt.Registry().Discover(registry.Query{Kind: "ZonePanel"})
	if len(ents) != panels {
		t.Fatalf("discovered %d panels, want %d", len(ents), panels)
	}
	for _, e := range ents {
		if e.Origin != "edge" || e.Endpoint == "" {
			t.Fatalf("mirror not stamped: %+v", e)
		}
	}

	ids := make([]string, len(ents))
	for i, e := range ents {
		ids[i] = string(e.ID)
	}
	cli := dialOrFatal(t, ents[0].Endpoint)
	errs, err := cli.CommandBatch(ids, "update", "42 free")
	if err != nil {
		t.Fatal(err)
	}
	for i, es := range errs {
		if es != "" {
			t.Fatalf("panel %s: %s", ids[i], es)
		}
	}
	for _, r := range recorders {
		if calls := r.Calls("update"); len(calls) != 1 {
			t.Fatalf("panel %s saw %d updates", r.ID(), len(calls))
		}
	}

	// Unbinding a panel on the owner must (after sync) remove its mirror.
	if err := ort.UnbindDevice(recorders[0].ID()); err != nil {
		t.Fatal(err)
	}
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}
	if got := consumer.MirrorCount("edge", "ZonePanel"); got != panels-1 {
		t.Fatalf("mirror leak after unbind: %d, want %d", got, panels-1)
	}
}

// TestSyncAdvertisesOnlyHostedEntities: a registry sync must not advertise
// a local entity before the kind's exporter hosts its driver, or a peer
// actuating the fresh mirror hits "unknown device". The owner's exporters
// are held 200 ms behind the registry, so without the wait the sync always
// wins that race.
func TestSyncAdvertisesOnlyHostedEntities(t *testing.T) {
	crt, consumer, _ := newConsumerNode(t, "hub")
	ort, owner, _, _ := newOwnerNode(t, "edge", 1)
	t.Cleanup(owner.SetExporterLag(200 * time.Millisecond))
	if err := consumer.AddPeer(federation.PeerConfig{
		Name: "edge", Addr: owner.Addr(), Import: []string{"ZonePanel"},
	}); err != nil {
		t.Fatal(err)
	}
	const panels = 5
	for i := 0; i < panels; i++ {
		r := devsim.NewRecorderDevice(fmt.Sprintf("panel-%02d", i), "ZonePanel", nil,
			registry.Attributes{"zone": "edge"}, []string{"update"}, nil)
		if err := ort.BindDevice(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}
	ents := crt.Registry().Discover(registry.Query{Kind: "ZonePanel"})
	if len(ents) != panels {
		t.Fatalf("discovered %d panels, want %d", len(ents), panels)
	}
	ids := make([]string, len(ents))
	for i, e := range ents {
		ids[i] = string(e.ID)
	}
	errs, err := dialOrFatal(t, ents[0].Endpoint).CommandBatch(ids, "update", "free")
	if err != nil {
		t.Fatal(err)
	}
	for i, es := range errs {
		if es != "" {
			t.Fatalf("panel %s advertised before it was hosted: %s", ids[i], es)
		}
	}
}

// TestSyncWaitsOnceForAllKinds: a sync shares one catch-up deadline across
// the kinds it answers, so exporters stuck far behind on two kinds hold the
// call about ExporterCatchUp, not ExporterCatchUp per kind.
func TestSyncWaitsOnceForAllKinds(t *testing.T) {
	ort, owner, _, _ := newOwnerNode(t, "edge", 1)
	t.Cleanup(owner.SetExporterLag(5 * federation.ExporterCatchUp / 2))
	sensor := device.NewBase("sensor-00", "PresenceSensor", nil, registry.Attributes{"zone": "edge"}, nil)
	panel := devsim.NewRecorderDevice("panel-00", "ZonePanel", nil,
		registry.Attributes{"zone": "edge"}, []string{"update"}, nil)
	for _, d := range []device.Driver{sensor, panel} {
		if err := ort.BindDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	deltas := owner.SyncKinds([]string{"PresenceSensor", "ZonePanel"}, nil)
	took := time.Since(start)
	for _, d := range deltas {
		if !d.Changed || len(d.Entities) != 1 {
			t.Errorf("kind %s: changed %v with %d entities, want one", d.Kind, d.Changed, len(d.Entities))
		}
	}
	if limit := 3 * federation.ExporterCatchUp / 2; took > limit {
		t.Errorf("sync over two lagging kinds took %v, want < %v", took, limit)
	}
}

func dialOrFatal(t *testing.T, addr string) *transport.Client {
	t.Helper()
	cli, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return cli
}

// Duplicate exports would double-attach the shared forwarding sink and
// break exact accounting; New must reject them up front.
func TestDuplicateExportRejected(t *testing.T) {
	model, err := dsl.Load(ownerDesign)
	if err != nil {
		t.Fatal(err)
	}
	rt := runtime.New(model, runtime.WithClock(simclock.NewVirtual(epoch)))
	t.Cleanup(rt.Stop)
	_, err = federation.New(federation.Config{
		Name:    "dup",
		Runtime: rt,
		Exports: []federation.Export{
			{Kind: "PresenceSensor", Source: "presence"},
			{Kind: "PresenceSensor", Source: "presence"},
		},
	})
	if err == nil {
		t.Fatal("duplicate export accepted")
	}
	// Same kind with distinct sources is legitimate.
	node, err := federation.New(federation.Config{
		Name:    "ok",
		Runtime: rt,
		Exports: []federation.Export{
			{Kind: "PresenceSensor", Source: "presence"},
			{Kind: "PresenceSensor"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Close()
}

// ---- partial-aggregate forwarding (agg_sync) ----

// vacancyAgg is the shared aggregation logic: count vacant readings per
// zone. On the hub it also records every delivered aggregate; on the edge
// the same implementation drives the node-local partial fold, keeping the
// two one definition (the deployment the Aggregate export is meant for).
type vacancyAgg struct {
	mu   sync.Mutex
	last map[string]int
}

func (h *vacancyAgg) Map(zone string, v any, emit func(string, any)) {
	if !v.(bool) {
		emit(zone, true)
	}
}
func (h *vacancyAgg) Reduce(zone string, vs []any, emit func(string, any)) {
	emit(zone, len(vs))
}
func (h *vacancyAgg) Combine(_ string, a, b any) any   { return a.(int) + b.(int) }
func (h *vacancyAgg) Uncombine(_ string, a, v any) any { return a.(int) - v.(int) }

func (h *vacancyAgg) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	snap := make(map[string]int, len(call.GroupedReduced))
	for k, v := range call.GroupedReduced {
		snap[k] = v.(int)
	}
	h.mu.Lock()
	h.last = snap
	h.mu.Unlock()
	return nil, false, nil
}

func (h *vacancyAgg) snapshot() map[string]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := make(map[string]int, len(h.last))
	for k, v := range h.last {
		cp[k] = v
	}
	return cp
}

const aggHubDesign = `
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

// TestAggSyncForwardsPartialsNotReadings: an edge exporting with an
// Aggregate syncs per-group partials into the hub's continuous aggregate —
// no raw readings cross the wire, retractions propagate on churn, and the
// merged state tracks the edge fleet's ground truth exactly.
func TestAggSyncForwardsPartialsNotReadings(t *testing.T) {
	// Hub: the consuming grouped context with a combinable handler.
	hubModel, err := dsl.Load(aggHubDesign)
	if err != nil {
		t.Fatal(err)
	}
	hubRT := runtime.New(hubModel, runtime.WithClock(simclock.NewVirtual(epoch)))
	hubH := &vacancyAgg{}
	if err := hubRT.ImplementContext("ZoneVacancy", hubH); err != nil {
		t.Fatal(err)
	}
	if err := hubRT.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hubRT.Stop)
	hub, err := federation.New(federation.Config{Name: "hub", Runtime: hubRT})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)

	// Edge: taxonomy-only runtime, exporting the sensors with the same
	// aggregation logic.
	edgeModel, err := dsl.Load(ownerDesign)
	if err != nil {
		t.Fatal(err)
	}
	vc := simclock.NewVirtual(epoch)
	edgeRT := runtime.New(edgeModel, runtime.WithClock(vc))
	if err := edgeRT.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edgeRT.Stop)
	edge, err := federation.New(federation.Config{
		Name:    "edge",
		Runtime: edgeRT,
		Exports: []federation.Export{{
			Kind: "PresenceSensor", Source: "presence",
			Aggregate: &federation.Aggregate{GroupAttr: "zone", Handler: &vacancyAgg{}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edge.Close)
	if err := edge.AddPeer(federation.PeerConfig{
		Name: "hub", Addr: hub.Addr(), ForwardEvents: true,
	}); err != nil {
		t.Fatal(err)
	}

	mk := func(id, zone string) *device.Base {
		d := device.NewBase(id, "PresenceSensor", nil, registry.Attributes{"zone": zone}, vc.Now)
		if err := edgeRT.BindDevice(d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	s1 := mk("s1", "za")
	s2 := mk("s2", "za")
	s3 := mk("s3", "zb")

	matches := func(want map[string]int) bool {
		got := hubH.snapshot()
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	// The exporter attaches asynchronously (registry watcher), so an
	// emission may race the subscription. Partial-aggregate upserts are
	// idempotent per device, so re-emitting the same readings until the
	// hub converges is exact, not approximate.
	emitUntil := func(what string, want map[string]int, emits func()) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !matches(want) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: hub stuck at %v, want %v", what, hubH.snapshot(), want)
			}
			emits()
			time.Sleep(2 * time.Millisecond)
		}
	}

	emitUntil("za:1", map[string]int{"za": 1}, func() { s1.Emit("presence", false) })
	emitUntil("za:2 zb:1", map[string]int{"za": 2, "zb": 1}, func() {
		s2.Emit("presence", false)
		s3.Emit("presence", false)
	})
	emitUntil("za:1 zb:1", map[string]int{"za": 1, "zb": 1}, func() { s1.Emit("presence", true) })

	expect := func(what string, want map[string]int) {
		t.Helper()
		waitFor(t, what, func() bool { return matches(want) })
	}

	// Churn: s2 leaves the edge fleet; its contribution retracts and the
	// emptied za group disappears from the hub.
	if err := edgeRT.UnbindDevice("s2"); err != nil {
		t.Fatal(err)
	}
	expect("za retracted", map[string]int{"zb": 1})

	// Partials, not readings, crossed the wire.
	est := edge.Stats()
	if est.EventsForwarded != 0 || est.EventBatchesSent != 0 {
		t.Fatalf("raw events crossed the wire: %+v", est)
	}
	if est.AggSyncsSent == 0 || est.AggGroupsSent == 0 {
		t.Fatalf("no agg syncs recorded: %+v", est)
	}
	if est.AggSyncErrors != 0 || est.AggSyncsUnrouted != 0 {
		t.Fatalf("agg sync errors: %+v", est)
	}
	if hst := hubRT.Stats(); hst.FederationAggPartialsIn == 0 {
		t.Fatalf("hub merged no partials: %+v", hst)
	}
}

// TestAggregateExportValidation: malformed Aggregate exports are rejected.
func TestAggregateExportValidation(t *testing.T) {
	model, err := dsl.Load(ownerDesign)
	if err != nil {
		t.Fatal(err)
	}
	rt := runtime.New(model)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	cases := []federation.Export{
		{Kind: "PresenceSensor", Aggregate: &federation.Aggregate{GroupAttr: "zone", Handler: &vacancyAgg{}}},
		{Kind: "PresenceSensor", Source: "presence", Aggregate: &federation.Aggregate{Handler: &vacancyAgg{}}},
		{Kind: "PresenceSensor", Source: "presence", Aggregate: &federation.Aggregate{GroupAttr: "zone"}},
		{Kind: "PresenceSensor", Source: "presence", Aggregate: &federation.Aggregate{GroupAttr: "zone", Handler: nonCombinable{}}},
	}
	for i, ex := range cases {
		n, err := federation.New(federation.Config{Name: "bad", Runtime: rt, Exports: []federation.Export{ex}})
		if err == nil {
			n.Close()
			t.Fatalf("case %d: invalid Aggregate export accepted", i)
		}
	}
}

// nonCombinable implements MapReducer but not Combiner.
type nonCombinable struct{}

func (nonCombinable) Map(string, any, func(string, any))      {}
func (nonCombinable) Reduce(string, []any, func(string, any)) {}

// TestAggSyncSeedsLateJoiningPeer: a peer added after readings have been
// folded must receive the aggregate's existing groups, not just future
// deltas — steady groups would otherwise be missing on the receiver
// forever.
func TestAggSyncSeedsLateJoiningPeer(t *testing.T) {
	hubModel, err := dsl.Load(aggHubDesign)
	if err != nil {
		t.Fatal(err)
	}
	hubRT := runtime.New(hubModel, runtime.WithClock(simclock.NewVirtual(epoch)))
	hubH := &vacancyAgg{}
	if err := hubRT.ImplementContext("ZoneVacancy", hubH); err != nil {
		t.Fatal(err)
	}
	if err := hubRT.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hubRT.Stop)
	hub, err := federation.New(federation.Config{Name: "hub", Runtime: hubRT})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)

	edgeModel, err := dsl.Load(ownerDesign)
	if err != nil {
		t.Fatal(err)
	}
	vc := simclock.NewVirtual(epoch)
	edgeRT := runtime.New(edgeModel, runtime.WithClock(vc))
	if err := edgeRT.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edgeRT.Stop)
	edge, err := federation.New(federation.Config{
		Name:    "edge",
		Runtime: edgeRT,
		Exports: []federation.Export{{
			Kind: "PresenceSensor", Source: "presence",
			Aggregate: &federation.Aggregate{GroupAttr: "zone", Handler: &vacancyAgg{}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edge.Close)

	// Fold the whole fleet's state into the edge aggregate BEFORE any
	// peer exists. Swarm sensors push synchronously once attached.
	const sensors = 40
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: []string{"z0", "z1", "z2", "z3"}, GroupAttr: "zone", Seed: 7,
	}, vc)
	for _, s := range swarm.Sensors() {
		if err := edgeRT.BindDevice(s); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "exporter attachments", func() bool { return swarm.AttachedCount() == sensors })
	swarm.FlipBurst(sensors)

	// The late-joining peer must converge to the full current state.
	if err := edge.AddPeer(federation.PeerConfig{
		Name: "hub", Addr: hub.Addr(), ForwardEvents: true,
	}); err != nil {
		t.Fatal(err)
	}
	want := swarm.VacantPerLot()
	for k, v := range want {
		if v == 0 {
			delete(want, k)
		}
	}
	waitFor(t, "late peer seeded with existing groups", func() bool {
		got := hubH.snapshot()
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	})
}

// TestAggSyncRehomesOnAttributeUpdate: updating a device's grouping
// attribute in the registry retracts its contribution from the old group;
// its next reading folds into the new group.
func TestAggSyncRehomesOnAttributeUpdate(t *testing.T) {
	hubModel, err := dsl.Load(aggHubDesign)
	if err != nil {
		t.Fatal(err)
	}
	hubRT := runtime.New(hubModel, runtime.WithClock(simclock.NewVirtual(epoch)))
	hubH := &vacancyAgg{}
	if err := hubRT.ImplementContext("ZoneVacancy", hubH); err != nil {
		t.Fatal(err)
	}
	if err := hubRT.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hubRT.Stop)
	hub, err := federation.New(federation.Config{Name: "hub", Runtime: hubRT})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)

	edgeModel, err := dsl.Load(ownerDesign)
	if err != nil {
		t.Fatal(err)
	}
	vc := simclock.NewVirtual(epoch)
	edgeRT := runtime.New(edgeModel, runtime.WithClock(vc))
	if err := edgeRT.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edgeRT.Stop)
	edge, err := federation.New(federation.Config{
		Name:    "edge",
		Runtime: edgeRT,
		Exports: []federation.Export{{
			Kind: "PresenceSensor", Source: "presence",
			Aggregate: &federation.Aggregate{GroupAttr: "zone", Handler: &vacancyAgg{}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edge.Close)
	if err := edge.AddPeer(federation.PeerConfig{
		Name: "hub", Addr: hub.Addr(), ForwardEvents: true,
	}); err != nil {
		t.Fatal(err)
	}

	d := device.NewBase("s1", "PresenceSensor", nil, registry.Attributes{"zone": "za"}, vc.Now)
	if err := edgeRT.BindDevice(d); err != nil {
		t.Fatal(err)
	}
	converge := func(what string, want map[string]int, emits func()) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			got := hubH.snapshot()
			ok := len(got) == len(want)
			for k, v := range want {
				if got[k] != v {
					ok = false
				}
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: hub stuck at %v, want %v", what, got, want)
			}
			if emits != nil {
				emits()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	converge("za:1", map[string]int{"za": 1}, func() { d.Emit("presence", false) })

	// Re-home s1 to zb; the old contribution retracts and the next
	// reading counts under zb.
	if err := edgeRT.Registry().Update("s1", registry.Attributes{"zone": "zb"}, ""); err != nil {
		t.Fatal(err)
	}
	converge("re-homed to zb", map[string]int{"zb": 1}, func() { d.Emit("presence", false) })
}
