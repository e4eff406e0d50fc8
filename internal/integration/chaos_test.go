package integration_test

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/devsim"
	"repro/internal/devsim/chaos"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// The chaos scenario: one hub node runs the application (a grouped
// continuous aggregate over the whole federated fleet) and three edge nodes
// own the sensors, all talking over real TCP through a seeded fault
// injector. Partition/heal cycles with per-round churn must end with exact
// delivered+dropped==ground-truth accounting and the hub's incrementally
// maintained aggregate equal to a batch recompute from device ground truth.

const chaosHubDesign = `
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

const chaosEdgeDesign = `
device PresenceSensor {
	attribute zone as String;
	source presence as Boolean;
}
`

// chaosAgg is the hub's context implementation: a vacancy count per zone,
// combinable so the aggregate updates in O(1) per delivery, counting every
// delivered reading (reconcile re-dispatches carry no reading and are
// excluded — they are bookkeeping, not deliveries).
type chaosAgg struct {
	delivered atomic.Uint64

	mu   sync.Mutex
	last map[string]int
}

func (h *chaosAgg) Map(zone string, v any, emit func(string, any)) {
	if !v.(bool) {
		emit(zone, true)
	}
}
func (h *chaosAgg) Reduce(zone string, vs []any, emit func(string, any)) { emit(zone, len(vs)) }
func (h *chaosAgg) Combine(_ string, a, b any) any                       { return a.(int) + b.(int) }
func (h *chaosAgg) Uncombine(_ string, a, v any) any                     { return a.(int) - v.(int) }

func (h *chaosAgg) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	if call.Reading != nil {
		h.delivered.Add(1)
	}
	snap := make(map[string]int, len(call.GroupedReduced))
	for k, v := range call.GroupedReduced {
		snap[k] = v.(int)
	}
	h.mu.Lock()
	h.last = snap
	h.mu.Unlock()
	return nil, false, nil
}

func (h *chaosAgg) snapshot() map[string]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := make(map[string]int, len(h.last))
	for k, v := range h.last {
		cp[k] = v
	}
	return cp
}

// chaosEdge is one device-owner node under test.
type chaosEdge struct {
	name     string
	rt       *runtime.Runtime
	node     *federation.Node
	swarm    *devsim.Swarm
	churn    *devsim.ChurnSwarm
	accepted uint64
}

// chaosWorld is the full 4-node deployment plus its fault injector.
type chaosWorld struct {
	net   *chaos.Net
	hubRT *runtime.Runtime
	hub   *federation.Node
	agg   *chaosAgg
	edges []*chaosEdge
}

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// chaosLink names the two directed links of one edge.
func syncLink(name string) string    { return "hub->" + name }
func forwardLink(name string) string { return name + "->hub" }

func chaosPeerTimings(pc federation.PeerConfig) federation.PeerConfig {
	pc.CallTimeout = 2 * time.Second
	pc.HeartbeatInterval = 25 * time.Millisecond
	pc.ReconnectBackoff = 10 * time.Millisecond
	pc.ReconnectBackoffMax = 100 * time.Millisecond
	pc.PartitionedAfter = 2
	return pc
}

func newChaosWorld(t *testing.T, seed int64, sensorsPerEdge, edgeCount int) *chaosWorld {
	t.Helper()
	w := &chaosWorld{net: chaos.NewNet(seed)}

	w.agg = &chaosAgg{}
	w.hubRT = runtime.New(dsl.MustLoad(chaosHubDesign), runtime.WithClock(simclock.NewVirtual(epoch)))
	if err := w.hubRT.ImplementContext("ZoneVacancy", w.agg); err != nil {
		t.Fatal(err)
	}
	if err := w.hubRT.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.hubRT.Stop)
	hub, err := federation.New(federation.Config{Name: "hub", Runtime: w.hubRT})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)
	w.hub = hub

	for i := 0; i < edgeCount; i++ {
		e := &chaosEdge{name: "edge" + strconv.Itoa(i)}
		vc := simclock.NewVirtual(epoch)
		e.rt = runtime.New(dsl.MustLoad(chaosEdgeDesign), runtime.WithClock(vc))
		if err := e.rt.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.rt.Stop)
		e.node, err = federation.New(federation.Config{
			Name: e.name, Runtime: e.rt,
			Exports: []federation.Export{{Kind: "PresenceSensor", Source: "presence"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.node.Close)

		lots := make([]string, 4)
		for z := range lots {
			lots[z] = e.name + "-z" + strconv.Itoa(z)
		}
		e.swarm = devsim.NewSwarm(devsim.SwarmConfig{
			Sensors: sensorsPerEdge, Lots: lots, GroupAttr: "zone", Seed: seed + int64(i),
		}, vc)
		e.churn, err = devsim.NewChurnSwarm(e.swarm, devsim.ChurnHooks{
			Bind:   func(s *devsim.SwarmSensor) error { return e.rt.BindDevice(s) },
			Unbind: e.rt.UnbindDevice,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Edge forwards its readings to the hub; the hub mirrors the edge.
		pc := chaosPeerTimings(federation.PeerConfig{
			Name: "hub", Addr: hub.Addr(),
			Dialer:        w.net.Dialer(forwardLink(e.name)),
			ForwardEvents: true,
			ForwardBudget: 1024, // bounds the per-peer spool while partitioned
			Seed:          seed + int64(i),
		})
		if err := e.node.AddPeer(pc); err != nil {
			t.Fatal(err)
		}
		pc = chaosPeerTimings(federation.PeerConfig{
			Name: e.name, Addr: e.node.Addr(),
			Dialer: w.net.Dialer(syncLink(e.name)),
			Import: []string{"PresenceSensor"},
			Seed:   seed + 100 + int64(i),
		})
		if err := hub.AddPeer(pc); err != nil {
			t.Fatal(err)
		}
		w.edges = append(w.edges, e)

		if err := e.churn.BindAll(); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range w.edges {
		waitFor(t, e.name+" attachments settle", e.churn.Settled)
	}
	return w
}

// sunk is the accounting left-hand side: every reading accepted from an
// attached sensor must end up delivered at the hub or in exactly one drop
// counter somewhere along the path.
func (w *chaosWorld) sunk() uint64 {
	total := w.agg.delivered.Load()
	for _, e := range w.edges {
		total += e.node.Stats().Drops()
	}
	return total + w.hubRT.Stats().Drops()
}

func (w *chaosWorld) accepted() uint64 {
	var total uint64
	for _, e := range w.edges {
		total += e.accepted
	}
	return total
}

// groundTruth is the batch recompute of the aggregate straight from device
// state: vacant sensors per zone across every edge fleet, empty groups
// dropped (the incremental engine removes emptied groups too).
func (w *chaosWorld) groundTruth() map[string]int {
	want := make(map[string]int)
	for _, e := range w.edges {
		for zone, vacant := range e.swarm.VacantPerLot() {
			if vacant > 0 {
				want[zone] += vacant
			}
		}
	}
	return want
}

func (w *chaosWorld) aggMatches() bool {
	want := w.groundTruth()
	got := w.agg.snapshot()
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

// syncMirrors drives SyncPeers until every edge's mirror population matches
// its live fleet. Rounds that include a dark peer return an error for that
// peer while still syncing the healthy ones, so errors are tolerated as
// long as the mirrors converge.
func (w *chaosWorld) syncMirrors(t *testing.T, what string) {
	t.Helper()
	waitFor(t, what, func() bool {
		_ = w.hub.SyncPeers()
		for _, e := range w.edges {
			if w.hub.MirrorCount(e.name, "PresenceSensor") != e.churn.LiveCount() {
				return false
			}
		}
		return true
	})
}

// stormAll makes every live sensor on every edge emit its current state
// once; partitioned edges spool into their bounded forward buffers (and
// drop, counted, beyond the bound).
func (w *chaosWorld) stormAll() {
	for _, e := range w.edges {
		e.accepted += uint64(e.churn.StormLive(e.churn.LiveCount()))
	}
}

// converge sweeps every live sensor once more until the hub's incremental
// aggregate equals the batch recompute from ground truth. The sweep goes in
// chunks below the forward budget with a full drain between chunks, so no
// reading of the sweep itself is clamped: after one drop-free pass every
// device's latest state has been delivered, and the per-device upserts are
// idempotent, so equality is exact, not approximate.
func (w *chaosWorld) converge(t *testing.T, what string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !w.aggMatches() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: aggregate stuck at %v, want %v", what, w.agg.snapshot(), w.groundTruth())
		}
		for _, e := range w.edges {
			for remaining := e.churn.LiveCount(); remaining > 0; remaining -= 512 {
				e.accepted += uint64(e.churn.StormLive(min(remaining, 512)))
				waitAccounting(t, w, what+" (chunk drain)")
			}
		}
	}
}

func waitAccounting(t *testing.T, w *chaosWorld, what string) {
	t.Helper()
	waitFor(t, what, func() bool { return w.sunk() == w.accepted() })
}

func waitEdgeHealth(t *testing.T, w *chaosWorld, e *chaosEdge, want transport.Health) {
	t.Helper()
	waitFor(t, e.name+" health "+want.String(), func() bool {
		fwd, ok1 := e.node.PeerHealth("hub")
		syn, ok2 := w.hub.PeerHealth(e.name)
		return ok1 && ok2 && fwd == want && syn == want
	})
}

// TestChaosPartitionHealCycles is the scenario the tentpole exists for:
// partition/heal cycles with 10%/round churn across a 4-node TCP
// deployment. Scale and seed come from CHAOS_SENSORS / CHAOS_SEED (the CI
// chaos job runs the full 12500×3-edge fleet across a 3-seed matrix);
// defaults keep the plain `go test ./...` run minutes-free.
func TestChaosPartitionHealCycles(t *testing.T) {
	sensors := envInt("CHAOS_SENSORS", 2000)
	if testing.Short() {
		sensors = 400
	}
	seed := int64(envInt("CHAOS_SEED", 1))
	const cycles = 3

	w := newChaosWorld(t, seed, sensors, 3)
	w.syncMirrors(t, "initial mirror sync")
	w.stormAll()
	waitAccounting(t, w, "baseline accounting")
	w.converge(t, "baseline aggregate")

	for cycle := 0; cycle < cycles; cycle++ {
		dark := w.edges[cycle%len(w.edges)]

		// Dark phase: one edge loses both directions.
		w.net.Partition(syncLink(dark.name))
		w.net.Partition(forwardLink(dark.name))
		waitEdgeHealth(t, w, dark, transport.HealthPartitioned)

		// Traffic keeps flowing: healthy edges deliver, the dark edge
		// spools up to its budget and drops (counted) beyond it.
		w.stormAll()
		w.stormAll()

		// 10% churn per round on the healthy edges (the dark edge's fleet
		// holds still so its spooled replay stays routable on heal).
		for _, e := range w.edges {
			if e == dark {
				continue
			}
			if err := e.churn.Churn(e.churn.LiveCount()/10, false); err != nil {
				t.Fatal(err)
			}
			waitFor(t, e.name+" churn settles", e.churn.Settled)
		}
		// Healthy peers' sync rounds keep making progress while one peer
		// is dark.
		waitFor(t, "healthy mirrors track churn", func() bool {
			_ = w.hub.SyncPeers()
			for _, e := range w.edges {
				if e == dark {
					continue
				}
				if w.hub.MirrorCount(e.name, "PresenceSensor") != e.churn.LiveCount() {
					return false
				}
			}
			return true
		})

		// Heal: the spool replays, mirrors catch up via delta sync, and
		// both invariants must hold again.
		w.net.Heal(syncLink(dark.name))
		w.net.Heal(forwardLink(dark.name))
		waitEdgeHealth(t, w, dark, transport.HealthUp)
		w.syncMirrors(t, "post-heal mirror sync")
		waitAccounting(t, w, "post-heal accounting")
		w.converge(t, "post-heal aggregate")
	}

	// The outages must have been real: spooled replays and reconnects
	// happened, and at least one bounded spool overflowed into counted
	// drops.
	var retries, reconnects, budgetDrops uint64
	for _, e := range w.edges {
		st := e.node.Stats()
		retries += st.ForwardRetries
		reconnects += st.PeerReconnects
		budgetDrops += st.ForwardBudgetDrops
	}
	if retries == 0 {
		t.Fatal("no forward chunk was ever spooled and retried — the partitions were vacuous")
	}
	if reconnects == 0 {
		t.Fatal("no reconnect recorded across three partition/heal cycles")
	}
	if budgetDrops == 0 {
		t.Fatal("the bounded spool never clamped — raise traffic or lower the budget")
	}
	if w.hubRT.Stats().FederationEventsIn != w.agg.delivered.Load() {
		t.Fatalf("admitted %d but delivered %d — readings lost inside the hub",
			w.hubRT.Stats().FederationEventsIn, w.agg.delivered.Load())
	}
}
