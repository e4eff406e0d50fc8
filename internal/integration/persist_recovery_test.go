package integration_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/devsim"
	"repro/internal/devsim/chaos"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/persist"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// The durable-restart scenario: one hub aggregates a single edge's fleet
// over real TCP through the fault injector; the edge persists its registry
// through a WAL whose only durability points are the barriers taken by the
// hub's own sync rounds (FlushInterval is effectively infinite). A seeded
// fuse kills the edge at an arbitrary workload round — crashing the store
// and severing both links in one stroke — so the durable state is exactly
// what the last sync round barriered, and everything after it is lost.
//
// A replacement then boots from the same directory and must:
//   - recover the barriered prefix (fleet, generations, boot epoch),
//   - reclaim the recovered registrations without moving a counter,
//   - re-register only the lost tail (a real, generation-bumping gap),
//   - rejoin the hub as the same incarnation: zero PeerRestartsSeen,
//   - catch the hub up with traffic proportional to that gap, not the
//     fleet, and converge the aggregate to exact device ground truth.
//
// The scenario runs once per way of standing the edge up — runtime.New, and
// NewHost + Deploy with the app handle given to federation — because New is
// a one-app host: recovery may not depend on the spelling.
type persistEdge struct {
	rt    *runtime.Runtime
	stop  func() // tears down the app and its substrate
	node  *federation.Node
	swarm *devsim.Swarm
	churn *devsim.ChurnSwarm
}

// persistEdgeCtors opens the edge's durable runtime. Only sync-round
// barriers (and crash-free Close) make the WAL durable: the crash discards
// everything after the last barrier, which is the sharpest version of the
// recovery contract.
var persistEdgeCtors = []struct {
	name string
	open func(t *testing.T, vc *simclock.Virtual, dir string) (*runtime.Runtime, func())
}{
	{"New", func(t *testing.T, vc *simclock.Virtual, dir string) (*runtime.Runtime, func()) {
		rt := runtime.New(dsl.MustLoad(chaosEdgeDesign), runtime.WithClock(vc),
			runtime.WithPersistence(dir, persist.Options{FlushInterval: time.Hour}))
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		return rt, rt.Stop
	}},
	{"NewHost+Deploy", func(t *testing.T, vc *simclock.Virtual, dir string) (*runtime.Runtime, func()) {
		h, err := runtime.NewHost(runtime.SubstrateConfig{
			Clock: vc, PersistDir: dir, PersistOpts: persist.Options{FlushInterval: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := h.Deploy("edge", dsl.MustLoad(chaosEdgeDesign), runtime.AppConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return rt, h.Close
	}},
}

func newPersistEdge(t *testing.T, open func(*testing.T, *simclock.Virtual, string) (*runtime.Runtime, func()),
	net *chaos.Net, hub *federation.Node, dir, addr string, sensors int, seed int64) *persistEdge {
	t.Helper()
	e := &persistEdge{}
	vc := simclock.NewVirtual(epoch)
	e.rt, e.stop = open(t, vc, dir)
	cfg := federation.Config{
		Name: "edge0", Runtime: e.rt, ListenAddr: addr,
		Exports: []federation.Export{{Kind: "PresenceSensor", Source: "presence"}},
	}
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		e.node, err = federation.New(cfg)
		if err == nil {
			break
		}
		if addr == "" || time.Now().After(deadline) {
			t.Fatalf("federation.New: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	lots := []string{"e0-z0", "e0-z1", "e0-z2", "e0-z3"}
	e.swarm = devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: lots, GroupAttr: "zone", Seed: seed,
	}, vc)
	e.churn, err = devsim.NewChurnSwarm(e.swarm, devsim.ChurnHooks{
		Bind:   func(s *devsim.SwarmSensor) error { return e.rt.BindDevice(s) },
		Unbind: e.rt.UnbindDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.node.AddPeer(chaosPeerTimings(federation.PeerConfig{
		Name: "hub", Addr: hub.Addr(),
		Dialer:        net.Dialer(forwardLink("edge0")),
		ForwardEvents: true,
		ForwardBudget: 1024,
		Seed:          seed,
	})); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPersistCrashRecoveryRejoin(t *testing.T) {
	for _, ctor := range persistEdgeCtors {
		t.Run(ctor.name, func(t *testing.T) { testPersistCrashRecoveryRejoin(t, ctor.open) })
	}
}

func testPersistCrashRecoveryRejoin(t *testing.T, open func(*testing.T, *simclock.Virtual, string) (*runtime.Runtime, func())) {
	seed := int64(envInt("CHAOS_SEED", 1))
	sensors := envInt("CHAOS_SENSORS", 2000)
	net := chaos.NewNet(seed)
	dir := t.TempDir()

	agg := &chaosAgg{}
	hubRT := runtime.New(dsl.MustLoad(chaosHubDesign), runtime.WithClock(simclock.NewVirtual(epoch)))
	if err := hubRT.ImplementContext("ZoneVacancy", agg); err != nil {
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

	e := newPersistEdge(t, open, net, hub, dir, "", sensors, seed)
	if err := hub.AddPeer(chaosPeerTimings(federation.PeerConfig{
		Name: "edge0", Addr: e.node.Addr(),
		Dialer: net.Dialer(syncLink("edge0")),
		Import: []string{"PresenceSensor"},
		Seed:   seed + 100,
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.churn.BindAll(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "attachments settle", e.churn.Settled)

	var accepted, retired uint64
	sunk := func() uint64 {
		return agg.delivered.Load() + retired + e.node.Stats().Drops() + hubRT.Stats().Drops()
	}
	drain := func(what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if sunk() == accepted {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		st := e.node.Stats()
		hst := hubRT.Stats()
		t.Fatalf("timed out waiting for %s: accepted %d, sunk %d (delivered %d, fwd drops %d/%d/%d, hub drops %d/%d/%d)",
			what, accepted, sunk(), agg.delivered.Load(),
			st.ForwardBudgetDrops, st.ForwardSendDrops, st.ForwardUnrouted,
			hst.FederationEventDrops, hst.IngestBudgetDrops, hst.IngestDeadlineDrops)
	}
	// A sync round only counts once SyncPeers completes without error, so
	// the post-restart round provably reaches the reborn node instead of
	// passing on a mirror count left over from before the crash.
	syncMirrors := func(what string) {
		t.Helper()
		waitFor(t, what, func() bool {
			if err := hub.SyncPeers(); err != nil {
				return false
			}
			return hub.MirrorCount("edge0", "PresenceSensor") == e.churn.LiveCount()
		})
	}
	groundTruth := func() map[string]int {
		want := make(map[string]int)
		for zone, vacant := range e.swarm.VacantPerLot() {
			if vacant > 0 {
				want[zone] = vacant
			}
		}
		return want
	}
	aggMatches := func() bool {
		want, got := groundTruth(), agg.snapshot()
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
	converge := func(what string) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for !aggMatches() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: aggregate stuck at %v, want %v", what, agg.snapshot(), groundTruth())
			}
			for remaining := e.churn.LiveCount(); remaining > 0; remaining -= 512 {
				accepted += uint64(e.churn.StormLive(min(remaining, 512)))
				drain(what + " (chunk drain)")
			}
		}
	}

	syncMirrors("initial mirror sync")
	fullSent, fullRecv := hub.PeerBytes("edge0")
	fullBytes := fullSent + fullRecv

	// Workload rounds: storm, drain, churn a slice of the fleet, and sync
	// the hub every other round — so the fuse can land with the durable
	// state either in step with the hub's cursor or one churn behind it.
	// The seeded fuse kills the edge's store at one of these boundaries.
	fuse := net.NewFuse(e.rt.Persistence(), 2, 6, syncLink("edge0"), forwardLink("edge0"))
	churnBatch := sensors / 50
	if churnBatch < 1 {
		churnBatch = 1
	}
	for round := 0; !fuse.Fired(); round++ {
		accepted += uint64(e.churn.StormLive(e.churn.LiveCount()))
		drain(fmt.Sprintf("round %d accounting", round))
		if err := e.churn.Churn(churnBatch, false); err != nil {
			t.Fatal(err)
		}
		waitFor(t, fmt.Sprintf("round %d churn settles", round), e.churn.Settled)
		if round%2 == 0 {
			syncMirrors(fmt.Sprintf("round %d mirror sync", round))
		}
		fuse.Tick()
	}

	// The node is dead: retire its drop counters into the accounting ledger
	// (they die with the process), note the hub's byte cursor, and tear it
	// down. The store crashed first, so the teardown writes nothing to disk.
	retired += e.node.Stats().Drops()
	preSent, preRecv := hub.PeerBytes("edge0")
	victimAddr := e.node.Addr()
	e.node.Close()
	e.stop()
	net.Heal(syncLink("edge0"))
	net.Heal(forwardLink("edge0"))

	// The replacement boots from the crash image. The same swarm seed
	// reproduces the same sensor population, so recovered registrations
	// reclaim identically.
	e2 := newPersistEdge(t, open, net, hub, dir, victimAddr, sensors, seed)
	t.Cleanup(func() { e2.node.Close(); e2.stop() })
	rec := e2.rt.Persistence().Recovered()
	if rec == nil || len(rec.Entities) == 0 {
		t.Fatalf("replacement recovered nothing from %s", dir)
	}
	if got := len(rec.Entities); got > sensors {
		t.Fatalf("recovered %d entities from a %d-sensor fleet", got, sensors)
	}
	restored := make(map[string]bool, len(rec.Entities))
	for _, re := range rec.Entities {
		restored[string(re.Entity.ID)] = true
	}
	if err := e2.churn.RebindMatching(func(s *devsim.SwarmSensor) bool { return restored[s.ID()] }); err != nil {
		t.Fatal(err)
	}
	// Reclaiming a recovered registration with identical content must not
	// move a generation counter; whatever the crash swallowed re-registers
	// fresh, which is the only genuine gap the delta sync has to cover.
	if err := e2.churn.ChurnIn(sensors); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "recovered fleet rebinds", e2.churn.Settled)
	gap := sensors - len(restored)

	// Swap accounting over to the new incarnation: the dead node's counters
	// were retired above and every fuse tick sits behind a drain, so
	// accepted carries over exactly; the new node starts its own counters.
	e = e2

	syncMirrors("post-restart catch-up")
	if restarts := hub.Stats().PeerRestartsSeen; restarts != 0 {
		t.Fatalf("durable restart tripped %d full resync(s); rejoin must reuse the restored boot epoch", restarts)
	}
	postSent, postRecv := hub.PeerBytes("edge0")
	catchup := (postSent - preSent) + (postRecv - preRecv)
	if catchup == 0 {
		t.Fatal("post-restart sync moved zero bytes — the catch-up round never reached the reborn node")
	}
	// Registry sync ships at kind granularity, so "gap-proportional" means:
	// a kind whose durable generation already matches the hub's cursor costs
	// only the handshake. With reclaim holding every counter still, the
	// whole catch-up round must cost a fraction of the initial full build.
	if catchup*4 > fullBytes {
		t.Fatalf("catch-up cost %d sync bytes for a %d-entity gap — within 4x of the %d-byte full build; rejoin must be gap-proportional",
			catchup, gap, fullBytes)
	}
	t.Logf("recovered %d/%d registrations, gap %d; catch-up %d bytes vs %d-byte full build, 0 restarts seen",
		len(restored), sensors, gap, catchup, fullBytes)

	// The reborn node is a full citizen: post-restart churn must advance
	// generations past the restored base and flow to the hub's mirror, and
	// the aggregate must converge to exact device ground truth.
	if err := e.churn.Churn(churnBatch, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restart churn settles", e.churn.Settled)
	syncMirrors("post-restart churn sync")
	accepted += uint64(e.churn.StormLive(e.churn.LiveCount()))
	drain("post-restart accounting")
	converge("post-restart aggregate")
}
