package federation_test

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/devsim/chaos"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// chaosPeer returns a PeerConfig routed through the named chaos link with
// timings fast enough for partition tests to run in milliseconds.
func chaosPeer(n *chaos.Net, link, name, addr string) federation.PeerConfig {
	return federation.PeerConfig{
		Name:                name,
		Addr:                addr,
		Dialer:              n.Dialer(link),
		CallTimeout:         500 * time.Millisecond,
		HeartbeatInterval:   20 * time.Millisecond,
		ReconnectBackoff:    10 * time.Millisecond,
		ReconnectBackoffMax: 80 * time.Millisecond,
		PartitionedAfter:    2,
		Seed:                1,
	}
}

func waitHealth(t *testing.T, n *federation.Node, peer string, want transport.Health) {
	t.Helper()
	waitFor(t, "peer "+peer+" health "+want.String(), func() bool {
		h, ok := n.PeerHealth(peer)
		return ok && h == want
	})
}

// TestPartitionSpoolsThenReplaysWithoutResync is the federation-layer heart
// of partition tolerance: readings emitted while the peer is dark spool in
// the bounded forward buffers (beyond the budget they drop, counted), the
// heal replays them via the retry path, accounting stays exact, and the
// post-heal sync is a pure generation check — no rescan, because the peer
// did not restart and the cached generations are still valid.
func TestPartitionSpoolsThenReplaysWithoutResync(t *testing.T) {
	const sensors = 120
	cn := chaos.NewNet(11)
	crt, consumer, delivered := newConsumerNode(t, "hub")
	_, owner, _, cs := newOwnerNode(t, "edge", sensors)

	if err := owner.AddPeer(func() federation.PeerConfig {
		pc := chaosPeer(cn, "edge->hub", "hub", consumer.Addr())
		pc.ForwardEvents = true
		pc.ForwardBudget = 64 // force budget drops while partitioned
		return pc
	}()); err != nil {
		t.Fatal(err)
	}
	if err := consumer.AddPeer(func() federation.PeerConfig {
		pc := chaosPeer(cn, "hub->edge", "edge", owner.Addr())
		pc.Import = []string{"PresenceSensor"}
		return pc
	}()); err != nil {
		t.Fatal(err)
	}

	if err := cs.BindAll(); err != nil {
		t.Fatal(err)
	}
	settle(t, cs)
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}
	// The tight 64-unit budget can clamp even the baseline burst, so every
	// delivery assertion in this test is the exact-accounting form.
	sunk := func() uint64 {
		return delivered.n.Load() + owner.Stats().Drops() + crt.Stats().Drops()
	}
	accepted := uint64(cs.StormLive(cs.LiveCount()))
	waitFor(t, "baseline delivery", func() bool { return sunk() == accepted })
	scansBase := consumer.Stats().KindsScanned

	// Dark phase: both directions cut. The owner must notice and fast-fail.
	cn.Partition("edge->hub")
	cn.Partition("hub->edge")
	waitHealth(t, owner, "hub", transport.HealthPartitioned)
	if err := consumer.SyncPeers(); err == nil {
		t.Fatal("sync through a partitioned link reported success")
	}

	// Storm into the dark link: 64 spool against the held budget, the rest
	// must drop at the intake and be counted — the spool is bounded.
	dropsAtPartition := owner.Stats().ForwardBudgetDrops
	accepted += uint64(cs.StormLive(cs.LiveCount()))
	waitFor(t, "budget drops while partitioned", func() bool {
		return owner.Stats().ForwardBudgetDrops > dropsAtPartition
	})

	cn.Heal("edge->hub")
	cn.Heal("hub->edge")
	waitHealth(t, owner, "hub", transport.HealthUp)

	// Exact accounting across the outage: every accepted reading was
	// delivered or counted in exactly one drop counter.
	waitFor(t, "replay drains the spool", func() bool { return sunk() == accepted })
	ost := owner.Stats()
	if ost.ForwardRetries == 0 {
		t.Fatalf("spooled chunks never retried: %+v", ost)
	}
	if ost.PeerReconnects == 0 {
		t.Fatalf("no reconnect recorded: %+v", ost)
	}

	// Catch-up must be delta-driven: the fleet did not change and the owner
	// did not restart, so the post-heal sync is generation checks only.
	waitFor(t, "post-heal sync succeeds", func() bool { return consumer.SyncPeers() == nil })
	st := consumer.Stats()
	if st.KindsScanned != scansBase {
		t.Fatalf("post-heal sync rescanned: %d -> %d (full resync instead of delta catch-up)", scansBase, st.KindsScanned)
	}
	if st.PeerRestartsSeen != 0 {
		t.Fatalf("false restart detection: %+v", st)
	}

	// The healed link still delivers exactly.
	accepted += uint64(cs.StormLive(cs.LiveCount()))
	waitFor(t, "post-heal delivery", func() bool { return sunk() == accepted })
}

// TestDarkPeerDoesNotBlockHealthySync: with one peer permanently
// partitioned, sync rounds keep progressing for the healthy peer — the dead
// link costs its own fast-fail, not head-of-line blocking.
func TestDarkPeerDoesNotBlockHealthySync(t *testing.T) {
	cn := chaos.NewNet(12)
	_, consumer, _ := newConsumerNode(t, "hub")
	_, owner1, _, cs1 := newOwnerNode(t, "edge1", 40)
	_, owner2, _, cs2 := newOwnerNode(t, "edge2", 40)

	if err := consumer.AddPeer(func() federation.PeerConfig {
		pc := chaosPeer(cn, "hub->edge1", "edge1", owner1.Addr())
		pc.Import = []string{"PresenceSensor"}
		return pc
	}()); err != nil {
		t.Fatal(err)
	}
	if err := consumer.AddPeer(func() federation.PeerConfig {
		pc := chaosPeer(cn, "hub->edge2", "edge2", owner2.Addr())
		pc.Import = []string{"PresenceSensor"}
		return pc
	}()); err != nil {
		t.Fatal(err)
	}
	if err := cs1.BindAll(); err != nil {
		t.Fatal(err)
	}
	if err := cs2.BindAll(); err != nil {
		t.Fatal(err)
	}
	settle(t, cs1)
	settle(t, cs2)
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}

	cn.Partition("hub->edge2")
	waitHealth(t, consumer, "edge2", transport.HealthPartitioned)
	if st := consumer.Stats(); st.PeersPartitioned != 1 || st.PeersUp != 1 {
		t.Fatalf("health gauges off: %+v", st)
	}

	// Churn the healthy peer; its mirrors must keep tracking through sync
	// rounds that also hit the dark peer, and the dark peer must cost a
	// fast-fail, not a full call timeout per round.
	if err := cs1.Churn(10, false); err != nil {
		t.Fatal(err)
	}
	settle(t, cs1)
	start := time.Now()
	err := consumer.SyncPeers()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("sync round with a dark peer reported success")
	}
	if elapsed > 400*time.Millisecond {
		t.Fatalf("dark peer head-of-line blocked the round: %v", elapsed)
	}
	if got := consumer.MirrorCount("edge1", "PresenceSensor"); got != cs1.LiveCount() {
		t.Fatalf("healthy peer mirrors stale: %d, live %d", got, cs1.LiveCount())
	}
	if got := consumer.MirrorCount("edge2", "PresenceSensor"); got != 40 {
		t.Fatalf("dark peer mirrors should hold last known state: %d", got)
	}
}

// TestPeerRestartResyncsMirrors: a peer that dies and comes back as a new
// process (fresh registry generations) must be detected via its boot epoch;
// the consumer re-requests from generation zero and reconciles away mirrors
// of devices that did not survive the restart.
func TestPeerRestartResyncsMirrors(t *testing.T) {
	_, consumer, _ := newConsumerNode(t, "hub")

	mkOwner := func(addr string, sensors int) (*federation.Node, func(), error) {
		model, err := dsl.Load(ownerDesign)
		if err != nil {
			return nil, nil, err
		}
		vc := simclock.NewVirtual(epoch)
		rt := runtime.New(model, runtime.WithClock(vc))
		if err := rt.Start(); err != nil {
			return nil, nil, err
		}
		node, err := federation.New(federation.Config{
			Name: "edge", Runtime: rt, ListenAddr: addr,
			Exports: []federation.Export{{Kind: "PresenceSensor", Source: "presence"}},
		})
		if err != nil {
			rt.Stop()
			return nil, nil, err
		}
		for i := 0; i < sensors; i++ {
			d := device.NewBase(idOf(i), "PresenceSensor", nil,
				registry.Attributes{"zone": "z"}, vc.Now)
			if err := rt.BindDevice(d); err != nil {
				node.Close()
				rt.Stop()
				return nil, nil, err
			}
		}
		return node, func() { node.Close(); rt.Stop() }, nil
	}

	owner1, stop1, err := mkOwner("127.0.0.1:0", 30)
	if err != nil {
		t.Fatal(err)
	}
	addr := owner1.Addr()
	if err := consumer.AddPeer(federation.PeerConfig{
		Name: "edge", Addr: addr, Import: []string{"PresenceSensor"},
		CallTimeout:         500 * time.Millisecond,
		HeartbeatInterval:   20 * time.Millisecond,
		ReconnectBackoff:    10 * time.Millisecond,
		ReconnectBackoffMax: 80 * time.Millisecond,
		PartitionedAfter:    2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}
	if got := consumer.MirrorCount("edge", "PresenceSensor"); got != 30 {
		t.Fatalf("mirrored %d, want 30", got)
	}

	// Kill the owner and bring up a new incarnation on the same address
	// with a smaller fleet. The port may linger briefly, so retry the bind.
	stop1()
	var stop2 func()
	waitFor(t, "restart on the same address", func() bool {
		_, stop, err := mkOwner(addr, 10)
		if err != nil {
			return false // port still lingering from the dead incarnation
		}
		stop2 = stop
		return true
	})
	defer stop2()

	// The consumer must reconnect, detect the new boot epoch, and
	// reconcile: exactly the 10 surviving devices mirrored, no stale ones.
	waitFor(t, "restart detected and mirrors reconciled", func() bool {
		if consumer.SyncPeers() != nil {
			return false
		}
		return consumer.Stats().PeerRestartsSeen > 0 &&
			consumer.MirrorCount("edge", "PresenceSensor") == 10
	})
}

func idOf(i int) string { return string(rune('a'+i/26)) + string(rune('a'+i%26)) }

// TestAggSyncCatchesUpAfterHeal: dirty groups marked while the link is dark
// are carried by the first agg_sync after heal (plus the idempotent full
// reseed), converging the hub to the edge's ground truth without any raw
// event crossing the wire.
func TestAggSyncCatchesUpAfterHeal(t *testing.T) {
	cn := chaos.NewNet(13)
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
	if err := edge.AddPeer(func() federation.PeerConfig {
		pc := chaosPeer(cn, "edge->hub", "hub", hub.Addr())
		pc.ForwardEvents = true
		return pc
	}()); err != nil {
		t.Fatal(err)
	}

	const sensors = 60
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: []string{"z0", "z1", "z2"}, GroupAttr: "zone", Seed: 7,
	}, vc)
	for _, s := range swarm.Sensors() {
		if err := edgeRT.BindDevice(s); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "exporter attachments", func() bool { return swarm.AttachedCount() == sensors })

	converged := func() bool {
		want := swarm.VacantPerLot()
		for k, v := range want {
			if v == 0 {
				delete(want, k)
			}
		}
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
	swarm.FlipBurst(sensors)
	waitFor(t, "baseline agg convergence", converged)

	// Dark phase: state keeps changing locally; dirty groups accumulate in
	// the parked buffer instead of burning retries.
	cn.Partition("edge->hub")
	waitHealth(t, edge, "hub", transport.HealthPartitioned)
	swarm.FlipBurst(sensors / 2)

	cn.Heal("edge->hub")
	waitFor(t, "agg catch-up after heal", converged)
	if est := edge.Stats(); est.EventsForwarded != 0 {
		t.Fatalf("raw events crossed an aggregated export: %+v", est)
	}
}

// TestSwapBuffersShedTheirHighWaterMark: a backlog far above the forward
// queue's retain bound piles up behind a dark peer, spools through the
// outage and replays on heal with every reading accounted. That the queue
// then sheds the backlog's capacity is checked once, in internal/handoff.
func TestSwapBuffersShedTheirHighWaterMark(t *testing.T) {
	const (
		sensors  = 500
		backlog  = 100_000
		maxBatch = 64
	)
	cn := chaos.NewNet(14)
	crt, consumer, delivered := newConsumerNode(t, "hub")
	_, owner, _, cs := newOwnerNode(t, "edge", sensors)
	if err := owner.AddPeer(func() federation.PeerConfig {
		pc := chaosPeer(cn, "edge->hub", "hub", consumer.Addr())
		pc.ForwardEvents = true
		pc.ForwardBudget = -1 // the whole backlog spools
		pc.MaxBatch = maxBatch
		return pc
	}()); err != nil {
		t.Fatal(err)
	}
	if err := cs.BindAll(); err != nil {
		t.Fatal(err)
	}
	settle(t, cs)
	sunk := func() uint64 {
		return delivered.n.Load() + owner.Stats().Drops() + crt.Stats().Drops()
	}

	cn.Partition("edge->hub")
	waitHealth(t, owner, "hub", transport.HealthPartitioned)
	dark := sunk()
	accepted := uint64(cs.StormLive(backlog))
	if accepted != backlog {
		t.Fatalf("swarm accepted %d of %d readings", accepted, backlog)
	}
	if got := sunk(); got != dark {
		t.Fatalf("%d backlog readings were delivered or dropped behind the partition, want all spooled", got-dark)
	}
	cn.Heal("edge->hub")
	waitFor(t, "backlog replayed", func() bool { return sunk() == dark+accepted })
	if st := owner.Stats(); st.ForwardRetries == 0 {
		t.Fatalf("the backlog never spooled through the outage: %+v", st)
	}
}
