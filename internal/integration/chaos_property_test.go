package integration_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/devsim"
	"repro/internal/devsim/chaos"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// Property test for reconnect catch-up: random seeded sequences of
// {publish, partition, heal, churn} operations against a 3-node deployment
// (1 hub + 2 edges over real TCP through the fault injector) must always
// end — once every link is healed — with exact accounting and the hub's
// incremental aggregate equal to the batch recompute from device ground
// truth. On failure the sequence is shrunk (delta-debugging style) to a
// minimal reproduction before reporting, so the log shows the few
// operations that matter, not the whole random script.

const (
	propEdges   = 2
	propSensors = 64 // per edge
	propBudget  = 96 // per-peer forward spool bound; two dark storms overflow it
)

type propOp struct {
	Kind string // "publish", "partition", "heal", "churn"
	Edge int
	N    int // publish: sensors to storm; churn: sensors to replace
}

func (o propOp) String() string {
	switch o.Kind {
	case "publish", "churn":
		return fmt.Sprintf("%s(edge%d,%d)", o.Kind, o.Edge, o.N)
	default:
		return fmt.Sprintf("%s(edge%d)", o.Kind, o.Edge)
	}
}

func fmtOps(ops []propOp) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// genOps draws a random operation sequence. Publishes dominate so most
// sequences carry real traffic through whatever link state the rarer
// partition/heal/churn operations leave behind; unmatched partitions and
// heals are deliberately legal (healing a healthy link is a no-op,
// partitioning twice is idempotent).
func genOps(rng *rand.Rand, n int) []propOp {
	ops := make([]propOp, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			ops = append(ops, propOp{Kind: "publish", Edge: rng.Intn(propEdges), N: 1 + rng.Intn(propSensors)})
		case 4, 5:
			ops = append(ops, propOp{Kind: "partition", Edge: rng.Intn(propEdges)})
		case 6, 7:
			ops = append(ops, propOp{Kind: "heal", Edge: rng.Intn(propEdges)})
		default:
			ops = append(ops, propOp{Kind: "churn", Edge: rng.Intn(propEdges), N: 1 + rng.Intn(propSensors/8)})
		}
	}
	return ops
}

// propWorld is the error-returning sibling of chaosWorld: every step that
// would t.Fatal in the integration test reports an error instead, so the
// shrinker can re-run candidate sequences in-process.
type propWorld struct {
	net     *chaos.Net
	hubRT   *runtime.Runtime
	hub     *federation.Node
	agg     *chaosAgg
	edges   []*chaosEdge
	closers []func()
}

func (w *propWorld) Close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
}

func waitCond(what string, cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("timed out waiting for %s", what)
}

func buildPropWorld(seed int64) (w *propWorld, err error) {
	w = &propWorld{net: chaos.NewNet(seed)}
	defer func() {
		if err != nil {
			w.Close()
		}
	}()

	w.agg = &chaosAgg{}
	w.hubRT = runtime.New(dsl.MustLoad(chaosHubDesign), runtime.WithClock(simclock.NewVirtual(epoch)))
	if err := w.hubRT.ImplementContext("ZoneVacancy", w.agg); err != nil {
		return w, err
	}
	if err := w.hubRT.Start(); err != nil {
		return w, err
	}
	w.closers = append(w.closers, w.hubRT.Stop)
	hub, err := federation.New(federation.Config{Name: "hub", Runtime: w.hubRT})
	if err != nil {
		return w, err
	}
	w.closers = append(w.closers, hub.Close)
	w.hub = hub

	for i := 0; i < propEdges; i++ {
		e := &chaosEdge{name: "edge" + strconv.Itoa(i)}
		vc := simclock.NewVirtual(epoch)
		e.rt = runtime.New(dsl.MustLoad(chaosEdgeDesign), runtime.WithClock(vc))
		if err := e.rt.Start(); err != nil {
			return w, err
		}
		w.closers = append(w.closers, e.rt.Stop)
		e.node, err = federation.New(federation.Config{
			Name: e.name, Runtime: e.rt,
			Exports: []federation.Export{{Kind: "PresenceSensor", Source: "presence"}},
		})
		if err != nil {
			return w, err
		}
		w.closers = append(w.closers, e.node.Close)

		lots := make([]string, 4)
		for z := range lots {
			lots[z] = e.name + "-z" + strconv.Itoa(z)
		}
		e.swarm = devsim.NewSwarm(devsim.SwarmConfig{
			Sensors: propSensors, Lots: lots, GroupAttr: "zone", Seed: seed + int64(i),
		}, vc)
		e.churn, err = devsim.NewChurnSwarm(e.swarm, devsim.ChurnHooks{
			Bind:   func(s *devsim.SwarmSensor) error { return e.rt.BindDevice(s) },
			Unbind: e.rt.UnbindDevice,
		})
		if err != nil {
			return w, err
		}

		pc := chaosPeerTimings(federation.PeerConfig{
			Name: "hub", Addr: hub.Addr(),
			Dialer:        w.net.Dialer(forwardLink(e.name)),
			ForwardEvents: true,
			ForwardBudget: propBudget,
			Seed:          seed + int64(i),
		})
		if err := e.node.AddPeer(pc); err != nil {
			return w, err
		}
		pc = chaosPeerTimings(federation.PeerConfig{
			Name: e.name, Addr: e.node.Addr(),
			Dialer: w.net.Dialer(syncLink(e.name)),
			Import: []string{"PresenceSensor"},
			Seed:   seed + 100 + int64(i),
		})
		if err := hub.AddPeer(pc); err != nil {
			return w, err
		}
		w.edges = append(w.edges, e)

		if err := e.churn.BindAll(); err != nil {
			return w, err
		}
	}
	for _, e := range w.edges {
		if err := waitCond(e.name+" attachments settle", e.churn.Settled); err != nil {
			return w, err
		}
	}
	return w, nil
}

func (w *propWorld) sunk() uint64 {
	total := w.agg.delivered.Load()
	for _, e := range w.edges {
		total += e.node.Stats().Drops()
	}
	return total + w.hubRT.Stats().Drops()
}

func (w *propWorld) accepted() uint64 {
	var total uint64
	for _, e := range w.edges {
		total += e.accepted
	}
	return total
}

func (w *propWorld) groundTruth() map[string]int {
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

func (w *propWorld) aggMatches() bool {
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

func (w *propWorld) syncMirrors(what string) error {
	return waitCond(what, func() bool {
		_ = w.hub.SyncPeers()
		for _, e := range w.edges {
			if w.hub.MirrorCount(e.name, "PresenceSensor") != e.churn.LiveCount() {
				return false
			}
		}
		return true
	})
}

// runSeq builds a fresh world, applies the operation sequence, then heals
// everything and checks the catch-up invariants: exact accounting (every
// accepted reading delivered or in a drop counter), incremental == batch
// aggregate equality, and no spurious restart detection (catch-up must be
// pure delta replay, never a full resync of a peer that never restarted).
func runSeq(seed int64, ops []propOp) error {
	w, err := buildPropWorld(seed)
	if err != nil {
		return fmt.Errorf("world setup: %w", err)
	}
	defer w.Close()
	if err := w.syncMirrors("initial mirror sync"); err != nil {
		return err
	}

	for i, op := range ops {
		e := w.edges[op.Edge]
		switch op.Kind {
		case "publish":
			n := op.N
			if live := e.churn.LiveCount(); n > live {
				n = live
			}
			e.accepted += uint64(e.churn.StormLive(n))
		case "partition":
			w.net.Partition(syncLink(e.name))
			w.net.Partition(forwardLink(e.name))
		case "heal":
			w.net.Heal(syncLink(e.name))
			w.net.Heal(forwardLink(e.name))
		case "churn":
			n := op.N
			if live := e.churn.LiveCount(); n > live/2 {
				n = live / 2
			}
			if n == 0 {
				continue
			}
			if err := e.churn.Churn(n, false); err != nil {
				return fmt.Errorf("op %d %s: %w", i, op, err)
			}
			if err := waitCond(op.String()+" settles", e.churn.Settled); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		default:
			return fmt.Errorf("op %d: unknown kind %q", i, op.Kind)
		}
	}

	// Heal everything and require full catch-up.
	for _, e := range w.edges {
		w.net.Heal(syncLink(e.name))
		w.net.Heal(forwardLink(e.name))
	}
	if err := w.syncMirrors("post-heal mirror sync"); err != nil {
		return err
	}
	if err := waitCond("post-heal accounting", func() bool { return w.sunk() == w.accepted() }); err != nil {
		return fmt.Errorf("%w (accepted %d, sunk %d)", err, w.accepted(), w.sunk())
	}

	// Converge the aggregate with drop-free sweeps: re-publish every live
	// sensor (idempotent per-device upserts) and drain between sweeps.
	deadline := time.Now().Add(20 * time.Second)
	for !w.aggMatches() {
		if time.Now().After(deadline) {
			return fmt.Errorf("aggregate stuck at %v, want %v", w.agg.snapshot(), w.groundTruth())
		}
		for _, e := range w.edges {
			e.accepted += uint64(e.churn.StormLive(e.churn.LiveCount()))
		}
		if err := waitCond("sweep drain", func() bool { return w.sunk() == w.accepted() }); err != nil {
			return err
		}
	}

	for _, e := range w.edges {
		if got := e.node.Stats().PeerRestartsSeen; got != 0 {
			return fmt.Errorf("%s saw %d peer restarts — catch-up fell back to full resync", e.name, got)
		}
	}
	return nil
}

// shrinkOps minimizes a failing sequence delta-debugging style: first try
// dropping large chunks, then single operations, re-running the remainder
// each time and keeping any removal that still fails. Bounded by a global
// deadline since every probe spins up a fresh 3-node world.
func shrinkOps(seed int64, ops []propOp, budget time.Duration) []propOp {
	deadline := time.Now().Add(budget)
	stillFails := func(cand []propOp) bool {
		return time.Now().Before(deadline) && runSeq(seed, cand) != nil
	}
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(ops); {
			cand := append(append([]propOp{}, ops[:i]...), ops[i+chunk:]...)
			if stillFails(cand) {
				ops = cand
			} else {
				i += chunk
			}
		}
	}
	return ops
}

func TestPropertyReconnectCatchup(t *testing.T) {
	trials := 3
	if testing.Short() {
		trials = 1
	}
	baseSeed := int64(envInt("CHAOS_SEED", 1))
	for trial := 0; trial < trials; trial++ {
		seed := baseSeed*1000 + int64(trial)
		rng := rand.New(rand.NewSource(seed))
		ops := genOps(rng, 8+rng.Intn(17))
		t.Logf("seed %d: %d ops: %s", seed, len(ops), fmtOps(ops))
		if err := runSeq(seed, ops); err != nil {
			shrunk := shrinkOps(seed, ops, 90*time.Second)
			t.Fatalf("seed %d: %v\nminimal failing sequence (%d ops): %s",
				seed, err, len(shrunk), fmtOps(shrunk))
		}
	}
}
