// Command chaosstorm runs the federation tier through a storm of injected
// network faults: one hub node maintains a fleet-wide grouped vacancy
// aggregate while edge nodes own the sensors, every RPC crossing a seeded
// fault injector (latency, jitter, random connection drops, partitions).
// Each round one edge is partitioned in both directions while traffic and
// churn continue, then healed: its spooled readings replay under
// replay-protected streams and its mirrors catch up by generation-keyed
// delta sync — never a full resync. After the partition rounds one edge
// node is power-failed mid-stream (chaos.Net.Kill crashes its WAL store and
// severs its links) and a replacement boots at the same address from the
// same persistence directory. Durable recovery means the replacement
// re-advertises the restored boot epoch and generations and reclaims its
// fleet without moving a counter, so the hub must NOT see a restart: its
// cached sync cursors stay valid and catch-up costs the generation gap —
// a few handshake bytes — not a full mirror rebuild.
//
// Throughout, two invariants are cross-checked exactly, not approximately:
// every reading accepted from an attached sensor is either delivered to the
// hub's context once or counted by exactly one drop counter, and the hub's
// incrementally maintained aggregate equals a batch recompute from device
// ground truth after every heal.
//
// Run it with:
//
//	go run ./examples/chaosstorm -sensors 12500 -cycles 3 -churn 0.10
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/devsim"
	"repro/internal/devsim/chaos"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/persist"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

const hubDesign = `
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

const edgeDesign = `
device PresenceSensor {
	attribute zone as String;
	source presence as Boolean;
}
`

// vacancy is the hub's context implementation: a per-zone vacancy count,
// combinable so each delivery updates the aggregate in O(1).
type vacancy struct {
	delivered atomic.Uint64

	mu   sync.Mutex
	last map[string]int
}

func (h *vacancy) Map(zone string, v any, emit func(string, any)) {
	if !v.(bool) {
		emit(zone, true)
	}
}
func (h *vacancy) Reduce(zone string, vs []any, emit func(string, any)) { emit(zone, len(vs)) }
func (h *vacancy) Combine(_ string, a, b any) any                       { return a.(int) + b.(int) }
func (h *vacancy) Uncombine(_ string, a, v any) any                     { return a.(int) - v.(int) }

func (h *vacancy) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
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

func (h *vacancy) snapshot() map[string]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := make(map[string]int, len(h.last))
	for k, v := range h.last {
		cp[k] = v
	}
	return cp
}

// edge is one device-owner node.
type edge struct {
	name     string
	rt       *runtime.Runtime
	node     *federation.Node
	churn    *devsim.ChurnSwarm
	accepted uint64
}

// world is the whole deployment plus the fault injector and the drop
// counters of any node incarnations that have since been killed (their
// accepted readings stay part of the accounting forever).
type world struct {
	net         *chaos.Net
	vc          *simclock.Virtual
	hubRT       *runtime.Runtime
	hub         *federation.Node
	agg         *vacancy
	edges       []*edge
	seed        int64
	retired     uint64
	persistRoot string // per-edge WAL+snapshot dirs live under here
}

func syncLink(name string) string    { return "hub->" + name }
func forwardLink(name string) string { return name + "->hub" }

func peerTimings(pc federation.PeerConfig) federation.PeerConfig {
	pc.CallTimeout = 2 * time.Second
	pc.HeartbeatInterval = 25 * time.Millisecond
	pc.ReconnectBackoff = 10 * time.Millisecond
	pc.ReconnectBackoffMax = 100 * time.Millisecond
	pc.PartitionedAfter = 2
	return pc
}

func main() {
	sensors := flag.Int("sensors", 12500, "sensors per edge node")
	edges := flag.Int("edges", 3, "edge (device-owner) nodes")
	cycles := flag.Int("cycles", 3, "partition/heal cycles")
	churn := flag.Float64("churn", 0.10, "fraction of each healthy edge's fleet churned per cycle")
	seed := flag.Int64("seed", 1, "fault-injection and fleet seed")
	latency := flag.Duration("latency", 2*time.Millisecond, "base latency injected on every edge->hub write")
	jitter := flag.Duration("jitter", time.Millisecond, "max extra seeded-random write delay")
	drop := flag.Float64("drop", 0.002, "per-write probability of a silent connection drop")
	metricsAddr := flag.String("metrics", "", "Prometheus /metrics listen address on the hub (empty = disabled)")
	flag.Parse()
	if err := run(*sensors, *edges, *cycles, *churn, *seed, *latency, *jitter, *drop, *metricsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "chaosstorm:", err)
		os.Exit(1)
	}
}

func run(sensors, edges, cycles int, churnFrac float64, seed int64, latency, jitter time.Duration, drop float64, metricsAddr string) error {
	w := &world{net: chaos.NewNet(seed), vc: simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC)), seed: seed}

	persistRoot, err := os.MkdirTemp("", "chaosstorm-persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(persistRoot)
	w.persistRoot = persistRoot

	w.agg = &vacancy{}
	hubModel, err := dsl.Load(hubDesign)
	if err != nil {
		return err
	}
	rtOpts := []runtime.Option{runtime.WithClock(w.vc)}
	if metricsAddr != "" {
		rtOpts = append(rtOpts, runtime.WithMetricsAddr(metricsAddr))
	}
	w.hubRT = runtime.New(hubModel, rtOpts...)
	if err := w.hubRT.ImplementContext("ZoneVacancy", w.agg); err != nil {
		return err
	}
	if err := w.hubRT.Start(); err != nil {
		return err
	}
	defer w.hubRT.Stop()
	if ma := w.hubRT.MetricsAddr(); ma != "" {
		fmt.Printf("hub metrics on http://%s/metrics\n", ma)
	}
	w.hub, err = federation.New(federation.Config{Name: "hub", Runtime: w.hubRT})
	if err != nil {
		return err
	}
	defer w.hub.Close()

	start := time.Now()
	for i := 0; i < edges; i++ {
		e, err := w.newEdge(fmt.Sprintf("edge%d", i), "", sensors, seed+int64(i))
		if err != nil {
			return err
		}
		w.edges = append(w.edges, e)
		if err := w.hub.AddPeer(peerTimings(federation.PeerConfig{
			Name: e.name, Addr: e.node.Addr(),
			Dialer: w.net.Dialer(syncLink(e.name)),
			Import: []string{"PresenceSensor"},
			Seed:   seed + 100 + int64(i),
		})); err != nil {
			return err
		}
		// Every edge->hub link runs degraded from the start: injected
		// latency, jitter, and random mid-conversation connection drops.
		w.net.SetProfile(forwardLink(e.name), chaos.Profile{
			Latency: latency, Jitter: jitter, DropRate: drop,
		})
	}
	defer func() {
		for _, e := range w.edges {
			e.node.Close()
			e.rt.Stop()
		}
	}()
	for _, e := range w.edges {
		if err := waitFor(e.name+" attachments settle", 30*time.Second, e.churn.Settled); err != nil {
			return err
		}
	}
	if err := w.syncMirrors("initial mirror sync", nil); err != nil {
		return err
	}
	// The byte cost of building edge0's mirror set from nothing — the
	// full-rebuild comparator for the post-restart catch-up bound.
	initSent, initRecv := w.hub.PeerBytes(w.edges[0].name)
	fullSyncBytes := initSent + initRecv
	w.stormAll()
	if err := w.waitAccounted("baseline accounting"); err != nil {
		return err
	}
	if err := w.converge("baseline aggregate"); err != nil {
		return err
	}
	fmt.Printf("federated %d nodes, %d sensors, %d zones in %v (latency %v±%v, drop %.2g/write)\n",
		1+len(w.edges), sensors*len(w.edges), 4*len(w.edges),
		time.Since(start).Round(time.Millisecond), latency, jitter, drop)

	for cycle := 1; cycle <= cycles; cycle++ {
		wall := time.Now()
		dark := w.edges[(cycle-1)%len(w.edges)]
		w.net.Partition(syncLink(dark.name))
		w.net.Partition(forwardLink(dark.name))
		if err := w.waitHealth(dark, transport.HealthPartitioned); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}

		// Traffic continues everywhere: healthy edges deliver through the
		// lossy links, the dark edge spools up to its forward budget and
		// drops (counted) beyond it.
		w.stormAll()
		w.stormAll()

		// Churn the healthy fleets and keep their mirrors in step while the
		// dark peer contributes nothing but sync errors.
		for _, e := range w.edges {
			if e == dark {
				continue
			}
			if err := e.churn.Churn(int(churnFrac*float64(e.churn.LiveCount())), false); err != nil {
				return err
			}
			if err := waitFor(e.name+" churn settles", 30*time.Second, e.churn.Settled); err != nil {
				return err
			}
		}
		if err := w.syncMirrors("healthy mirrors track churn", dark); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}

		w.net.Heal(syncLink(dark.name))
		w.net.Heal(forwardLink(dark.name))
		if err := w.waitHealth(dark, transport.HealthUp); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if err := w.syncMirrors("post-heal mirror sync", nil); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if err := w.waitAccounted(fmt.Sprintf("cycle %d accounting", cycle)); err != nil {
			return err
		}
		if err := w.converge(fmt.Sprintf("cycle %d aggregate", cycle)); err != nil {
			return err
		}
		fmt.Printf("cycle %d: %s dark and healed in %v — %d accepted, all accounted, aggregate exact\n",
			cycle, dark.name, time.Since(wall).Round(time.Millisecond), w.accepted())
	}
	if restarts := w.restartsSeen(); restarts != 0 {
		return fmt.Errorf("partition/heal cycles triggered %d full resyncs — catch-up must be delta replay", restarts)
	}

	// Kill/restart: edge0 is power-failed — chaos.Net.Kill crashes its
	// durability store (unflushed state is discarded, nothing further
	// reaches disk) and severs both of its links in the same stroke — and a
	// replacement process boots at the same address from the same
	// persistence dir. Recovery replays the WAL, restores the fleet, the
	// generation counters and the boot epoch, and reclaims every sensor
	// without moving a counter, so the hub must treat the reborn node as
	// the same incarnation: no full mirror rebuild, catch-up traffic
	// bounded by the generation gap rather than the fleet size.
	victim := w.edges[0]
	wall := time.Now()
	if err := w.waitAccounted("pre-restart drain"); err != nil {
		return err
	}
	// The hub's sync rounds barrier the victim's WAL before answering, so
	// one last round makes everything the hub has mirrored durable at the
	// victim too — the crash then loses nothing the hub will miss.
	if err := w.syncMirrors("pre-restart mirror sync", nil); err != nil {
		return err
	}
	sentBefore, recvBefore := w.hub.PeerBytes(victim.name)
	w.retired += victim.node.Stats().Drops()
	acceptedBefore := victim.accepted
	liveBefore := victim.churn.LiveCount()
	victimAddr := victim.node.Addr()
	w.net.Kill(victim.rt.Persistence(), syncLink(victim.name), forwardLink(victim.name))
	victim.node.Close()
	victim.rt.Stop()
	w.net.Heal(syncLink(victim.name))
	w.net.Heal(forwardLink(victim.name))
	reborn, err := w.newEdge(victim.name, victimAddr, sensors, w.seed)
	if err != nil {
		return fmt.Errorf("restart %s: %w", victim.name, err)
	}
	reborn.accepted = acceptedBefore
	w.edges[0] = reborn
	defer func() {
		reborn.node.Close()
		reborn.rt.Stop()
	}()
	if got := reborn.churn.LiveCount(); got != liveBefore {
		return fmt.Errorf("recovery rebound %d sensors, want the %d live at the crash", got, liveBefore)
	}
	if err := waitFor(reborn.name+" recovered fleet settles", 30*time.Second, reborn.churn.Settled); err != nil {
		return err
	}
	if err := w.waitHealth(reborn, transport.HealthUp); err != nil {
		return err
	}
	if err := w.syncMirrors("post-restart catch-up", nil); err != nil {
		return err
	}
	// The durable rejoin must be invisible to restart detection…
	if restarts := w.restartsSeen(); restarts != 0 {
		return fmt.Errorf("durable restart tripped %d full resync(s) — the reborn node must rejoin with its restored boot epoch", restarts)
	}
	// …and cheap: the generation gap is zero here (every registration
	// reclaimed identically), so catch-up is a few handshake rounds —
	// nowhere near the byte cost of rebuilding the mirror set from scratch.
	sentAfter, recvAfter := w.hub.PeerBytes(reborn.name)
	catchup := (sentAfter - sentBefore) + (recvAfter - recvBefore)
	if catchup*4 > fullSyncBytes {
		return fmt.Errorf("post-restart catch-up cost %d sync bytes, more than ¼ of the %d-byte full mirror build — rejoin must be gap-proportional", catchup, fullSyncBytes)
	}
	w.stormAll()
	if err := w.waitAccounted("post-restart accounting"); err != nil {
		return err
	}
	if err := w.converge("post-restart aggregate"); err != nil {
		return err
	}
	fmt.Printf("restart: %s power-failed and recovered at %s in %v — 0 full resyncs, %d sensors reclaimed, catch-up %d bytes vs %d-byte full build\n",
		victim.name, reborn.node.Addr(), time.Since(wall).Round(time.Millisecond), liveBefore, catchup, fullSyncBytes)

	var retries, reconnects, budgetDrops, dups uint64
	for _, e := range w.edges {
		st := e.node.Stats()
		retries += st.ForwardRetries
		reconnects += st.PeerReconnects
		budgetDrops += st.ForwardBudgetDrops
	}
	hubStats := w.hub.Stats()
	reconnects += hubStats.PeerReconnects
	dups = hubStats.EventDupsSuppressed
	cs := w.net.Stats()
	fmt.Printf("chaos: %d conns severed, %d dials refused, %d writes delayed, %d dropped mid-flight\n",
		cs.ConnsSevered, cs.DialsRefused, cs.WritesDelayed, cs.WritesDropped)
	fmt.Printf("recovery: %d reconnects, %d spooled replays, %d replay dups suppressed, %d spool-bound drops\n",
		reconnects, retries, dups, budgetDrops)
	fmt.Printf("cross-check OK: %d accepted = %d delivered + %d dropped; aggregate matches ground truth in %d zones\n",
		w.accepted(), w.agg.delivered.Load(), w.sunk()-w.agg.delivered.Load(), len(w.groundTruth()))
	return nil
}

// newEdge builds one device-owner node backed by a WAL+snapshot store under
// the world's persistence root, keyed by node name — so rebuilding an edge
// under the same name is a durable restart that recovers the dead
// incarnation's fleet. A non-empty addr pins the listen address (the restart
// case: the reborn node must be reachable where the dead one was); binding
// retries briefly since the dead listener's port can linger.
func (w *world) newEdge(name, addr string, sensors int, seed int64) (*edge, error) {
	model, err := dsl.Load(edgeDesign)
	if err != nil {
		return nil, err
	}
	e := &edge{name: name}
	e.rt = runtime.New(model, runtime.WithClock(w.vc),
		runtime.WithPersistence(filepath.Join(w.persistRoot, name), persist.Options{}))
	if err := e.rt.Start(); err != nil {
		return nil, err
	}
	cfg := federation.Config{
		Name: name, Runtime: e.rt, ListenAddr: addr,
		Exports: []federation.Export{{Kind: "PresenceSensor", Source: "presence"}},
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		e.node, err = federation.New(cfg)
		if err == nil {
			break
		}
		if addr == "" || time.Now().After(deadline) {
			e.rt.Stop()
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
	lots := make([]string, 4)
	for z := range lots {
		lots[z] = name + "-z" + fmt.Sprint(z)
	}
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: lots, GroupAttr: "zone", Seed: seed,
	}, w.vc)
	e.churn, err = devsim.NewChurnSwarm(swarm, devsim.ChurnHooks{
		Bind:   func(s *devsim.SwarmSensor) error { return e.rt.BindDevice(s) },
		Unbind: e.rt.UnbindDevice,
	})
	if err != nil {
		e.node.Close()
		e.rt.Stop()
		return nil, err
	}
	if err := e.node.AddPeer(peerTimings(federation.PeerConfig{
		Name: "hub", Addr: w.hub.Addr(),
		Dialer:        w.net.Dialer(forwardLink(name)),
		ForwardEvents: true,
		ForwardBudget: 1024,
		Seed:          seed,
	})); err != nil {
		e.node.Close()
		e.rt.Stop()
		return nil, err
	}
	// A first boot binds the whole population. A reborn node instead
	// re-binds exactly the registrations its durable state recovered: the
	// Bind hook goes through registry reclaim, which recognizes identical
	// content and refreshes the binding without moving any generation
	// counter — the peer-visible no-op that keeps the hub's cursors valid.
	if rec := e.rt.Persistence().Recovered(); rec != nil && len(rec.Entities) > 0 {
		restored := make(map[string]bool, len(rec.Entities))
		for _, re := range rec.Entities {
			restored[string(re.Entity.ID)] = true
		}
		err = e.churn.RebindMatching(func(s *devsim.SwarmSensor) bool { return restored[s.ID()] })
	} else {
		err = e.churn.BindAll()
	}
	if err != nil {
		e.node.Close()
		e.rt.Stop()
		return nil, err
	}
	return e, nil
}

func (w *world) stormAll() {
	for _, e := range w.edges {
		e.accepted += uint64(e.churn.StormLive(e.churn.LiveCount()))
	}
}

func (w *world) accepted() uint64 {
	var total uint64
	for _, e := range w.edges {
		total += e.accepted
	}
	return total
}

// sunk sums everything an accepted reading is allowed to become: one
// delivery at the hub or exactly one drop counter along the path (including
// the counters of killed node incarnations).
func (w *world) sunk() uint64 {
	total := w.agg.delivered.Load() + w.retired
	for _, e := range w.edges {
		total += e.node.Stats().Drops()
	}
	return total + w.hubRT.Stats().Drops()
}

func (w *world) waitAccounted(what string) error {
	return waitFor(what, 60*time.Second, func() bool { return w.sunk() == w.accepted() })
}

func (w *world) groundTruth() map[string]int {
	want := make(map[string]int)
	for _, e := range w.edges {
		for zone, vacant := range e.churn.Swarm().VacantPerLot() {
			if vacant > 0 {
				want[zone] += vacant
			}
		}
	}
	return want
}

func (w *world) aggMatches() bool {
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

// converge re-publishes every live sensor in chunks below the forward
// budget with a full accounting drain between chunks — a drop-free sweep of
// idempotent per-device upserts — until the incremental aggregate equals
// the batch recompute exactly.
func (w *world) converge(what string) error {
	deadline := time.Now().Add(120 * time.Second)
	for !w.aggMatches() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: stuck at %v, want %v", what, w.agg.snapshot(), w.groundTruth())
		}
		for _, e := range w.edges {
			for remaining := e.churn.LiveCount(); remaining > 0; remaining -= 512 {
				n := remaining
				if n > 512 {
					n = 512
				}
				e.accepted += uint64(e.churn.StormLive(n))
				if err := w.waitAccounted(what + " (chunk drain)"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// syncMirrors drives SyncPeers until every edge's mirror population matches
// its live fleet; a non-nil dark edge is excluded (its sync is expected to
// fail while partitioned).
func (w *world) syncMirrors(what string, dark *edge) error {
	return waitFor(what, 60*time.Second, func() bool {
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
}

func (w *world) waitHealth(e *edge, want transport.Health) error {
	return waitFor(e.name+" health "+want.String(), 30*time.Second, func() bool {
		fwd, ok1 := e.node.PeerHealth("hub")
		syn, ok2 := w.hub.PeerHealth(e.name)
		return ok1 && ok2 && fwd == want && syn == want
	})
}

func (w *world) restartsSeen() uint64 {
	return w.hub.Stats().PeerRestartsSeen
}

func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("timed out waiting for %s", what)
}
