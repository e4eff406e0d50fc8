package runtime

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/dsl/check"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/simclock"
)

// White-box tests of the multi-tenant host: typed deploy errors, per-tenant
// isolation (topics, budgets, stats), hot deploy/undeploy under live
// traffic, per-app federation routing, per-app persisted aggregate
// checkpoints, and the WithPollWorkers(0) regression. All run under -race
// in CI.

var hostEpoch = time.Date(2017, 6, 5, 10, 0, 0, 0, time.UTC)

func mustLoadDesign(t *testing.T, src string) *check.Model {
	t.Helper()
	m, err := dsl.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tenantDesign is one tenant's app: a device kind and an event-driven
// context, both namespaced by the app ID so cross-app delivery is
// detectable (a reading of Sensor_a arriving at app b's handler would be a
// routing bug, not a shared-fleet feature).
func tenantDesign(id string) string {
	return fmt.Sprintf(`
device Sensor_%[1]s { attribute lot as String; source presence as Boolean; }
context Occ_%[1]s as Boolean {
	when provided presence from Sensor_%[1]s
	no publish;
}
`, id)
}

// recHandler records which devices delivered to it; gate, when non-nil,
// blocks every delivery until closed (the saturated-tenant fixture).
type recHandler struct {
	gate chan struct{}
	n    atomic.Uint64
	mu   sync.Mutex
	ids  map[string]int
}

func (h *recHandler) OnTrigger(call *ContextCall) (any, bool, error) {
	if h.gate != nil {
		<-h.gate
	}
	if call.Reading != nil {
		h.mu.Lock()
		if h.ids == nil {
			h.ids = make(map[string]int)
		}
		h.ids[call.Reading.DeviceID]++
		h.mu.Unlock()
	}
	h.n.Add(1)
	return nil, false, nil
}

func (h *recHandler) deviceIDs() map[string]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := make(map[string]int, len(h.ids))
	for k, v := range h.ids {
		cp[k] = v
	}
	return cp
}

// waitAttached blocks until the app's source trackers have attached to n
// devices: a push emitted before the (asynchronous) attach has no
// subscriber and is silently dropped, which is device semantics, not an
// accounting bug — so exactness tests must emit only after attachment.
func waitAttached(t *testing.T, rt *Runtime, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d tracker attachments", n), func() bool {
		rt.mu.Lock()
		trackers := append([]*sourceTracker(nil), rt.trackers...)
		rt.mu.Unlock()
		total := 0
		for _, tr := range trackers {
			total += tr.trackedCount()
		}
		return total == n
	})
}

func deployTenant(t *testing.T, h *Host, id string, cfg AppConfig) *Runtime {
	t.Helper()
	rt, err := h.DeploySource(id, tenantDesign(id), cfg)
	if err != nil {
		t.Fatalf("deploy %s: %v", id, err)
	}
	return rt
}

func bindTenantSensor(t *testing.T, h *Host, app, devID string, vc *simclock.Virtual) *device.Base {
	t.Helper()
	d := device.NewBase(devID, "Sensor_"+app, nil, registry.Attributes{"lot": "L"}, vc.Now)
	if err := h.BindDevice(d); err != nil {
		t.Fatal(err)
	}
	return d
}

// appSpec is one app of a test world: the ID it deploys under (and that
// tenantDesign-style fixtures namespace their declarations with), its
// checked design and its configuration.
type appSpec struct {
	id    string
	model *check.Model
	cfg   AppConfig
}

// worldCtor is one of the package's two ways to stand a substrate up and
// start apps on it. runtime.New is a one-app host, so tests of substrate
// behaviour (drain, lease reaping, persistence, fleet_stats) take the
// constructor as input and run one body over both: nothing they assert may
// depend on which spelling built the world.
type worldCtor struct {
	name   string
	oneApp bool // New hosts exactly one app
	// open starts one Runtime per spec over a substrate configured by sub;
	// stop tears the whole world down (apps, then substrate).
	open func(t *testing.T, sub SubstrateConfig, apps ...appSpec) (rts []*Runtime, stop func())
}

var worldCtors = []worldCtor{
	{name: "New", oneApp: true, open: func(t *testing.T, sub SubstrateConfig, apps ...appSpec) ([]*Runtime, func()) {
		t.Helper()
		if len(apps) != 1 {
			t.Fatalf("runtime.New hosts one app, got %d", len(apps))
		}
		app := apps[0]
		rt := New(app.model, func(c *newConfig) { c.sub, c.app = sub, app.cfg })
		for name, h := range app.cfg.Contexts {
			if err := rt.ImplementContext(name, h); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Start(); err != nil {
			rt.Stop()
			t.Fatal(err)
		}
		return []*Runtime{rt}, rt.Stop
	}},
	{name: "NewHost+Deploy", open: func(t *testing.T, sub SubstrateConfig, apps ...appSpec) ([]*Runtime, func()) {
		t.Helper()
		h, err := NewHost(sub)
		if err != nil {
			t.Fatal(err)
		}
		var rts []*Runtime
		for _, app := range apps {
			rt, err := h.Deploy(app.id, app.model, app.cfg)
			if err != nil {
				h.Close()
				t.Fatal(err)
			}
			rts = append(rts, rt)
		}
		return rts, h.Close
	}},
}

// TestNewIsOneAppHost pins what runtime.New promises on top of being a
// host: the private substrate's lifecycle follows the Runtime's, and
// everything observable from outside — fleet_stats scope, bus topics,
// on-disk keys — is what the standalone single-tenant runtime produced.
func TestNewIsOneAppHost(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	model := mustLoadDesign(t, aggTenantDesign("solo"))

	t.Run("stop-before-start-seals-store", func(t *testing.T) {
		dir := t.TempDir()
		rt := New(model, WithClock(vc), WithPersistence(dir, persist.Options{FlushInterval: time.Hour}))
		d := device.NewBase("s-000", "Sensor_solo", nil, registry.Attributes{"zone": "Z"}, vc.Now)
		if err := rt.BindDevice(d); err != nil {
			t.Fatal(err)
		}
		rt.Stop() // never started: the store must still seal with a snapshot
		if err := rt.Persistence().Barrier(); !errors.Is(err, persist.ErrClosed) {
			t.Fatalf("store after Stop: Barrier = %v, want ErrClosed", err)
		}
		rt2 := New(model, WithClock(vc), WithPersistence(dir, persist.Options{}))
		defer rt2.Stop()
		if _, ok := rt2.Registry().Get("s-000"); !ok {
			t.Fatal("binding made before an unstarted runtime's Stop was not sealed to disk")
		}
	})

	t.Run("stop-closes-owned-registry-only", func(t *testing.T) {
		owned := New(model, WithClock(vc))
		owned.Stop()
		if err := owned.Registry().Register(registry.Entity{ID: "x", Kind: "Sensor_solo"}); !errors.Is(err, registry.ErrClosed) {
			t.Fatalf("owned registry after Stop: Register = %v, want ErrClosed", err)
		}
	})

	t.Run("default-scope-and-bare-topics", func(t *testing.T) {
		rt := New(model, WithClock(vc))
		defer rt.Stop()
		if err := rt.ImplementContext("Count_solo", &aggCountHandler{}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		fs := rt.FleetStats()
		if len(fs.Apps) != 1 || fs.Apps[0].App != "default" {
			t.Fatalf("fleet_stats apps = %+v, want exactly the default scope", fs.Apps)
		}
		if len(fs.Budgets) != 1 || fs.Budgets[0].App != "default" {
			t.Fatalf("fleet_stats budgets = %+v, want exactly the default scope", fs.Budgets)
		}
		if got := rt.sourceTopic("Count_solo", 0); got != "source/Count_solo/0" {
			t.Fatalf("source topic = %q, want no app/ prefix", got)
		}
		if got := rt.pubSites["Count_solo"].topic; got != "context/Count_solo" {
			t.Fatalf("context topic = %q, want no app/ prefix", got)
		}
		if n := rt.bus.Subscribers("source/Count_solo/0"); n != 1 {
			t.Fatalf("%d subscribers on the bare source topic, want 1", n)
		}
	})

	// A directory written by the last commit whose single-tenant runtime
	// owned its own store (see testdata/wal_pr13/README.md): snapshot plus
	// WAL tail, crash image.
	t.Run("recovers-parent-wal", func(t *testing.T) {
		dir := t.TempDir()
		for _, name := range []string{"snap-00000001.00000002.snap", "wal-00000002.log"} {
			img, err := os.ReadFile(filepath.Join("testdata/wal_pr13", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), img, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fixture := mustLoadDesign(t, `
device Sensor { attribute zone as String; source presence as Boolean; }
context Count as Integer {
	when provided presence from Sensor
	grouped by zone
	with map as Boolean reduce as Integer
	no publish;
}`)
		count := &aggCountHandler{}
		rt := New(fixture, WithClock(vc), WithPersistence(dir, persist.Options{}))
		defer rt.Stop()
		if err := rt.ImplementContext("Count", count); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		want := map[registry.ID]string{"s-0": "A", "s-1": "A", "s-2": "A", "s-3": "B", "s-4": "B", "s-tail": "B"}
		if got := rt.Registry().Count(); got != len(want) {
			t.Fatalf("recovered %d entities, want %d", got, len(want))
		}
		for id, zone := range want {
			e, ok := rt.Registry().Get(id)
			if !ok || e.Kind != "Sensor" || e.Attrs["zone"] != zone {
				t.Fatalf("entity %s recovered as %+v (present %v), want a Sensor in zone %s", id, e, ok, zone)
			}
		}
		if gen, all := rt.Registry().Generation("Sensor"), rt.Registry().Generation(""); gen != 8 || all != 8 {
			t.Fatalf("recovered generations Sensor=%d all=%d, want 8 and 8", gen, all)
		}
		if blob := rt.host.aggRestore["Count#0"]; len(blob) == 0 {
			t.Fatalf("no checkpoint under the un-namespaced key; recovered keys: %d", len(rt.host.aggRestore))
		}
		// The checkpoint holds one contribution per snapshotted sensor; one
		// new reading re-derives the aggregate from it: counts continue.
		d := device.NewBase("s-new", "Sensor", nil, registry.Attributes{"zone": "A"}, vc.Now)
		if err := rt.BindDevice(d); err != nil {
			t.Fatal(err)
		}
		waitAttached(t, rt, 1)
		d.Emit("presence", true)
		waitUntil(t, "aggregate restored from the parent's checkpoint", func() bool {
			return count.zone("A") == 4 && count.zone("B") == 2
		})
	})
}

// TestSubstrateFailureParity: a substrate that cannot come up fails both
// constructors with the same error — NewHost directly, New from Start.
func TestSubstrateFailureParity(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "store") // under a regular file: cannot be created
	h, hostErr := NewHost(SubstrateConfig{PersistDir: dir})
	if hostErr == nil {
		h.Close()
		t.Fatal("NewHost opened persistence under a regular file")
	}
	rt := New(mustLoadDesign(t, tenantDesign("solo")), WithPersistence(dir, persist.Options{}))
	defer rt.Stop()
	if err := rt.ImplementContext("Occ_solo", &recHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err == nil || err.Error() != hostErr.Error() {
		t.Fatalf("Start = %v, want NewHost's %q", err, hostErr)
	}
}

func TestHostDeployTypedErrors(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	deployTenant(t, h, "a", AppConfig{AutoImplement: true})
	if _, err := h.DeploySource("a", tenantDesign("a"), AppConfig{AutoImplement: true}); !errors.Is(err, ErrAppExists) {
		t.Fatalf("duplicate deploy: got %v, want ErrAppExists", err)
	}
	if _, err := h.DeploySource("bad", "device {", AppConfig{}); !errors.Is(err, ErrCheckFailed) {
		t.Fatalf("bad source: got %v, want ErrCheckFailed", err)
	}
	if _, err := h.DeploySource("", tenantDesign("x"), AppConfig{}); !errors.Is(err, ErrCheckFailed) {
		t.Fatalf("empty app ID: got %v, want ErrCheckFailed", err)
	}
	if _, err := h.DeploySource("a/b", tenantDesign("x"), AppConfig{}); !errors.Is(err, ErrCheckFailed) {
		t.Fatalf("slashed app ID: got %v, want ErrCheckFailed", err)
	}
	// A declared context with no implementation and no AutoImplement is a
	// binding failure, and must not leak the reserved slot.
	if _, err := h.DeploySource("c", tenantDesign("c"), AppConfig{}); !errors.Is(err, ErrCheckFailed) {
		t.Fatalf("missing impl: got %v, want ErrCheckFailed", err)
	}
	deployTenant(t, h, "c", AppConfig{AutoImplement: true})

	if err := h.Undeploy("nope"); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("undeploy unknown: got %v, want ErrUnknownApp", err)
	}
	if err := h.Undeploy("a"); err != nil {
		t.Fatal(err)
	}
	deployTenant(t, h, "a", AppConfig{AutoImplement: true}) // ID reusable after drain

	if got := h.Apps(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("Apps() = %v, want [a c]", got)
	}

	h.Close()
	if _, err := h.DeploySource("late", tenantDesign("late"), AppConfig{AutoImplement: true}); !errors.Is(err, ErrDraining) {
		t.Fatalf("deploy after close: got %v, want ErrDraining", err)
	}
}

// TestHostHotDeployIsolation is the hot-deploy property test: while two
// established tenants take live traffic, an ephemeral app is deployed and
// undeployed repeatedly. No event may arrive at the wrong app, the
// established tenants' accounting must stay exact (zero drops), and the
// churning tenant itself must account exactly for what its live windows
// delivered.
func TestHostHotDeployIsolation(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	ha, hb := &recHandler{}, &recHandler{}
	deployTenant(t, h, "a", AppConfig{Contexts: map[string]ContextHandler{"Occ_a": ha}})
	deployTenant(t, h, "b", AppConfig{Contexts: map[string]ContextHandler{"Occ_b": hb}})

	const perApp = 4
	var devsA, devsB []*device.Base
	for i := 0; i < perApp; i++ {
		devsA = append(devsA, bindTenantSensor(t, h, "a", fmt.Sprintf("a-%03d", i), vc))
		devsB = append(devsB, bindTenantSensor(t, h, "b", fmt.Sprintf("b-%03d", i), vc))
	}
	rtA, _ := h.App("a")
	rtB, _ := h.App("b")
	waitAttached(t, rtA, perApp)
	waitAttached(t, rtB, perApp)

	// Storm with an ephemeral tenant hot-deployed and undeployed mid-storm:
	// downstream delivery is asynchronous (shard goroutines, bus queues), so
	// the Deploy/Undeploy calls always race in-flight events of the
	// established tenants.
	const rounds = 200
	for r := 0; r < rounds; r++ {
		switch r % 40 {
		case 20:
			if _, err := h.DeploySource("eph", tenantDesign("eph"), AppConfig{AutoImplement: true}); err != nil {
				t.Fatal(err)
			}
		case 30:
			if err := h.Undeploy("eph"); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range devsA {
			d.Emit("presence", r%2 == 0)
		}
		for _, d := range devsB {
			d.Emit("presence", r%2 == 1)
		}
	}

	const want = rounds * perApp
	waitUntil(t, "tenant a delivery", func() bool { return ha.n.Load() == want })
	waitUntil(t, "tenant b delivery", func() bool { return hb.n.Load() == want })

	for id := range ha.deviceIDs() {
		if id[0] != 'a' {
			t.Fatalf("tenant a received foreign device %s", id)
		}
	}
	for id := range hb.deviceIDs() {
		if id[0] != 'b' {
			t.Fatalf("tenant b received foreign device %s", id)
		}
	}
	for _, appID := range []string{"a", "b"} {
		rt, _ := h.App(appID)
		st := rt.Stats()
		if st.Drops() != 0 {
			t.Fatalf("tenant %s dropped events during hot churn: %+v", appID, st)
		}
		if st.IngestEvents != want {
			t.Fatalf("tenant %s IngestEvents = %d, want %d", appID, st.IngestEvents, want)
		}
	}
}

// TestHostBudgetIsolation saturates one tenant's ingest budget while a calm
// tenant takes the same traffic volume: the noisy tenant must drop (its
// budget, its problem), the calm tenant must deliver everything exactly.
func TestHostBudgetIsolation(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // a failed check must not leave the handler parked
	noisy := &recHandler{gate: gate}
	calm := &recHandler{}
	deployTenant(t, h, "noisy", AppConfig{
		Contexts: map[string]ContextHandler{"Occ_noisy": noisy},
		Ingest:   IngestConfig{Shards: 1, Budget: 4, MaxBatch: 4},
	})
	deployTenant(t, h, "calm", AppConfig{Contexts: map[string]ContextHandler{"Occ_calm": calm}})

	dn := bindTenantSensor(t, h, "noisy", "n-000", vc)
	dc := bindTenantSensor(t, h, "calm", "c-000", vc)
	rtN, _ := h.App("noisy")
	rtC, _ := h.App("calm")
	waitAttached(t, rtN, 1)
	waitAttached(t, rtC, 1)

	const n = 400
	for i := 0; i < n; i++ {
		dn.Emit("presence", true)
		dc.Emit("presence", true)
	}

	waitUntil(t, "calm delivery", func() bool { return calm.n.Load() == n })
	rtCalm, _ := h.App("calm")
	if st := rtCalm.Stats(); st.IngestBudgetDrops != 0 || st.IngestEvents != n {
		t.Fatalf("calm tenant starved by noisy neighbor: %+v", st)
	}

	openGate()
	rtNoisy, _ := h.App("noisy")
	waitUntil(t, "noisy accounting", func() bool {
		st := rtNoisy.Stats()
		return noisy.n.Load()+st.IngestBudgetDrops == n
	})
	if st := rtNoisy.Stats(); st.IngestBudgetDrops == 0 {
		t.Fatal("noisy tenant never hit its budget — fixture too weak")
	}
}

// TestHostRemoteIngestRouting checks per-app federation routing: a
// forwarded batch lands only in consuming apps, and a batch nobody
// consumes charges the host's unrouted gauge, not any tenant.
func TestHostRemoteIngestRouting(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	ha, hb := &recHandler{}, &recHandler{}
	rtA := deployTenant(t, h, "a", AppConfig{Contexts: map[string]ContextHandler{"Occ_a": ha}})
	rtB := deployTenant(t, h, "b", AppConfig{Contexts: map[string]ContextHandler{"Occ_b": hb}})

	readings := []device.Reading{{DeviceID: "remote-1", Source: "presence", Value: true, Time: vc.Now()}}
	if got := h.RemoteIngest("Sensor_a", "presence", 1, readings); got != 1 {
		t.Fatalf("RemoteIngest admitted %d, want 1", got)
	}
	waitUntil(t, "routed remote delivery", func() bool { return ha.n.Load() == 1 })
	if st := rtB.Stats(); st.FederationEventsIn != 0 || st.FederationEventDrops != 0 {
		t.Fatalf("non-consuming tenant b charged for a's traffic: %+v", st)
	}
	if st := rtA.Stats(); st.FederationEventsIn != 1 {
		t.Fatalf("tenant a FederationEventsIn = %d, want 1", st.FederationEventsIn)
	}

	if got := h.RemoteIngest("Sensor_zzz", "presence", 1, readings); got != 0 {
		t.Fatalf("unrouted RemoteIngest admitted %d, want 0", got)
	}
	st := h.Stats()
	if st.UnroutedFederationDrops != 1 {
		t.Fatalf("UnroutedFederationDrops = %d, want 1", st.UnroutedFederationDrops)
	}
	if a := st.Apps["a"]; a.FederationEventDrops != 0 {
		t.Fatalf("unrouted batch charged to tenant a: %+v", a)
	}
}

func TestHostStatsAndAdmin(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	ha := &recHandler{}
	rtA := deployTenant(t, h, "a", AppConfig{Contexts: map[string]ContextHandler{"Occ_a": ha}})
	d := bindTenantSensor(t, h, "a", "a-000", vc)
	waitAttached(t, rtA, 1)
	d.Emit("presence", true)
	waitUntil(t, "delivery", func() bool { return ha.n.Load() == 1 })

	h.AddGauges("federation", func() map[string]uint64 { return map[string]uint64{"sync_rounds": 7} })
	st := h.Stats()
	if st.Apps["a"].IngestEvents != 1 {
		t.Fatalf("per-app stats missing: %+v", st.Apps["a"])
	}
	if st.Gauges["federation"]["sync_rounds"] != 7 {
		t.Fatalf("gauge source not sampled: %+v", st.Gauges)
	}
	if st.Bus.Delivered == 0 {
		t.Fatalf("bus stats missing: %+v", st.Bus)
	}

	adm := h.Admin()
	apps := adm.ListApps()
	if len(apps) != 1 || apps[0].ID != "a" || len(apps[0].Contexts) != 1 {
		t.Fatalf("ListApps = %+v", apps)
	}
	recs := adm.AppStats()
	var sawApp, sawHost, sawGauge bool
	for _, rec := range recs {
		switch rec.App {
		case "a":
			sawApp = rec.Counters["ingest_events"] == 1
		case "host":
			sawHost = true
		case "federation":
			sawGauge = rec.Counters["sync_rounds"] == 7
		}
	}
	if !sawApp || !sawHost || !sawGauge {
		t.Fatalf("AppStats records incomplete: %+v", recs)
	}
	if err := adm.DeployApp("wire", tenantDesign("wire")); err != nil {
		t.Fatal(err)
	}
	if err := adm.RemoveApp("wire"); err != nil {
		t.Fatal(err)
	}
}

// aggCountHandler is a combinable per-zone counter for the persistence
// round-trip test.
type aggCountHandler struct {
	mu   sync.Mutex
	last map[string]int
}

func (h *aggCountHandler) Map(zone string, v any, emit func(string, any)) { emit(zone, 1) }
func (h *aggCountHandler) Reduce(zone string, vs []any, emit func(string, any)) {
	emit(zone, len(vs))
}
func (h *aggCountHandler) Combine(_ string, a, b any) any   { return a.(int) + b.(int) }
func (h *aggCountHandler) Uncombine(_ string, a, v any) any { return a.(int) - v.(int) }
func (h *aggCountHandler) OnTrigger(call *ContextCall) (any, bool, error) {
	snap := make(map[string]int, len(call.GroupedReduced))
	for k, v := range call.GroupedReduced {
		snap[k] = v.(int)
	}
	h.mu.Lock()
	h.last = snap
	h.mu.Unlock()
	return snap, true, nil
}

func (h *aggCountHandler) zone(z string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last[z]
}

func aggTenantDesign(id string) string {
	return fmt.Sprintf(`
device Sensor_%[1]s { attribute zone as String; source presence as Boolean; }
context Count_%[1]s as Integer {
	when provided presence from Sensor_%[1]s
	grouped by zone
	with map as Boolean reduce as Integer
	no publish;
}
`, id)
}

// TestHostPersistPerAppAggCheckpoints round-trips two tenants' grouped
// aggregates through the shared store: identical context shapes in two
// apps must checkpoint under distinct appID-namespaced keys and restore
// into the right tenant after a host restart.
func TestHostPersistPerAppAggCheckpoints(t *testing.T) {
	dir, err := os.MkdirTemp("", "hostpersist")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	vc := simclock.NewVirtual(hostEpoch)

	open := func() (*Host, *aggCountHandler, *aggCountHandler) {
		h, err := NewHost(SubstrateConfig{Clock: vc, PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ca, cb := &aggCountHandler{}, &aggCountHandler{}
		if _, err := h.DeploySource("a", aggTenantDesign("a"), AppConfig{
			Contexts: map[string]ContextHandler{"Count_a": ca},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.DeploySource("b", aggTenantDesign("b"), AppConfig{
			Contexts: map[string]ContextHandler{"Count_b": cb},
		}); err != nil {
			t.Fatal(err)
		}
		return h, ca, cb
	}

	// The grouped aggregate counts devices per zone (one contribution per
	// device's latest reading), so tenant cardinality = bound device count.
	const devsA, devsB = 5, 9
	h, ca, cb := open()
	rtA, _ := h.App("a")
	rtB, _ := h.App("b")
	for i := 0; i < devsA; i++ {
		d := bindTenantSensor2(t, h, "a", fmt.Sprintf("a-%03d", i), vc)
		waitAttached(t, rtA, i+1)
		d.Emit("presence", true)
	}
	for i := 0; i < devsB; i++ {
		d := bindTenantSensor2(t, h, "b", fmt.Sprintf("b-%03d", i), vc)
		waitAttached(t, rtB, i+1)
		d.Emit("presence", true)
	}
	waitUntil(t, "tenant a aggregate", func() bool { return ca.zone("Z") == devsA })
	waitUntil(t, "tenant b aggregate", func() bool { return cb.zone("Z") == devsB })
	h.Close()

	// Reborn host: recovery hands each tenant its own checkpoint back.
	h2, ca2, cb2 := open()
	defer h2.Close()
	if len(h2.aggRestore) < 2 {
		t.Fatalf("recovered %d agg checkpoints, want >= 2", len(h2.aggRestore))
	}
	// One more event per tenant re-derives the aggregate from restored
	// state: the counts continue, not restart.
	da2 := bindTenantSensor2(t, h2, "a", "a-100", vc)
	db2 := bindTenantSensor2(t, h2, "b", "b-100", vc)
	// The recovered registrations have no live driver after the restart, so
	// only the new devices attach — but their checkpointed contributions
	// survive, because their entities are still registered.
	rtA2, _ := h2.App("a")
	rtB2, _ := h2.App("b")
	waitAttached(t, rtA2, 1)
	waitAttached(t, rtB2, 1)
	da2.Emit("presence", true)
	db2.Emit("presence", true)
	waitUntil(t, "tenant a restored aggregate", func() bool { return ca2.zone("Z") == devsA+1 })
	waitUntil(t, "tenant b restored aggregate", func() bool { return cb2.zone("Z") == devsB+1 })
}

// TestHostRecoveredAggCheckpointSurvivesUntilRedeploy: a host restarted
// without redeploying an app still writes that app's recovered aggregate
// checkpoint into its snapshots, so a later incarnation that redeploys the
// app resumes the aggregate; Undeploy drops the checkpoint for good.
func TestHostRecoveredAggCheckpointSurvivesUntilRedeploy(t *testing.T) {
	dir, err := os.MkdirTemp("", "hostpersist")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	vc := simclock.NewVirtual(hostEpoch)
	open := func() *Host {
		h, err := NewHost(SubstrateConfig{Clock: vc, PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	deploy := func(h *Host) (*Runtime, *aggCountHandler) {
		c := &aggCountHandler{}
		rt, err := h.DeploySource("a", aggTenantDesign("a"), AppConfig{
			Contexts: map[string]ContextHandler{"Count_a": c},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt, c
	}

	const devs = 4
	h := open()
	rt, c := deploy(h)
	for i := 0; i < devs; i++ {
		d := bindTenantSensor2(t, h, "a", fmt.Sprintf("a-%03d", i), vc)
		waitAttached(t, rt, i+1)
		d.Emit("presence", true)
	}
	waitUntil(t, "aggregate", func() bool { return c.zone("Z") == devs })
	h.Close()

	// An incarnation that never redeploys the app snapshots on Close.
	open().Close()

	h = open()
	rt, c = deploy(h)
	d := bindTenantSensor2(t, h, "a", "a-100", vc)
	waitAttached(t, rt, 1)
	d.Emit("presence", true)
	waitUntil(t, "aggregate after redeploy", func() bool { return c.zone("Z") != 0 })
	if got := c.zone("Z"); got != devs+1 {
		t.Fatalf("redeployed aggregate counts %d devices, want %d: the checkpoint was lost", got, devs+1)
	}
	if err := h.Undeploy("a"); err != nil {
		t.Fatal(err)
	}
	h.Close()

	h = open()
	defer h.Close()
	for key := range h.aggRestore {
		if strings.HasPrefix(key, "a\x00") {
			t.Fatalf("undeployed app's checkpoint %q was recovered", key)
		}
	}
}

// bindTenantSensor2 is bindTenantSensor with the zone attribute of the
// grouped design.
func bindTenantSensor2(t *testing.T, h *Host, app, devID string, vc *simclock.Virtual) *device.Base {
	t.Helper()
	d := device.NewBase(devID, "Sensor_"+app, nil, registry.Attributes{"zone": "Z"}, vc.Now)
	if err := h.BindDevice(d); err != nil {
		t.Fatal(err)
	}
	return d
}

const pollDesign = `
device PS { attribute zone as String; source val as Integer; }
context Sampled as Integer {
	when periodic val from PS <1 min>
	always publish;
}
`

type sampleHandler struct{}

func (sampleHandler) OnTrigger(call *ContextCall) (any, bool, error) {
	return len(call.Readings), true, nil
}

// TestWithPollWorkersZeroDefaults is the regression test for
// WithPollWorkers(0): zero and negative values must fall back to the
// default pool instead of configuring a zero-worker pool whose first
// non-empty round can never complete.
func TestWithPollWorkersZeroDefaults(t *testing.T) {
	for _, n := range []int{0, -4} {
		vc := simclock.NewVirtual(hostEpoch)
		rt := New(mustLoadDesign(t, pollDesign), WithClock(vc), WithPollWorkers(n))
		if rt.pollWorkers != defaultPollWorkers {
			t.Fatalf("WithPollWorkers(%d): pollWorkers = %d, want default %d", n, rt.pollWorkers, defaultPollWorkers)
		}
		if err := rt.ImplementContext("Sampled", sampleHandler{}); err != nil {
			t.Fatal(err)
		}
		d := device.NewBase("ps-1", "PS", nil, registry.Attributes{"zone": "Z"}, vc.Now)
		d.OnQuery("val", func() (any, error) { return 42, nil })
		if err := rt.BindDevice(d); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		// Before the fix this round hangs: hands = min(targets, 0) means
		// no worker ever finishes the round.
		vc.Advance(time.Minute)
		waitUntil(t, "poll round with defaulted worker pool", func() bool {
			return rt.Stats().PeriodicPolls >= 1
		})
		rt.Stop()
	}
	// Explicit positive values still win.
	rt := New(mustLoadDesign(t, pollDesign), WithPollWorkers(3))
	if rt.pollWorkers != 3 {
		t.Fatalf("WithPollWorkers(3): pollWorkers = %d", rt.pollWorkers)
	}
	rt.Stop()
}
