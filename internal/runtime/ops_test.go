package runtime

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/simclock"
)

// White-box tests of the operations plane (ops.go): fleet_stats assembly,
// the drain-under-load exactness property, live budget retuning, and the
// Prometheus endpoint end to end. All run under -race in CI.

// statRows pairs each statCounters row with the Stats field it loads into.
var statRows = map[int]string{
	statContextTriggers: "ContextTriggers", statContextPublishes: "ContextPublishes",
	statControllerTriggers: "ControllerTriggers", statPeriodicPolls: "PeriodicPolls",
	statPollSnapshotRebuilds: "PollSnapshotRebuilds", statIngestEvents: "IngestEvents",
	statIngestBatches: "IngestBatches", statIngestBudgetDrops: "IngestBudgetDrops",
	statIngestDeadlineDrops: "IngestDeadlineDrops", statIngestDrainDrops: "IngestDrainDrops",
	statTrackerReconciles: "TrackerReconciles", statFederationEventsIn: "FederationEventsIn",
	statFederationEventBatchesIn: "FederationEventBatchesIn", statFederationEventDrops: "FederationEventDrops",
	statFederationCommandChunks: "FederationCommandChunks", statFederationAggPartialsIn: "FederationAggPartialsIn",
	statGroupsDirty: "GroupsDirty", statGroupsTotal: "GroupsTotal", statAggReuse: "AggReuse",
	statAggPendingDrops: "AggPendingDrops", statActuations: "Actuations", statErrors: "Errors",
}

// TestStatTable pins the counter table: every row loads into the Stats
// field statRows names, and the drop ledger is exactly the counters named
// *drop*. metrics.NewTable rejects a wire name used twice; metrics.TestTable
// covers the export and the ledger sum.
func TestStatTable(t *testing.T) {
	var c statCounters
	for row := range c {
		c[row].Store(uint64(row) + 1)
	}
	s := c.snapshot()
	if len(statRows) != numStats {
		t.Fatalf("statRows covers %d of %d rows", len(statRows), numStats)
	}
	for row, field := range statRows {
		if reflect.ValueOf(s).FieldByName(field).Uint() != uint64(row)+1 {
			t.Errorf("row %d does not load into %s", row, field)
		}
	}
	drops := statTable.DropNames()
	for name := range s.Counters() {
		if isDrop := slices.Contains(drops, name); isDrop != strings.Contains(name, "drop") {
			t.Errorf("%s: in the drop ledger = %v", name, isDrop)
		}
	}
}

// TestStatsSnapshotAllocations pins a snapshot and its ledger sum at zero
// allocations: the benchmarks poll Stats() inside their timed loops.
func TestStatsSnapshotAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts are not meaningful under -race")
	}
	var rt Runtime
	var s Stats
	if n := testing.AllocsPerRun(100, func() { s = rt.Stats() }); n != 0 {
		t.Errorf("Stats() allocates %.0f, want 0", n)
	}
	var drops uint64
	if n := testing.AllocsPerRun(100, func() { drops += s.Drops() }); n != 0 {
		t.Errorf("Drops() allocates %.0f, want 0", n)
	}
}

// TestHostFleetStats checks the one-call snapshot carries every section:
// host substrate counters, per-app counters sorted by ID, gauge sources,
// registered peer records, per-kind registry population, and budgets.
func TestHostFleetStats(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	ha, hb := &recHandler{}, &recHandler{}
	deployTenant(t, h, "b", AppConfig{Contexts: map[string]ContextHandler{"Occ_b": hb}})
	deployTenant(t, h, "a", AppConfig{Contexts: map[string]ContextHandler{"Occ_a": ha}})
	h.AddGauges("federation", func() map[string]uint64 { return map[string]uint64{"sync_rounds": 4} })

	da := bindTenantSensor(t, h, "a", "a-000", vc)
	rtA, _ := h.App("a")
	waitAttached(t, rtA, 1)
	const n = 25
	for i := 0; i < n; i++ {
		da.Emit("presence", true)
	}
	waitUntil(t, "delivery", func() bool { return ha.n.Load() == n })

	fs := h.FleetStats()
	if fs.Host.App != "host" || fs.Host.Counters["bus_published"] == 0 {
		t.Fatalf("host record missing traffic: %+v", fs.Host)
	}
	if len(fs.Apps) != 2 || fs.Apps[0].App != "a" || fs.Apps[1].App != "b" {
		t.Fatalf("apps not sorted by ID: %+v", fs.Apps)
	}
	if fs.Apps[0].Counters["ingest_events"] != n {
		t.Fatalf("app a ingest_events = %d, want %d", fs.Apps[0].Counters["ingest_events"], n)
	}
	if len(fs.Gauges) != 1 || fs.Gauges[0].Counters["sync_rounds"] != 4 {
		t.Fatalf("gauge source lost: %+v", fs.Gauges)
	}
	foundKind := false
	for _, kc := range fs.Registry {
		if kc.Kind == "Sensor_a" && kc.Count == 1 && kc.Mirrors == 0 {
			foundKind = true
		}
	}
	if !foundKind {
		t.Fatalf("registry summary missing Sensor_a: %+v", fs.Registry)
	}
	if len(fs.Budgets) != 2 || fs.Budgets[0].App != "a" || fs.Budgets[1].App != "b" {
		t.Fatalf("budgets not per-app sorted: %+v", fs.Budgets)
	}
	if fs.Budgets[0].Admitted != n {
		t.Fatalf("app a budget admitted = %d, want %d", fs.Budgets[0].Admitted, n)
	}
	if fs.Draining {
		t.Fatal("fresh host reports draining")
	}
}

// TestDrainUnderLoad is the drain exactness property, over both
// constructors: with emitters racing the drain, (1) the report is clean,
// (2) every admitted reading is delivered — none lost in a pipeline, (3)
// post-drain arrivals are refused and counted as drain drops, never
// admitted, so emitted == delivered + refused exactly. Drain, Draining and
// FleetStats are reached through an app handle, which delegates to the
// owning host either way.
func TestDrainUnderLoad(t *testing.T) {
	for _, ctor := range worldCtors {
		t.Run(ctor.name, func(t *testing.T) { testDrainUnderLoad(t, ctor) })
	}
}

func testDrainUnderLoad(t *testing.T, ctor worldCtor) {
	vc := simclock.NewVirtual(hostEpoch)
	ids := []string{"a", "b"}
	if ctor.oneApp {
		ids = ids[:1]
	}
	handlers := map[string]*recHandler{}
	var specs []appSpec
	for _, id := range ids {
		handlers[id] = &recHandler{}
		specs = append(specs, appSpec{id, mustLoadDesign(t, tenantDesign(id)),
			AppConfig{Contexts: map[string]ContextHandler{"Occ_" + id: handlers[id]}}})
	}
	rts, stop := ctor.open(t, SubstrateConfig{Clock: vc}, specs...)
	defer stop()
	apps := map[string]*Runtime{}
	sensors := map[string][]*device.Base{}
	for i, id := range ids {
		apps[id] = rts[i]
		for j := 0; j < 3; j++ {
			d := device.NewBase(fmt.Sprintf("%s-%03d", id, j), "Sensor_"+id, nil, registry.Attributes{"lot": "L"}, vc.Now)
			if err := rts[i].BindDevice(d); err != nil {
				t.Fatal(err)
			}
			sensors[id] = append(sensors[id], d)
		}
		waitAttached(t, rts[i], 3)
	}
	front := rts[0] // any app handle reaches the one host

	// Emitters pump until told to stop, counting exactly what they pushed.
	var emitted atomic.Uint64
	stopEmit := make(chan struct{})
	var wg sync.WaitGroup
	for _, devs := range sensors {
		for _, d := range devs {
			wg.Add(1)
			go func(d *device.Base) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stopEmit:
						return
					default:
					}
					d.Emit("presence", i%2 == 0)
					emitted.Add(1)
				}
			}(d)
		}
	}

	// Let real traffic build, then drain while the emitters race on.
	waitUntil(t, "pre-drain traffic", func() bool {
		for _, hd := range handlers {
			if hd.n.Load() <= 100 {
				return false
			}
		}
		return true
	})
	rep, err := front.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.Apps != len(ids) {
		t.Fatalf("drain not clean over %d apps: %+v", len(ids), rep)
	}
	if !front.host.Draining() {
		t.Fatal("host not reporting draining state")
	}
	close(stopEmit)
	wg.Wait()

	// No admissions after the drain: further pushes only move the drain-drop
	// counter.
	ingestedAt := map[string]uint64{}
	for id, rt := range apps {
		ingestedAt[id] = rt.Stats().IngestEvents
	}
	for _, devs := range sensors {
		for _, d := range devs {
			d.Emit("presence", true)
			emitted.Add(1)
		}
	}
	for id, rt := range apps {
		st := rt.Stats()
		if st.IngestEvents != ingestedAt[id] {
			t.Fatalf("app %s admitted events after drain: %d -> %d", id, ingestedAt[id], st.IngestEvents)
		}
		if st.IngestDrainDrops == 0 {
			t.Fatalf("app %s counted no drain drops despite post-drain pushes", id)
		}
	}

	// Exactness: every emitted reading is either delivered or in exactly one
	// drop counter — backpressure (budget) before the drain, drain refusals
	// after. The two never double-count one reading.
	var delivered, drops uint64
	for id, hd := range handlers {
		st := apps[id].Stats()
		if hd.n.Load() != st.IngestEvents {
			t.Fatalf("app %s delivered %d of %d admitted — drain lost admitted readings",
				id, hd.n.Load(), st.IngestEvents)
		}
		delivered += hd.n.Load()
		drops += st.Drops()
	}
	if delivered+drops != emitted.Load() {
		t.Fatalf("accounting broken: delivered %d + refused %d != emitted %d",
			delivered, drops, emitted.Load())
	}

	// Deploy is refused while draining; a second drain is idempotent.
	if _, err := front.host.DeploySource("late", tenantDesign("late"), AppConfig{AutoImplement: true}); !errors.Is(err, ErrDraining) {
		t.Fatalf("deploy during drain: got %v, want ErrDraining", err)
	}
	rep2, err := front.Drain()
	if err != nil || !rep2.Clean {
		t.Fatalf("second drain: %+v, %v", rep2, err)
	}
	fs := front.FleetStats()
	if !fs.Draining {
		t.Fatal("fleet_stats does not report draining")
	}
	if len(fs.Apps) != len(rts) {
		t.Fatalf("fleet_stats apps: %+v", fs.Apps)
	}
	for i, rt := range rts { // ids are sorted, as the records are
		if rec := fs.Apps[i]; rec.App != appScope(rt.appID) || rec.Counters["ingest_events"] != rt.Stats().IngestEvents {
			t.Fatalf("fleet_stats record %+v does not describe app %q", rec, rt.appID)
		}
	}
}

// slowCount is aggCountHandler behind a gate, then slowed: every delivery
// takes a moment, so a burst released right before a drain is still working
// through the bus queue while the drain decides when to snapshot.
type slowCount struct {
	aggCountHandler
	gate chan struct{}
}

func (h *slowCount) OnTrigger(call *ContextCall) (any, bool, error) {
	<-h.gate
	for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
		// Busy, not asleep: a sleep rounds up to ~1 ms a call.
	}
	return h.aggCountHandler.OnTrigger(call)
}

// TestDrainSnapshotCoversQueuedDeliveries is the regression test for the
// single-tenant drain: its budgets release as soon as readings reach the
// bus, and it used to snapshot right then — before the queued deliveries had
// folded into the grouped aggregate — so a restart from the drained image
// lost every reading a slow handler had not yet seen. Drain must wait for
// the bus to go idle first: drain → crash → reopen restores an aggregate
// equal to every accepted reading, whichever constructor built the world.
func TestDrainSnapshotCoversQueuedDeliveries(t *testing.T) {
	for _, ctor := range worldCtors {
		t.Run(ctor.name, func(t *testing.T) {
			vc := simclock.NewVirtual(hostEpoch)
			dir := t.TempDir()
			sub := SubstrateConfig{Clock: vc, PersistDir: dir, PersistOpts: persist.Options{FlushInterval: time.Hour}}
			model := mustLoadDesign(t, aggTenantDesign("solo"))
			open := func(h ContextHandler) (*Runtime, func()) {
				rts, stop := ctor.open(t, sub, appSpec{"solo", model, AppConfig{
					Contexts: map[string]ContextHandler{"Count_solo": h},
				}})
				return rts[0], stop
			}
			bind := func(rt *Runtime, id string) *device.Base {
				d := device.NewBase(id, "Sensor_solo", nil, registry.Attributes{"zone": "Z"}, vc.Now)
				if err := rt.BindDevice(d); err != nil {
					t.Fatal(err)
				}
				return d
			}

			slow := &slowCount{gate: make(chan struct{})}
			openGate := sync.OnceFunc(func() { close(slow.gate) })
			defer openGate() // a failed check must not leave the handler parked
			rt, stop := open(slow)
			const n = 200
			devs := make([]*device.Base, n)
			for i := range devs {
				devs[i] = bind(rt, fmt.Sprintf("s-%03d", i))
			}
			waitAttached(t, rt, n)
			for _, d := range devs {
				d.Emit("presence", true)
			}
			waitUntil(t, "every reading handed to the bus", func() bool {
				return rt.Stats().IngestEvents == n && rt.ingestQuiesced()
			})
			openGate()
			rep, err := rt.Drain()
			if err != nil || !rep.Clean || !rep.Snapshotted {
				t.Fatalf("drain: %+v, %v", rep, err)
			}
			rt.Persistence().Crash() // the drained image is all that survives
			stop()

			count := &aggCountHandler{}
			rt2, stop2 := open(count)
			defer stop2()
			d := bind(rt2, "s-new")
			waitAttached(t, rt2, 1)
			d.Emit("presence", true)
			waitUntil(t, "restored aggregate to surface", func() bool { return count.zone("Z") > 0 })
			if got := count.zone("Z"); got != n+1 {
				t.Fatalf("aggregate restored from the drained image counts %d sensors, want all %d accepted readings + 1", got, n)
			}
		})
	}
}

// TestHostSetAppBudget checks live retuning: a saturated tiny budget starts
// rejecting, a live capacity raise admits again without a restart, and the
// new capacity shows up in fleet_stats.
func TestHostSetAppBudget(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // a failed check must not leave the handler parked
	hd := &recHandler{gate: gate}
	deployTenant(t, h, "a", AppConfig{
		Contexts: map[string]ContextHandler{"Occ_a": hd},
		Ingest:   IngestConfig{Shards: 1, Budget: 2, MaxBatch: 2},
	})
	d := bindTenantSensor(t, h, "a", "a-000", vc)
	rt, _ := h.App("a")
	waitAttached(t, rt, 1)

	const n = 50
	for i := 0; i < n; i++ {
		d.Emit("presence", true)
	}
	waitUntil(t, "saturation", func() bool { return rt.Stats().IngestBudgetDrops > 0 })

	if err := h.SetAppBudget("a", 100000); err != nil {
		t.Fatal(err)
	}
	fs := h.FleetStats()
	if fs.Budgets[0].Capacity != 100000 {
		t.Fatalf("fleet_stats capacity = %d after retune, want 100000", fs.Budgets[0].Capacity)
	}
	droppedBefore := rt.Stats().IngestBudgetDrops
	for i := 0; i < n; i++ {
		d.Emit("presence", true)
	}
	openGate()
	waitUntil(t, "post-retune delivery", func() bool {
		st := rt.Stats()
		return hd.n.Load() == st.IngestEvents && st.IngestEvents+st.IngestBudgetDrops == 2*n
	})
	if rt.Stats().IngestBudgetDrops != droppedBefore {
		t.Fatalf("budget dropped again after raising capacity: %d -> %d",
			droppedBefore, rt.Stats().IngestBudgetDrops)
	}

	if err := h.SetAppBudget("ghost", 10); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("set budget on unknown app: got %v, want ErrUnknownApp", err)
	}
}

// TestHostMetricsEndpoint boots a host with the Prometheus listener and
// scrapes it end to end: content type, app series, budget series, and the
// draining gauge flipping after a drain.
func TestHostMetricsEndpoint(t *testing.T) {
	vc := simclock.NewVirtual(hostEpoch)
	h, err := NewHost(SubstrateConfig{Clock: vc, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.MetricsAddr() == "" {
		t.Fatal("metrics listener not started")
	}

	hd := &recHandler{}
	deployTenant(t, h, "a", AppConfig{Contexts: map[string]ContextHandler{"Occ_a": hd}})
	d := bindTenantSensor(t, h, "a", "a-000", vc)
	rt, _ := h.App("a")
	waitAttached(t, rt, 1)
	const n = 10
	for i := 0; i < n; i++ {
		d.Emit("presence", true)
	}
	waitUntil(t, "delivery", func() bool { return hd.n.Load() == n })

	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + h.MetricsAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("content type = %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	body := scrape()
	for _, want := range []string{
		fmt.Sprintf(`diaspec_app_ingest_events{app="a"} %d`, n),
		`diaspec_budget_admitted{app="a"} ` + fmt.Sprint(n),
		`diaspec_registry_entities{kind="Sensor_a"} 1`,
		"diaspec_draining 0",
		"diaspec_host_bus_published",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q in:\n%s", want, body)
		}
	}
	if _, err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if body := scrape(); !strings.Contains(body, "diaspec_draining 1") {
		t.Fatal("draining gauge did not flip after drain")
	}
}
