package runtime

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/transport"
)

// This file is the operations plane of the runtime: the host-side
// implementations of the `fleet_stats`, `drain` and `set_budget` admin wire
// ops. The design splits cleanly:
// transport defines the wire records, this file fills them from live
// runtime state, internal/metrics renders them for Prometheus, and
// `diaspecc top`/`diaspecc host` drive them over TCP.

// drainPollInterval is how often a drain re-checks pipeline quiescence.
// Ops-plane waits run on real time even under a simulated runtime clock:
// the drain is an operator action, not a workload event.
const drainPollInterval = 2 * time.Millisecond

// defaultDrainTimeout bounds how long Drain waits for the ingestion
// pipelines to flush before reporting an unclean drain.
const defaultDrainTimeout = 30 * time.Second

// beginDrain closes admission on every ingestion pipeline of this app and
// reports how many readings were buffered (admitted but not yet handed to
// the delivery substrate) at that moment. Buffered readings keep flushing;
// new arrivals count into Stats.IngestDrainDrops.
func (rt *Runtime) beginDrain() int {
	rt.mu.Lock()
	ings := append([]*ingestor(nil), rt.ingestors...)
	rt.mu.Unlock()
	inflight := 0
	for _, ing := range ings {
		ing.draining.Store(true)
		inflight += ing.budget.InFlight()
	}
	return inflight
}

// ingestQuiesced reports whether every ingestion pipeline of this app has
// flushed: no admitted reading remains between a device and the delivery
// substrate. Only meaningful after beginDrain (admission still open means
// the count can rise again).
func (rt *Runtime) ingestQuiesced() bool {
	rt.mu.Lock()
	ings := append([]*ingestor(nil), rt.ingestors...)
	rt.mu.Unlock()
	for _, ing := range ings {
		if ing.budget.InFlight() > 0 {
			return false
		}
	}
	return true
}

// setIngestBudget retunes the in-flight admission budget of every ingestion
// pipeline of this app — the live half of the `set_budget` admin op.
// Capacity <= 0 means unbounded. Pipelines created later (none after Start)
// would still read the original IngestConfig.
func (rt *Runtime) setIngestBudget(capacity int) {
	rt.mu.Lock()
	ings := append([]*ingestor(nil), rt.ingestors...)
	rt.mu.Unlock()
	for _, ing := range ings {
		ing.budget.SetCapacity(capacity)
	}
}

// budgetRecord sums this app's ingestion budgets into one wire record.
func (rt *Runtime) budgetRecord(scope string) transport.BudgetRecord {
	rt.mu.Lock()
	ings := append([]*ingestor(nil), rt.ingestors...)
	rt.mu.Unlock()
	rec := transport.BudgetRecord{App: scope}
	for _, ing := range ings {
		rec.Capacity += ing.budget.Capacity()
		rec.InFlight += ing.budget.InFlight()
		rec.Admitted += ing.budget.Admitted()
		rec.Rejected += ing.budget.Rejected()
	}
	return rec
}

// drainDrops reads the app's cumulative drain-refusal count.
func (rt *Runtime) drainDrops() uint64 { return rt.stats[statIngestDrainDrops].Load() }

// registrySummary folds one registry scan into sorted per-kind population
// counts, mirrors broken out.
func registrySummary(reg *registry.Registry) []transport.KindCount {
	byKind := make(map[string]*transport.KindCount)
	reg.Scan(registry.Query{}, func(e registry.Entity) bool {
		kc := byKind[e.Kind]
		if kc == nil {
			kc = &transport.KindCount{Kind: e.Kind}
			byKind[e.Kind] = kc
		}
		kc.Count++
		if e.Origin != "" {
			kc.Mirrors++
		}
		return true
	})
	kinds := make([]transport.KindCount, 0, len(byKind))
	for _, kc := range byKind {
		kinds = append(kinds, *kc)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].Kind < kinds[j].Kind })
	return kinds
}

// hostCounters flattens the substrate-level half of a HostStats snapshot
// into the wire counter map — the scope "host" record of both the
// host_stats and fleet_stats answers.
func hostCounters(st HostStats) map[string]uint64 {
	return map[string]uint64{
		"unrouted_federation_drops": st.UnroutedFederationDrops,
		"errors":                    st.Errors,
		"bus_published":             st.Bus.Published,
		"bus_delivered":             st.Bus.Delivered,
	}
}

// sortedScopeRecords renders a name → counters map as records sorted by
// scope name.
func sortedScopeRecords(m map[string]map[string]uint64) []transport.AppStatsRecord {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	recs := make([]transport.AppStatsRecord, 0, len(names))
	for _, name := range names {
		recs = append(recs, transport.AppStatsRecord{App: name, Counters: m[name]})
	}
	return recs
}

// appScope names an app in operations-plane records: its ID, or "default"
// for the one app of a runtime.New host (whose ID is empty).
func appScope(appID string) string {
	if appID == "" {
		return "default"
	}
	return appID
}

// FleetStats assembles the host's whole operations surface into one
// snapshot: substrate gauges, per-app counters, gauge sources, peer health
// (when a peer source is registered), per-kind registry population, and
// per-app budget occupancy. Counters are atomics, so the snapshot is
// consistent-enough without stopping any hot path; see
// docs/ARCHITECTURE.md "Operations plane" for the exact consistency model.
func (h *Host) FleetStats() transport.FleetStats {
	st := h.Stats()
	appRecs := make(map[string]map[string]uint64, len(st.Apps))
	for id, s := range st.Apps {
		appRecs[appScope(id)] = s.Counters()
	}
	fs := transport.FleetStats{
		Host:     transport.AppStatsRecord{App: "host", Counters: hostCounters(st)},
		Apps:     sortedScopeRecords(appRecs),
		Gauges:   sortedScopeRecords(st.Gauges),
		Registry: registrySummary(h.reg),
		Draining: h.draining.Load(),
	}
	h.mu.Lock()
	peerFn := h.peerSource
	apps := make(map[string]*Runtime, len(h.apps))
	for id, rt := range h.apps {
		if rt != nil {
			apps[id] = rt
		}
	}
	h.mu.Unlock()
	ids := make([]string, 0, len(apps))
	for id := range apps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fs.Budgets = append(fs.Budgets, apps[id].budgetRecord(appScope(id)))
	}
	if peerFn != nil {
		fs.Peers = peerFn()
	}
	return fs
}

// AddPeerSource registers the callback that supplies per-peer link health
// for FleetStats — the federation tier's hook, mirroring AddGauges:
//
//	host.AddPeerSource(node.PeerStatuses)
func (h *Host) AddPeerSource(fn func() []transport.PeerStatusRecord) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.peerSource = fn
}

// Drain quiesces the host for a restart: admission closes on every app's
// ingestion pipelines (subsequent arrivals count as ingest_drain_drops, so
// delivered+dropped==ground-truth accounting survives the drain), buffered
// readings flush through to the delivery substrate, and — when persistence
// is attached — a final snapshot captures the drained state. The report
// says whether the flush completed (Clean) and the process is safe to kill.
//
// Drain is idempotent: a second call re-verifies quiescence and snapshots
// again. It does not stop pollers or tear down apps — a drained host still
// answers admin ops (including host_stats and fleet_stats) and serves
// queries; only event admission is closed. Deploy is refused while
// draining.
func (h *Host) Drain() (transport.DrainReport, error) {
	start := time.Now()
	h.draining.Store(true)
	apps := h.snapshotApps()
	var refusedBefore uint64
	for _, rt := range apps {
		refusedBefore += rt.drainDrops()
	}
	rep := transport.DrainReport{Apps: len(apps)}
	for _, rt := range apps {
		rep.InFlightAtStart += rt.beginDrain()
	}
	deadline := start.Add(h.drainTimeout)
	for {
		quiet := true
		for _, rt := range apps {
			if !rt.ingestQuiesced() {
				quiet = false
				break
			}
		}
		if quiet {
			rep.Clean = true
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(drainPollInterval)
	}
	// The budgets released, so every admitted reading has been handed to
	// the bus; let the queued deliveries (and what their handlers publish)
	// finish before snapshotting, so the snapshot's aggregate checkpoints
	// cover them.
	for rep.Clean && !h.bus.Idle() && time.Now().Before(deadline) {
		time.Sleep(drainPollInterval)
	}
	if h.store != nil {
		if err := h.store.Snapshot(); err != nil {
			if err != persist.ErrClosed && err != persist.ErrCrashed {
				rep.DurationMillis = time.Since(start).Milliseconds()
				return rep, fmt.Errorf("host: drain snapshot: %w", err)
			}
		} else {
			rep.Snapshotted = true
		}
	}
	var refusedAfter uint64
	for _, rt := range apps {
		refusedAfter += rt.drainDrops()
	}
	rep.RefusedDuringDrain = refusedAfter - refusedBefore
	rep.DurationMillis = time.Since(start).Milliseconds()
	return rep, nil
}

// Draining reports whether a drain has been requested on this host.
func (h *Host) Draining() bool { return h.draining.Load() }

// SetAppBudget retunes one deployed app's live ingestion admission budget —
// the host side of the `set_budget` admin op. Capacity <= 0 means
// unbounded; shrinking below current occupancy refuses new admissions until
// enough in-flight readings drain.
func (h *Host) SetAppBudget(appID string, capacity int) error {
	rt, ok := h.App(appID)
	if !ok {
		return fmt.Errorf("host: set budget %s: %w", appID, ErrUnknownApp)
	}
	rt.setIngestBudget(capacity)
	return nil
}

// FleetStats implements the fleet_stats admin op.
func (a hostAdmin) FleetStats() transport.FleetStats { return a.h.FleetStats() }

// Drain implements the drain admin op.
func (a hostAdmin) Drain() (transport.DrainReport, error) { return a.h.Drain() }

// SetBudget implements the set_budget admin op.
func (a hostAdmin) SetBudget(appID string, capacity int) error {
	return a.h.SetAppBudget(appID, capacity)
}
