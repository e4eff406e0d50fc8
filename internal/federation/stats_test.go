package federation

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/runtime"
)

// statRows pairs each statCounters row with the Stats field it loads into.
var statRows = map[int]string{
	statSyncRounds: "SyncRounds", statSyncErrors: "SyncErrors", statKindsScanned: "KindsScanned",
	statMirrorsAdded: "MirrorsAdded", statMirrorsUpdated: "MirrorsUpdated", statMirrorsRemoved: "MirrorsRemoved",
	statMirrorsLive: "MirrorsLive", statEventsForwarded: "EventsForwarded", statEventBatchesSent: "EventBatchesSent",
	statForwardBudgetDrops: "ForwardBudgetDrops", statForwardSendDrops: "ForwardSendDrops",
	statForwardUnrouted: "ForwardUnrouted", statExportedHosted: "ExportedHosted",
	statExporterReconciles: "ExporterReconciles", statAggSyncsSent: "AggSyncsSent",
	statAggGroupsSent: "AggGroupsSent", statAggSyncErrors: "AggSyncErrors",
	statAggSyncsUnrouted: "AggSyncsUnrouted", statForwardRetries: "ForwardRetries",
	statPeerRestartsSeen: "PeerRestartsSeen", statEventDupsSuppressed: "EventDupsSuppressed",
}

// TestStatTable pins the counter table: every row loads into the Stats
// field statRows names, and the drop ledger is exactly the counters named *drop* plus forward_unrouted.
// metrics.NewTable rejects a wire name used twice; metrics.TestTable covers
// the export and the ledger sum.
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
		if isDrop := slices.Contains(drops, name); isDrop != (strings.Contains(name, "drop") || name == "forward_unrouted") {
			t.Errorf("%s: in the drop ledger = %v", name, isDrop)
		}
	}
}

// TestStatsSnapshotAllocations pins a snapshot and its ledger sum at zero
// allocations.
func TestStatsSnapshotAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts are not meaningful under -race")
	}
	var c statCounters
	var s Stats
	if n := testing.AllocsPerRun(100, func() { s = c.snapshot() }); n != 0 {
		t.Errorf("snapshot() allocates %.0f, want 0", n)
	}
	var drops uint64
	if n := testing.AllocsPerRun(100, func() { drops += s.Drops() }); n != 0 {
		t.Errorf("Drops() allocates %.0f, want 0", n)
	}
}

// TestHostFleetStatsCarriesFederationRows: a node backed by a runtime.Host
// registers its counters as the host's "federation" gauge source, so
// fleet_stats carries every Stats row, the drop ledger included.
func TestHostFleetStatsCarriesFederationRows(t *testing.T) {
	h, err := runtime.NewHost(runtime.SubstrateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	n, err := New(Config{Name: "hub", Runtime: h})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.stats[statForwardUnrouted].Add(3)
	var got map[string]uint64
	for _, g := range h.FleetStats().Gauges {
		if g.App == "federation" {
			got = g.Counters
		}
	}
	if want := n.Stats().Counters(); !maps.Equal(got, want) {
		t.Fatalf("fleet_stats federation scope = %v, want every Stats row %v", got, want)
	}
	if got["forward_unrouted"] != 3 {
		t.Fatalf("forward_unrouted = %d, want 3", got["forward_unrouted"])
	}
}
