package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/transport"
)

// TestDropsOfMatchesLedger checks that top's DROPS column sums the same
// rows as runtime.Stats.Drops, with every counter holding a distinct value.
func TestDropsOfMatchesLedger(t *testing.T) {
	var s runtime.Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(1 << i)
	}
	if got, want := dropsOf(s.Counters()), s.Drops(); got != want || want == 0 {
		t.Fatalf("dropsOf = %d, Stats.Drops = %d", got, want)
	}
}

func topFixture(events uint64) transport.FleetStats {
	return transport.FleetStats{
		Host: transport.AppStatsRecord{App: "host", Counters: map[string]uint64{"bus_published": events}},
		Apps: []transport.AppStatsRecord{{App: "parking", Counters: map[string]uint64{
			"ingest_events": events, "ingest_budget_drops": 3, "groups_dirty": 1, "groups_total": 4,
			"periodic_polls": 7, "actuations": 2,
		}}},
		Peers:    []transport.PeerStatusRecord{{Name: "east", Health: "degraded", BytesSent: 10, BytesRecv: 20}},
		Registry: []transport.KindCount{{Kind: "PresenceSensor", Count: 8, Mirrors: 3}},
		Budgets:  []transport.BudgetRecord{{App: "parking", Capacity: 64, InFlight: 2, Admitted: events, Rejected: 3}},
	}
}

// TestRenderTopFrame checks the dashboard frame: per-app rate from the
// snapshot delta, drop and dirty-ratio columns, peer and budget sections,
// registry line, and the drain banner.
func TestRenderTopFrame(t *testing.T) {
	prev, cur := topFixture(100), topFixture(350)
	frame := renderTop("127.0.0.1:7707", prev, cur, time.Second)
	for _, want := range []string{
		"127.0.0.1:7707",
		"serving",
		"0 up / 1 degraded / 0 partitioned",
		"parking",
		"250",  // (350-100)/1s events per second
		"25.0", // 1/4 dirty groups
		"east",
		"degraded",
		"PresenceSensor=8(3 mirrored)",
		"bus_published=350",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	cur.Draining = true
	if frame := renderTop("x", prev, cur, time.Second); !strings.Contains(frame, "DRAINING") {
		t.Error("drain state not surfaced")
	}
}

// TestRenderTopFirstFrame renders with dt=0 (no previous poll): rates must
// read zero, not NaN or garbage.
func TestRenderTopFirstFrame(t *testing.T) {
	fs := topFixture(42)
	frame := renderTop("h", fs, fs, 0)
	if strings.Contains(frame, "NaN") || strings.Contains(frame, "Inf") {
		t.Fatalf("degenerate rate in first frame:\n%s", frame)
	}
}

// TestCounterDeltaReset checks a counter going backwards (host restart
// between polls) rates from zero instead of wrapping the unsigned delta.
func TestCounterDeltaReset(t *testing.T) {
	prev := map[string]uint64{"x": 1000}
	cur := map[string]uint64{"x": 10}
	if got := counterDelta(prev, cur, "x", time.Second); got != 10 {
		t.Fatalf("reset delta = %v, want 10", got)
	}
}
