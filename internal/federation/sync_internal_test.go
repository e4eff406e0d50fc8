package federation

import (
	"testing"
	"time"

	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// steadySyncAllocs is what one steady-state SyncPeers call allocates across
// both nodes, whatever the mirrored fleet: one sync RPC with no delta to
// apply, counted on go1.24. It is exact, so one allocation added per sync
// fails the test; a toolchain whose gob or net path allocates differently
// moves it.
const steadySyncAllocs = 29

// TestSteadySyncAllocsIndependentOfFleet pins the generation-keyed sync: once
// a hub mirrors an edge's fleet and nothing changed, a sync tick rescans no
// kind and allocates steadySyncAllocs, at 1k and at 8k mirrored sensors.
func TestSteadySyncAllocsIndependentOfFleet(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts are not meaningful under -race")
	}
	for _, sensors := range []int{1000, 8000} {
		hub := syncedHub(t, sensors)
		scans := hub.Stats().KindsScanned
		n := testing.AllocsPerRun(100, func() {
			if err := hub.SyncPeers(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d sensors: %.0f allocs per steady-state sync", sensors, n)
		if got := hub.Stats().KindsScanned; got != scans {
			t.Errorf("%d sensors: steady-state sync rescanned: %d -> %d", sensors, scans, got)
		}
		if n > steadySyncAllocs {
			t.Errorf("%d sensors: %.0f allocs per steady-state sync, want <= %d", sensors, n, steadySyncAllocs)
		}
	}
}

// syncedHub starts an edge node owning a swarm of presence sensors and a
// hub importing them, and returns the hub after its first, full sync.
func syncedHub(t *testing.T, sensors int) *Node {
	t.Helper()
	model, err := dsl.Load(`device PresenceSensor { attribute zone as String; source presence as Boolean; }`)
	if err != nil {
		t.Fatal(err)
	}
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC))
	node := func(name string, exports ...Export) (*runtime.Runtime, *Node) {
		rt := runtime.New(model, runtime.WithClock(vc))
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Stop)
		n, err := New(Config{Name: name, Runtime: rt, Exports: exports})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return rt, n
	}
	_, hub := node("hub")
	edgeRT, edge := node("edge", Export{Kind: "PresenceSensor", Source: "presence"})
	if err := hub.AddPeer(PeerConfig{Name: "edge", Addr: edge.Addr(), Import: []string{"PresenceSensor"}}); err != nil {
		t.Fatal(err)
	}
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: sensors, Lots: []string{"edge"}, GroupAttr: "zone", Seed: 7,
	}, vc)
	for _, s := range swarm.Sensors() {
		if err := edgeRT.BindDevice(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.SyncPeers(); err != nil {
		t.Fatal(err)
	}
	if got := hub.MirrorCount("edge", "PresenceSensor"); got != sensors {
		t.Fatalf("mirrored %d sensors, want %d", got, sensors)
	}
	return hub
}
