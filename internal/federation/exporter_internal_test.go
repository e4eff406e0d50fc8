package federation

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// zoneCount is a minimal combinable handler for an aggregating export.
type zoneCount struct{}

func (zoneCount) Map(zone string, _ any, emit func(string, any))       { emit(zone, 1) }
func (zoneCount) Reduce(zone string, vs []any, emit func(string, any)) { emit(zone, len(vs)) }
func (zoneCount) Combine(_ string, a, b any) any                       { return a.(int) + b.(int) }

// TestExporterReconcileRehomes: when the Updated change that moved a
// device to another group never reached the exporter (as when its watcher
// dropped notifications), the reconcile that follows the loss re-homes the
// device in the aggregating sink.
func TestExporterReconcileRehomes(t *testing.T) {
	model, err := dsl.Load(`device PresenceSensor { attribute zone as String; source presence as Boolean; }`)
	if err != nil {
		t.Fatal(err)
	}
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC))
	rt := runtime.New(model, runtime.WithClock(vc))
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	n, err := New(Config{Name: "edge", Runtime: rt, Exports: []Export{{
		Kind: "PresenceSensor", Source: "presence",
		Aggregate: &Aggregate{GroupAttr: "zone", Handler: zoneCount{}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	sink := n.sinks[exportKey("PresenceSensor", "presence")].(*aggSink)
	groupOf := func(id string) string {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return sink.groupOf[id]
	}

	if err := rt.BindDevice(device.NewBase("s1", "PresenceSensor", nil, registry.Attributes{"zone": "za"}, vc.Now)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); groupOf("s1") != "za"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the exporter never attached s1")
		}
	}

	// Hold the exporter's loop behind the registry so the Updated change
	// is not applied before the reconcile runs.
	t.Cleanup(n.SetExporterLag(time.Second))
	if err := rt.Registry().Update("s1", registry.Attributes{"zone": "zb"}, ""); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	e := n.exporters[0]
	n.mu.Unlock()
	e.reconcile()
	if got := groupOf("s1"); got != "zb" {
		t.Fatalf("after reconcile s1 is in group %q, want zb", got)
	}
	if got := n.Stats().ExporterReconciles; got != 1 {
		t.Fatalf("ExporterReconciles = %d, want 1", got)
	}
}
