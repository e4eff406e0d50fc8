package runtime_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// fedDesign is the minimal cross-node interaction set: an event-driven
// context over a sensor kind plus a panel fan-out controller.
const fedDesign = `
device PresenceSensor {
	attribute zone as String;
	source presence as Boolean;
}

device ZonePanel {
	attribute zone as String;
	action update(status as String);
}

context Occupancy as Boolean {
	when provided presence from PresenceSensor
	always publish;
}

controller PanelFanout {
	when provided Occupancy
	do update on ZonePanel;
}
`

type fedCounterCtx struct{ n atomic.Uint64 }

func (c *fedCounterCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	c.n.Add(1)
	return call.Reading.Value, true, nil
}

// fanoutCtrl actuates the discovered panels through InvokeBatch when armed.
type fanoutCtrl struct {
	armed   atomic.Bool
	ok      atomic.Int64
	errs    atomic.Int64
	batches atomic.Int64
}

func (f *fanoutCtrl) OnContext(call *runtime.ControllerCall) error {
	if !f.armed.Load() {
		return nil
	}
	panels, err := call.Devices("ZonePanel")
	if err != nil {
		return err
	}
	ok, errs := call.InvokeBatch(panels, "update", "busy")
	f.ok.Add(int64(ok))
	f.errs.Add(int64(len(errs)))
	f.batches.Add(1)
	return nil
}

func newFedWorld(t *testing.T) (*runtime.Runtime, *fedCounterCtx, *fanoutCtrl) {
	t.Helper()
	model, err := dsl.Load(fedDesign)
	if err != nil {
		t.Fatal(err)
	}
	rt := runtime.New(model, runtime.WithClock(simclock.NewVirtual(epoch)))
	ctx := &fedCounterCtx{}
	ctrl := &fanoutCtrl{}
	if err := rt.ImplementContext("Occupancy", ctx); err != nil {
		t.Fatal(err)
	}
	if err := rt.ImplementController("PanelFanout", ctrl); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt, ctx, ctrl
}

// RemoteIngest must deliver peer-forwarded readings to the consuming
// context exactly once each and count them in the Federation counters.
func TestRemoteIngestDelivers(t *testing.T) {
	rt, ctx, _ := newFedWorld(t)

	const n = 500
	batch := make([]device.Reading, n)
	for i := range batch {
		batch[i] = device.Reading{
			DeviceID: fmt.Sprintf("remote-%03d", i%7),
			Source:   "presence",
			Value:    i%2 == 0,
			Time:     epoch,
		}
	}
	if got := rt.RemoteIngest("PresenceSensor", "presence", 1, batch); got != n {
		t.Fatalf("admitted %d, want %d", got, n)
	}
	waitFor(t, "remote deliveries", func() bool { return ctx.n.Load() == n })

	st := rt.Stats()
	if st.FederationEventsIn != n || st.FederationEventBatchesIn != 1 {
		t.Fatalf("federation counters: %+v", st)
	}
	if st.FederationEventDrops != 0 || st.IngestBudgetDrops != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
}

// Readings for a (kind, source) no interaction consumes must be refused and
// counted, keeping cross-node accounting exact.
func TestRemoteIngestUnknownInteraction(t *testing.T) {
	rt, _, _ := newFedWorld(t)
	n := rt.RemoteIngest("PresenceSensor", "humidity", 1, []device.Reading{{DeviceID: "x"}})
	if n != 0 {
		t.Fatalf("admitted %d readings into a nonexistent pipeline", n)
	}
	if st := rt.Stats(); st.FederationEventDrops != 1 {
		t.Fatalf("drop not counted: %+v", st)
	}
}

// A registered mirror entity (Origin set) must be tracked without a
// per-device subscription: no error, no remote dial, and its removal must
// release the tracker slot.
func TestMirrorTrackedWithoutSubscription(t *testing.T) {
	rt, ctx, _ := newFedWorld(t)

	// The mirror's endpoint is unreachable on purpose: if the tracker
	// tried to dial a per-device subscription the runtime would report a
	// component error.
	rtErrs := func() uint64 { return rt.Stats().Errors }
	before := rtErrs()

	mirror := registry.Entity{
		ID:       "peer-sensor-1",
		Kind:     "PresenceSensor",
		Kinds:    []string{"PresenceSensor"},
		Attrs:    registry.Attributes{"zone": "z1"},
		Endpoint: "127.0.0.1:1", // nothing listens here
		Origin:   "node-b",
	}
	if err := rt.Registry().Register(mirror); err != nil {
		t.Fatal(err)
	}
	// Forwarded events for the mirror must still be delivered via the
	// federation ingest path.
	if got := rt.RemoteIngest("PresenceSensor", "presence", 1, []device.Reading{
		{DeviceID: "peer-sensor-1", Source: "presence", Value: true, Time: epoch},
	}); got != 1 {
		t.Fatalf("admitted %d, want 1", got)
	}
	waitFor(t, "mirror delivery", func() bool { return ctx.n.Load() == 1 })
	if got := rtErrs(); got != before {
		t.Fatalf("mirror tracking reported %d component errors", got-before)
	}
	if err := rt.Registry().Unregister("peer-sensor-1"); err != nil {
		t.Fatal(err)
	}
}

// InvokeBatch must actuate local and remote panels alike, batching the
// remote ones through command_batch chunks.
func TestInvokeBatchLocalAndRemote(t *testing.T) {
	rt, _, ctrl := newFedWorld(t)

	// A local panel bound to the runtime.
	var localCalls atomic.Int64
	local := device.NewBase("panel-local", "ZonePanel", nil, registry.Attributes{"zone": "z0"}, nil)
	local.OnAction("update", func(...any) error { localCalls.Add(1); return nil })
	if err := rt.BindDevice(local); err != nil {
		t.Fatal(err)
	}

	// Remote panels hosted behind a transport server, registered as
	// mirror entities pointing at it.
	srv, err := transport.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const remote = 40
	var remoteCalls atomic.Int64
	var mu sync.Mutex
	seen := map[string]int{}
	for i := 0; i < remote; i++ {
		id := fmt.Sprintf("panel-remote-%02d", i)
		p := device.NewBase(id, "ZonePanel", nil, registry.Attributes{"zone": "z1"}, nil)
		p.OnAction("update", func(...any) error {
			remoteCalls.Add(1)
			mu.Lock()
			seen[id]++
			mu.Unlock()
			return nil
		})
		srv.Host(p)
		err := rt.Registry().Register(registry.Entity{
			ID: registry.ID(id), Kind: "ZonePanel", Kinds: []string{"ZonePanel"},
			Attrs: registry.Attributes{"zone": "z1"}, Endpoint: srv.Addr(), Origin: "node-b",
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Trigger the controller once through the real SCC path.
	ctrl.armed.Store(true)
	if got := rt.RemoteIngest("PresenceSensor", "presence", 1, []device.Reading{
		{DeviceID: "peer-sensor-1", Source: "presence", Value: true, Time: epoch},
	}); got != 1 {
		t.Fatalf("admitted %d, want 1", got)
	}
	waitFor(t, "fanout", func() bool { return ctrl.batches.Load() == 1 })

	if ctrl.errs.Load() != 0 {
		t.Fatalf("%d actuation errors", ctrl.errs.Load())
	}
	if got := ctrl.ok.Load(); got != remote+1 {
		t.Fatalf("actuated %d devices, want %d", got, remote+1)
	}
	if localCalls.Load() != 1 || remoteCalls.Load() != remote {
		t.Fatalf("local=%d remote=%d", localCalls.Load(), remoteCalls.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("panel %s actuated %d times", id, n)
		}
	}
	st := rt.Stats()
	if st.Actuations != remote+1 {
		t.Fatalf("Actuations=%d, want %d", st.Actuations, remote+1)
	}
	if st.FederationCommandChunks != 1 {
		t.Fatalf("FederationCommandChunks=%d, want 1 (40 devices fit one chunk)", st.FederationCommandChunks)
	}
}
