package runtime

import (
	"fmt"
	"hash/maphash"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/dsl/check"
	"repro/internal/registry"
	"repro/internal/simclock"
)

// White-box tests of the event-ingestion pipeline: shard coalescing, qos
// backpressure accounting, the deadline policy, watcher-miss reconciliation
// and tracker slot release under churn. All are run under -race in CI.

const ingestTestDesign = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}

context OccupancyChange as Boolean {
	when provided presence from PresenceSensor
	no publish;
}
`

var ingestEpoch = time.Date(2017, 6, 5, 8, 0, 0, 0, time.UTC)

func loadIngestModel(t *testing.T) *check.Model {
	t.Helper()
	m, err := dsl.Load(ingestTestDesign)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func mkReading(id string, at time.Time) device.Reading {
	return device.Reading{DeviceID: id, Source: "presence", Value: true, Time: at}
}

// TestIngestShardCoalescing checks that a burst handed to one shard in one
// call (a forwarded chunk) is flushed in exactly ceil(n/MaxBatch) sealed
// ReadingBatch dispatches and that every reading is delivered.
func TestIngestShardCoalescing(t *testing.T) {
	rt := New(loadIngestModel(t))
	var delivered atomic.Int64
	ing := rt.newIngestor(func(b *device.ReadingBatch) { delivered.Add(int64(b.Len())) })
	defer ing.stop()

	const n = 1000
	batch := make([]device.Reading, n)
	for i := range batch {
		batch[i] = mkReading(fmt.Sprintf("d%04d", i), ingestEpoch)
	}
	// One chunk is appended under one hold of its stripe's lock, so the
	// worker swaps the full burst out at once: the flush count is exact.
	if got := ing.ingestRemote(1, batch); got != n {
		t.Fatalf("ingestRemote admitted %d of %d", got, n)
	}

	waitUntil(t, "burst delivery", func() bool { return delivered.Load() == n })
	st := rt.stats.snapshot()
	if st.IngestEvents != n {
		t.Fatalf("IngestEvents = %d, want %d", st.IngestEvents, n)
	}
	want := uint64((n + ing.maxBatch - 1) / ing.maxBatch)
	if st.IngestBatches != want {
		t.Fatalf("IngestBatches = %d, want %d", st.IngestBatches, want)
	}
	waitUntil(t, "budget drain", func() bool { return ing.budget.InFlight() == 0 })
}

// TestIngestBudgetBackpressure gates the consumer and checks that the
// in-flight budget caps admissions, surplus readings are counted as budget
// drops, and everything admitted is delivered once the consumer resumes.
// A batch holds its budget units until its dispatch returns, so once the
// first batch is parked in the gated handler every admitted row stays in
// flight until the gate opens.
func TestIngestBudgetBackpressure(t *testing.T) {
	rt := New(loadIngestModel(t), WithIngestConfig(IngestConfig{
		Shards: 1, Budget: 8, MaxBatch: 4,
	}))
	defer rt.Stop()
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // a failed check must not leave the handler parked
	var entered, delivered atomic.Int64
	ing := rt.newIngestor(func(b *device.ReadingBatch) {
		entered.Add(1)
		<-gate
		delivered.Add(int64(b.Len()))
	})
	defer ing.stop()
	sh := ing.shards[0]

	sh.Push(mkReading("in-handler", ingestEpoch))
	waitUntil(t, "first batch to reach the gated handler", func() bool { return entered.Load() == 1 })
	sh.Push(mkReading("queued", ingestEpoch))
	waitUntil(t, "second reading to wait behind the handler", func() bool {
		return ing.budget.InFlight() == 2 && rt.Stats().IngestBatches == 1
	})

	// 6 units are free: a burst of 9 is admitted up to the budget and its
	// tail dropped; every admitted row stays in flight behind the gate.
	for i := 0; i < 9; i++ {
		sh.Push(mkReading(fmt.Sprintf("d%d", i), ingestEpoch))
	}
	if got := ing.budget.InFlight(); got != 8 {
		t.Fatalf("in flight while gated = %d, want the whole budget (8)", got)
	}
	for i := 0; i < 3; i++ {
		sh.Push(mkReading("late", ingestEpoch)) // beyond the budget: dropped
	}
	if got := rt.Stats().IngestBudgetDrops; got != 3+3 {
		t.Fatalf("IngestBudgetDrops = %d, want 6", got)
	}
	if got := ing.budget.InFlight(); got != 8 {
		t.Fatalf("in flight after refused pushes = %d, want 8", got)
	}
	const admitted = 1 + 1 + 6
	if got := ing.budget.Admitted(); got != admitted {
		t.Fatalf("admitted = %d, want %d", got, admitted)
	}

	openGate()
	waitUntil(t, "gated delivery", func() bool { return delivered.Load() == admitted })
	waitUntil(t, "budget release", func() bool { return ing.budget.InFlight() == 0 })
	if st := rt.Stats(); st.IngestEvents != admitted {
		t.Fatalf("IngestEvents = %d, want %d", st.IngestEvents, admitted)
	}
}

// TestIngestDeadlineDrops checks the MaxAge policy: readings older than the
// deadline at flush time are dropped and counted, fresh ones delivered.
func TestIngestDeadlineDrops(t *testing.T) {
	vc := simclock.NewVirtual(ingestEpoch)
	rt := New(loadIngestModel(t), WithClock(vc), WithIngestConfig(IngestConfig{
		Shards: 1, MaxAge: time.Minute,
	}))
	var delivered atomic.Int64
	ing := rt.newIngestor(func(*device.ReadingBatch) { delivered.Add(1) })
	defer ing.stop()
	sh := ing.shards[0]

	sh.Push(mkReading("stale", ingestEpoch.Add(-2*time.Minute)))
	waitUntil(t, "stale drop", func() bool {
		return rt.stats.snapshot().IngestDeadlineDrops == 1
	})
	if delivered.Load() != 0 {
		t.Fatal("stale reading was delivered")
	}
	sh.Push(mkReading("fresh", vc.Now()))
	waitUntil(t, "fresh delivery", func() bool { return delivered.Load() == 1 })
	waitUntil(t, "budget release", func() bool { return ing.budget.InFlight() == 0 })
}

// TestTrackerReconcileRepairsDivergence drives reconcile directly (as the
// tracker does after a watcher overflow) and checks both repair directions:
// registered-but-untracked devices are attached, tracked-but-unregistered
// ones are released.
func TestTrackerReconcileRepairsDivergence(t *testing.T) {
	rt := New(loadIngestModel(t))
	ing := rt.newIngestor(discardBatch)
	defer ing.stop()
	tr := rt.newSourceTracker("PresenceSensor", "presence", ing)
	defer tr.Stop()

	ids := make([]string, 5)
	for i := range ids {
		ids[i] = fmt.Sprintf("ps-%d", i)
		b := device.NewBase(ids[i], "PresenceSensor", nil, nil, nil)
		if err := rt.BindDevice(b); err != nil {
			t.Fatal(err)
		}
	}
	rt.reconcileTracker(tr)
	if got := tr.Len(); got != 5 {
		t.Fatalf("tracked after add-reconcile = %d, want 5", got)
	}
	for _, id := range ids[:2] {
		if err := rt.UnbindDevice(id); err != nil {
			t.Fatal(err)
		}
	}
	rt.reconcileTracker(tr)
	if got := tr.Len(); got != 3 {
		t.Fatalf("tracked after remove-reconcile = %d, want 3", got)
	}
	if got := rt.Stats().TrackerReconciles; got != 2 {
		t.Fatalf("TrackerReconciles = %d, want 2", got)
	}
}

type countingHandler struct{ n atomic.Uint64 }

func (c *countingHandler) OnTrigger(*ContextCall) (any, bool, error) {
	c.n.Add(1)
	return nil, false, nil
}

// TestBindBurstBehindStalledTrackerDoesNotReconcile: a bind burst and an
// unbind burst that run far ahead of a tracker slowed by drivers whose
// Subscribe sleeps are handed over as queued deltas. The attachment table
// converges to the registered population without a single full-fleet
// reconcile — a bind storm is not a lost notification.
func TestBindBurstBehindStalledTrackerDoesNotReconcile(t *testing.T) {
	rt := New(loadIngestModel(t))
	if err := rt.ImplementContext("OccupancyChange", &countingHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	const n = 200 // over three times the 64 notifications a tracker once buffered
	for i := 0; i < n; i++ {
		if err := rt.BindDevice(slowSubDriver{
			Base: device.NewBase(fmt.Sprintf("slow-%03d", i), "PresenceSensor", nil, nil, nil),
		}); err != nil {
			t.Fatal(err)
		}
	}
	tr := rt.trackers[0]
	waitUntil(t, "burst adds to converge", func() bool { return tr.Len() == n })
	for i := 0; i < n; i += 2 {
		if err := rt.UnbindDevice(fmt.Sprintf("slow-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "burst removes to converge", func() bool { return tr.Len() == n/2 })
	if got := rt.Stats().TrackerReconciles; got != 0 {
		t.Fatalf("TrackerReconciles = %d after a bind burst, want 0", got)
	}
}

const groupedIngestDesign = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}

context LotPresence as Boolean {
	when provided presence from PresenceSensor
	grouped by lot
	no publish;
}
`

// groupRecorder records, per device, the group its last delivered reading
// carried, and the groups of the last delivery's aggregate.
type groupRecorder struct {
	mu     sync.Mutex
	groups map[string]string
	live   []string
}

func (g *groupRecorder) OnTrigger(call *ContextCall) (any, bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if call.Reading != nil {
		g.groups[call.Reading.DeviceID] = call.Group
	}
	g.live = GroupKeys(call.Grouped)
	return nil, false, nil
}

func (g *groupRecorder) groupOf(id string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.groups[id]
}

// startGroupedApp starts the grouped design with a recorder behind its
// context and returns the interaction's aggregate.
func startGroupedApp(t *testing.T) (*Runtime, *groupRecorder, *provAgg) {
	t.Helper()
	m, err := dsl.Load(groupedIngestDesign)
	if err != nil {
		t.Fatal(err)
	}
	rt := New(m)
	rec := &groupRecorder{groups: make(map[string]string)}
	if err := rt.ImplementContext("LotPresence", rec); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt, rec, rt.provAggs()[0]
}

// pushOnSubscribe pushes one reading from inside SubscribePush, as a
// driver that replays its current state on attach does, and first calls
// onSubscribe.
type pushOnSubscribe struct {
	*device.Base
	onSubscribe func(id string)
}

func (d pushOnSubscribe) SubscribePush(source string, sink device.Sink) (func(), error) {
	cancel, err := d.Base.SubscribePush(source, sink)
	if err == nil {
		d.onSubscribe(d.ID())
		sink.Push(device.Reading{DeviceID: d.ID(), Source: source, Value: true, Time: time.Now()})
	}
	return cancel, err
}

// TestGroupRecordedBeforeSubscribe: the grouped aggregate follows its
// source tracker's watcher one step ahead, so a device's group is known
// before its subscription opens. A reading pushed from inside
// SubscribePush is delivered with its group, and nothing is parked.
func TestGroupRecordedBeforeSubscribe(t *testing.T) {
	rt, rec, pa := startGroupedApp(t)
	var ungrouped atomic.Int32
	onSubscribe := func(id string) {
		pa.mu.Lock()
		_, ok := pa.groupOf[id]
		pa.mu.Unlock()
		if !ok {
			ungrouped.Add(1)
		}
	}
	const n = 64
	for i := 0; i < n; i++ {
		d := device.NewBase(fmt.Sprintf("ps-%02d", i), "PresenceSensor", nil,
			registry.Attributes{"lot": fmt.Sprintf("L%d", i%4)}, nil)
		if err := rt.BindDevice(pushOnSubscribe{Base: d, onSubscribe: onSubscribe}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "every reading delivered", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return len(rec.groups) == n
	})
	if got := ungrouped.Load(); got != 0 {
		t.Fatalf("%d of %d devices subscribed before the aggregate knew their group", got, n)
	}
	for i := 0; i < n; i++ {
		if got, want := rec.groupOf(fmt.Sprintf("ps-%02d", i)), fmt.Sprintf("L%d", i%4); got != want {
			t.Fatalf("ps-%02d delivered with group %q, want %q", i, got, want)
		}
	}
	rt.Stop()
	if got := rt.Stats().AggPendingDrops; got != 0 {
		t.Fatalf("AggPendingDrops = %d, want 0: a reading was parked", got)
	}
}

// gatedSubDriver parks SubscribePush until gate closes.
type gatedSubDriver struct {
	*device.Base
	entered chan struct{}
	gate    chan struct{}
}

func (d gatedSubDriver) SubscribePush(source string, sink device.Sink) (func(), error) {
	close(d.entered)
	<-d.gate
	return d.Base.SubscribePush(source, sink)
}

// TestWatcherOverflowReconcilesGroupsAndTracker: a tracker loop parked in a
// device's SubscribePush while more changes than its watcher queues pass
// loses notifications — here a departure and an arrival. One reconcile,
// counted once, repairs both tables: the departed device's contribution is
// retracted, and the arrival gets its group and its subscription.
func TestWatcherOverflowReconcilesGroupsAndTracker(t *testing.T) {
	rt, rec, pa := startGroupedApp(t)
	old := device.NewBase("old", "PresenceSensor", nil, registry.Attributes{"lot": "L0"}, nil)
	if err := rt.BindDevice(old); err != nil {
		t.Fatal(err)
	}
	tr := rt.trackers[0]
	waitUntil(t, "old to attach", func() bool { return tr.Len() == 1 })
	old.Emit("presence", true)
	waitUntil(t, "old's reading", func() bool { return rec.groupOf("old") == "L0" })

	gated := gatedSubDriver{
		Base:    device.NewBase("gated", "PresenceSensor", nil, registry.Attributes{"lot": "L9"}, nil),
		entered: make(chan struct{}),
		gate:    make(chan struct{}),
	}
	if err := rt.BindDevice(gated); err != nil {
		t.Fatal(err)
	}
	<-gated.entered
	// More updates than a watcher queues (1<<16), then the two changes the
	// overflow loses.
	flood := registry.Entity{ID: "flood", Kind: "PresenceSensor", Kinds: []string{"PresenceSensor"},
		Attrs: registry.Attributes{"lot": "F0"}, Origin: "peer"}
	if err := rt.reg.Register(flood); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<16+64; i++ {
		if err := rt.reg.Update("flood", registry.Attributes{"lot": fmt.Sprintf("F%d", i%2)}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.UnbindDevice("old"); err != nil {
		t.Fatal(err)
	}
	arrival := device.NewBase("new", "PresenceSensor", nil, registry.Attributes{"lot": "L1"}, nil)
	if err := rt.BindDevice(arrival); err != nil {
		t.Fatal(err)
	}
	close(gated.gate)

	waitUntil(t, "old's contribution retracted", func() bool {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		return !slices.Contains(rec.live, "L0")
	})
	pa.mu.Lock()
	_, oldTracked := pa.groupOf["old"]
	newGroup := pa.groupOf["new"]
	pa.mu.Unlock()
	if oldTracked || newGroup != "L1" {
		t.Fatalf("group table after the reconcile: old tracked %v, new in group %q; want false, L1", oldTracked, newGroup)
	}
	// new's subscription opens in the tracker's half of the reconcile.
	waitUntil(t, "new's reading", func() bool {
		arrival.Emit("presence", true)
		return rec.groupOf("new") == "L1"
	})
	if got := tr.Len(); got != 3 {
		t.Fatalf("tracker holds %d devices, want gated, flood and new", got)
	}
	if got := rt.Stats().TrackerReconciles; got != 1 {
		t.Fatalf("TrackerReconciles = %d, want 1", got)
	}
}

// slowSubDriver makes the tracker loop fall behind the registry.
type slowSubDriver struct{ *device.Base }

func (d slowSubDriver) SubscribePush(source string, sink device.Sink) (func(), error) {
	time.Sleep(time.Millisecond)
	return d.Base.SubscribePush(source, sink)
}

// TestSourceTrackerReleasesOnChurn is the churn regression test for the
// tracker-slot leak: unregistration must release the device's attachment
// (and its push sink) while the runtime keeps running — not only at
// shutdown — and release the local driver slot, whichever constructor built
// the host.
func TestSourceTrackerReleasesOnChurn(t *testing.T) {
	for _, ctor := range worldCtors {
		t.Run(ctor.name, func(t *testing.T) { testSourceTrackerReleasesOnChurn(t, ctor) })
	}
}

// openIngestApp starts the ingestTestDesign app through ctor.
func openIngestApp(t *testing.T, ctor worldCtor, vc *simclock.Virtual, h ContextHandler) (*Runtime, func()) {
	t.Helper()
	rts, stop := ctor.open(t, SubstrateConfig{Clock: vc}, appSpec{"ingest", loadIngestModel(t),
		AppConfig{Contexts: map[string]ContextHandler{"OccupancyChange": h}}})
	return rts[0], stop
}

func testSourceTrackerReleasesOnChurn(t *testing.T, ctor worldCtor) {
	vc := simclock.NewVirtual(ingestEpoch)
	delivered := &countingHandler{}
	rt, stop := openIngestApp(t, ctor, vc, delivered)
	defer stop()

	const n = 40
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: n, Lots: []string{"L00"}, GroupAttr: "lot", Seed: 7,
	}, vc)
	for _, s := range swarm.Sensors() {
		if err := rt.BindDevice(s); err != nil {
			t.Fatal(err)
		}
	}
	tr := rt.trackers[0]
	waitUntil(t, "initial attach", func() bool { return tr.Len() == n })
	waitUntil(t, "swarm attach", func() bool { return swarm.AttachedCount() == n })

	// Explicit unregistration releases the slot and detaches the sink.
	for _, s := range swarm.Sensors()[:n/2] {
		if err := rt.UnbindDevice(s.ID()); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "tracker release on unregister", func() bool { return tr.Len() == n/2 })
	waitUntil(t, "sink detach on unregister", func() bool { return swarm.AttachedCount() == n/2 })

	// A churned-out sensor's events are not accepted anywhere.
	before := delivered.n.Load()
	if swarm.Flip(0) {
		t.Fatal("reading from an unregistered sensor was accepted")
	}
	if got := delivered.n.Load(); got != before {
		t.Fatalf("stale delivery after unregister: %d -> %d", before, got)
	}

	// A device bound mid-run releases the slot on unbind too, plus the local
	// driver entry.
	late := device.NewBase("late-1", "PresenceSensor", nil, nil, vc.Now)
	if err := rt.BindDevice(late); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "late attach", func() bool { return tr.Len() == n/2+1 })
	if err := rt.UnbindDevice(late.ID()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "tracker release on unbind", func() bool { return tr.Len() == n/2 })
	waitUntil(t, "driver slot release on unbind", func() bool {
		_, ok := rt.fleet.get("late-1")
		return !ok
	})
	// The identity is immediately rebindable.
	if err := rt.BindDevice(late); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "rebind after unbind", func() bool { return tr.Len() == n/2+1 })
}

// TestIngestEndToEndDelivery pushes a storm through the full started
// runtime and cross-checks the exact delivered count and batch accounting.
func TestIngestEndToEndDelivery(t *testing.T) {
	vc := simclock.NewVirtual(ingestEpoch)
	rt := New(loadIngestModel(t), WithClock(vc))
	delivered := &countingHandler{}
	if err := rt.ImplementContext("OccupancyChange", delivered); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	const n = 500
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: n, Lots: []string{"L00"}, GroupAttr: "lot", Seed: 7,
	}, vc)
	for _, s := range swarm.Sensors() {
		if err := rt.BindDevice(s); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "attach", func() bool { return swarm.AttachedCount() == n })
	accepted := 0
	for round := 0; round < 4; round++ {
		accepted += swarm.FlipBurst(n)
	}
	waitUntil(t, "storm delivery", func() bool {
		return delivered.n.Load() == uint64(accepted)
	})
	st := rt.Stats()
	if st.IngestEvents != uint64(accepted) {
		t.Fatalf("IngestEvents = %d, want %d", st.IngestEvents, accepted)
	}
	if st.Drops() != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
	if st.IngestBatches == 0 || st.IngestBatches > st.IngestEvents {
		t.Fatalf("implausible IngestBatches = %d for %d events", st.IngestBatches, st.IngestEvents)
	}
}

func intReading(id string, seq int64) device.Reading {
	return device.Reading{DeviceID: id, Source: "presence", Value: seq, Time: ingestEpoch}
}

// shardDevices returns one device ID per shard of ing, each hashing to its
// own shard, all starting with prefix.
func shardDevices(ing *ingestor, prefix string) []string {
	ids := make([]string, len(ing.shards))
	for i, found := 0, 0; found < len(ids); i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if k := maphash.String(ingestSeed, id) & ing.mask; ids[k] == "" {
			ids[k] = id
			found++
		}
	}
	return ids
}

// discardBatch is the dispatch of an ingestor whose deliveries a test does
// not read.
func discardBatch(*device.ReadingBatch) {}

// seqSubscriber checks, on the flush worker that dispatches to it, that
// every device's int64 readings arrive strictly increasing: a reading
// delivered twice, or two readings of one device swapped, is a violation.
type seqSubscriber struct {
	delivered  atomic.Int64
	violations atomic.Int64
	last       map[string]int64
}

func newSeqSubscriber() *seqSubscriber {
	return &seqSubscriber{last: make(map[string]int64)}
}

func (s *seqSubscriber) onBatch(b *device.ReadingBatch) {
	for i, v := range b.Ints() {
		id := b.IDAt(i)
		if prev, ok := s.last[id]; ok && v <= prev {
			s.violations.Add(1)
		}
		s.last[id] = v
	}
	s.delivered.Add(int64(b.Len()))
}

// TestIngestStopRace: producers push into every shard, one reading at a time
// and in forwarded chunks, while stop runs and after the flush worker has
// exited. A push or chunk that turns a shard non-empty enqueues it before
// releasing the shard lock, so it either lands before the worker's last
// look at the ready queue or is refused: no reading and no budget unit is
// left in a shard the worker will never take again, and nothing is
// delivered twice. The race sits in a window of a few instructions, so each
// run stops many ingestors (CI also repeats it under -race).
func TestIngestStopRace(t *testing.T) {
	rt := New(loadIngestModel(t), WithIngestConfig(IngestConfig{Shards: 8}))
	defer rt.Stop()
	sub := newSeqSubscriber()
	const producers, rounds = 4, 30
	for round := 0; round < rounds; round++ {
		ing := rt.newIngestor(sub.onBatch)
		var quit atomic.Bool
		var pushes atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < producers; g++ {
			// A device takes one path: local pushes or its stream's chunks.
			ids := shardDevices(ing, fmt.Sprintf("r%d-g%d", round, g))
			remote := shardDevices(ing, fmt.Sprintf("r%d-g%d-remote", round, g))
			stream := uint64(g + 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				chunk := make([]device.Reading, len(remote))
				var seq int64
				for !quit.Load() {
					for _, id := range ids {
						ing.shardFor(id).Push(intReading(id, seq))
						seq++
					}
					for i, id := range remote {
						chunk[i] = intReading(id, seq)
						seq++
					}
					ing.ingestRemote(stream, chunk)
					pushes.Add(1)
				}
			}()
		}
		waitUntil(t, "producers to get going", func() bool { return pushes.Load() >= 50 })
		ing.stop()
		rt.wg.Wait() // the flush worker has exited; the producers are still pushing
		quit.Store(true)
		wg.Wait()
		if n := ing.budget.InFlight(); n != 0 {
			t.Fatalf("round %d: %d budget units held after the flush worker exited", round, n)
		}
	}
	waitUntil(t, "delivery of every flushed reading", func() bool {
		return uint64(sub.delivered.Load()) == rt.stats.snapshot().IngestEvents
	})
	if n := sub.violations.Load(); n != 0 {
		t.Fatalf("%d readings delivered twice or out of order", n)
	}
}

// TestIngestPerDeviceOrder: four producers, each with its own federation
// stream, own two disjoint device sets covering all eight shards. One set
// takes local pushes only, the other federation batches on the producer's
// stream only (RemoteIngest lands a batch whole on its stream's stripe):
// every device ID takes one path, as a registry ID is either local or a
// mirror. The one flush worker drains the stripes in ready-queue order, so
// each device's readings reach the handler in the order its producer
// handed them over, each exactly once.
func TestIngestPerDeviceOrder(t *testing.T) {
	rt := New(loadIngestModel(t), WithIngestConfig(IngestConfig{Shards: 8, Budget: -1}))
	defer rt.Stop()
	sub := newSeqSubscriber()
	ing := registerIngestor(rt, sub.onBatch)
	defer ing.stop()

	const producers, perShard, rounds = 4, 2, 200
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		var local, remote []string
		for k := 0; k < perShard; k++ {
			local = append(local, shardDevices(ing, fmt.Sprintf("g%d-local%d", g, k))...)
			remote = append(remote, shardDevices(ing, fmt.Sprintf("g%d-remote%d", g, k))...)
		}
		stream := uint64(g + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]device.Reading, len(remote))
			for r := int64(0); r < rounds; r++ {
				for i, id := range remote {
					batch[i] = intReading(id, r)
				}
				if n := rt.RemoteIngest("PresenceSensor", "presence", stream, batch); n != len(batch) {
					t.Errorf("RemoteIngest admitted %d of %d", n, len(batch))
					return
				}
				for _, id := range local {
					ing.shardFor(id).Push(intReading(id, r))
				}
			}
		}()
	}
	wg.Wait()
	total := int64(producers * perShard * len(ing.shards) * rounds * 2)
	waitUntil(t, "every reading", func() bool { return sub.delivered.Load() >= total })
	if got := sub.delivered.Load(); got != total {
		t.Fatalf("delivered %d readings, want %d", got, total)
	}
	if n := sub.violations.Load(); n != 0 {
		t.Fatalf("%d readings delivered twice or out of a device's order", n)
	}
}

// TestRemoteChunkStaysOneBatch: a forwarded chunk of MaxBatch readings over
// many devices lands on its stream's stripe whole and reaches the handler as
// one batch, in the order it was sent.
func TestRemoteChunkStaysOneBatch(t *testing.T) {
	rt := New(loadIngestModel(t), WithIngestConfig(IngestConfig{Shards: 8, Budget: -1}))
	defer rt.Stop()
	// Room for the chunk cut once per stripe, so a wrong split never blocks
	// the flush worker.
	batches := make(chan []int64, 8)
	ing := registerIngestor(rt, func(b *device.ReadingBatch) {
		batches <- append([]int64(nil), b.Ints()...)
	})
	defer ing.stop()

	chunk := make([]device.Reading, 256)
	for i := range chunk {
		chunk[i] = intReading(fmt.Sprintf("d%02d", i%64), int64(i))
	}
	if n := rt.RemoteIngest("PresenceSensor", "presence", 7, chunk); n != len(chunk) {
		t.Fatalf("RemoteIngest admitted %d of %d", n, len(chunk))
	}
	var got []int64
	select {
	case got = <-batches:
	case <-time.After(5 * time.Second):
		t.Fatal("the chunk never reached the handler")
	}
	if len(got) != len(chunk) {
		t.Fatalf("the first dispatched batch holds %d rows, want the whole %d-reading chunk", len(got), len(chunk))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d carries reading %d: the chunk was reordered", i, v)
		}
	}
}

// registerIngestor starts an ingestor dispatching to dispatch as the
// (PresenceSensor, presence) interaction, so RemoteIngest reaches it.
func registerIngestor(rt *Runtime, dispatch func(*device.ReadingBatch)) *ingestor {
	ing := rt.newIngestor(dispatch)
	key := ingestKey("PresenceSensor", "presence")
	rt.mu.Lock()
	rt.ingestByKey[key] = append(rt.ingestByKey[key], ing)
	rt.mu.Unlock()
	return ing
}

// TestIngestorStartsOneGoroutine pins the fixed cost of a `when provided`
// interaction: one flush worker whatever the shard count, gone after stop.
func TestIngestorStartsOneGoroutine(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rt := New(loadIngestModel(t), WithIngestConfig(IngestConfig{Shards: shards}))
			defer rt.Stop()
			base := settledGoroutines()
			ing := rt.newIngestor(discardBatch)
			if got := settledGoroutines() - base; got != 1 {
				t.Fatalf("newIngestor started %d goroutines, want 1", got)
			}
			ing.stop()
			rt.wg.Wait()
			if got := settledGoroutines() - base; got != 0 {
				t.Fatalf("%d goroutines left after stop, want 0", got)
			}
		})
	}
}

// startIngestApp starts the ingest design with a counting handler behind
// its `when provided` context.
func startIngestApp(t *testing.T, opts ...Option) (*Runtime, *countingHandler) {
	t.Helper()
	rt := New(loadIngestModel(t), opts...)
	h := &countingHandler{}
	if err := rt.ImplementContext("OccupancyChange", h); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt, h
}

// TestBaseBurstAccountedExactly: a device.Base bound to a `when provided`
// context emits a burst far past the interaction's in-flight budget. Every
// reading is delivered or counted as a drop: delivered + Stats.Drops()
// equals the burst exactly.
func TestBaseBurstAccountedExactly(t *testing.T) {
	rt, h := startIngestApp(t, WithIngestConfig(IngestConfig{Budget: 64}))
	b := device.NewBase("burst", "PresenceSensor", nil, nil, nil)
	if err := rt.BindDevice(b); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the device to attach", func() bool { return rt.trackers[0].Len() == 1 })
	const burst = 1000
	for i := 0; i < burst; i++ {
		b.Emit("presence", i%2 == 0)
	}
	accounted := func() uint64 { return h.n.Load() + rt.Stats().Drops() }
	waitUntil(t, "every reading to be accounted", func() bool { return accounted() >= burst })
	rt.Stop()
	t.Logf("delivered %d, dropped %d", h.n.Load(), rt.Stats().Drops())
	if got := accounted(); got != burst {
		t.Fatalf("delivered %d + dropped %d = %d, want the burst's %d", h.n.Load(), rt.Stats().Drops(), got, burst)
	}
}

// gatedTrigger parks every trigger until gate closes, counting the
// triggers that entered and the ones that returned.
type gatedTrigger struct {
	gate               chan struct{}
	entered, delivered atomic.Uint64
}

func (g *gatedTrigger) OnTrigger(*ContextCall) (any, bool, error) {
	g.entered.Add(1)
	<-g.gate
	g.delivered.Add(1)
	return nil, false, nil
}

// TestIngestBudgetBoundsUndeliveredReadings: an interaction's budget bounds
// the readings admitted but not yet delivered. While the handler is parked
// inside its first batch, a burst of 10,000 readings admits at most Budget
// of them, however deep any queue behind the flush worker could be; once
// the handler resumes, every reading is delivered or counted as a drop.
func TestIngestBudgetBoundsUndeliveredReadings(t *testing.T) {
	const budget, pushed = 64, 10000
	rt := New(loadIngestModel(t), WithIngestConfig(IngestConfig{Shards: 1, Budget: budget, MaxBatch: 16}))
	defer rt.Stop()
	h := &gatedTrigger{gate: make(chan struct{})}
	openGate := sync.OnceFunc(func() { close(h.gate) })
	defer openGate() // a failed check must not leave the handler parked
	if err := rt.ImplementContext("OccupancyChange", h); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	b := device.NewBase("burst", "PresenceSensor", nil, nil, nil)
	if err := rt.BindDevice(b); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the device to attach", func() bool { return rt.trackers[0].Len() == 1 })
	b.Emit("presence", true)
	waitUntil(t, "the handler to park", func() bool { return h.entered.Load() == 1 })
	for i := 1; i < pushed; i++ {
		b.Emit("presence", i%2 == 0)
	}
	if admitted := pushed - rt.Stats().IngestBudgetDrops; admitted > budget {
		t.Fatalf("%d readings admitted while the handler was parked, want <= the budget's %d", admitted, budget)
	}
	openGate()
	accounted := func() uint64 { return h.delivered.Load() + rt.Stats().Drops() }
	waitUntil(t, "every reading to be accounted", func() bool { return accounted() >= pushed })
	rt.Stop()
	if got := accounted(); got != pushed {
		t.Fatalf("delivered %d + dropped %d = %d, want the %d pushed", h.delivered.Load(), rt.Stats().Drops(), got, pushed)
	}
}

// TestEventDeviceBindStartsNoGoroutine: binding event-driven devices to a
// running app attaches each to its ingest shard as a push sink; no
// goroutine runs per device.
func TestEventDeviceBindStartsNoGoroutine(t *testing.T) {
	rt, _ := startIngestApp(t)
	base := settledGoroutines()
	const n = 32
	for i := 0; i < n; i++ {
		if err := rt.BindDevice(device.NewBase(fmt.Sprintf("ev-%02d", i), "PresenceSensor", nil, nil, nil)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "every device to attach", func() bool { return rt.trackers[0].Len() == n })
	if got := settledGoroutines() - base; got != 0 {
		t.Fatalf("binding %d event devices started %d goroutines, want 0", n, got)
	}
}

// groupedAppGoroutines is what one idle grouped `when provided` app runs:
// its ingest flush worker, which also runs the interaction's dispatch, and
// the one watcher loop its source tracker and group table share.
const groupedAppGoroutines = 2

// TestGoroutinesPerGroupedApp pins groupedAppGoroutines over the 2nd to 32nd
// idle grouped app on one Host.
func TestGoroutinesPerGroupedApp(t *testing.T) {
	const apps = 32
	h, err := NewHost(SubstrateConfig{Clock: simclock.NewVirtual(hostEpoch)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	deploy := func(i int) {
		rec := &groupRecorder{groups: make(map[string]string)}
		if _, err := h.DeploySource(fmt.Sprintf("g%d", i), groupedIngestDesign, AppConfig{
			Contexts: map[string]ContextHandler{"LotPresence": rec},
		}); err != nil {
			t.Fatal(err)
		}
	}
	deploy(0)
	g0 := settledGoroutines()
	for i := 1; i < apps; i++ {
		deploy(i)
	}
	g1 := settledGoroutines()
	if g1-g0 != groupedAppGoroutines*(apps-1) {
		t.Fatalf("%d goroutines for %d grouped apps, want %d per app", g1-g0, apps-1, groupedAppGoroutines)
	}
}

// settledGoroutines reads runtime.NumGoroutine until three reads 5 ms apart
// agree, so goroutines of earlier tests still winding down do not count.
func settledGoroutines() int {
	n, same := goruntime.NumGoroutine(), 0
	for same < 2 {
		time.Sleep(5 * time.Millisecond)
		if m := goruntime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// stormAllocsPerEvent bounds what a steady-state burst allocates per event
// on the typed `when provided` path, at any fleet size. Push sink, ingest
// shard, pooled ReadingBatch and dispatch allocate nothing per
// reading; what a burst does allocate is pooled batches and their columns'
// growth, and how many depends on how the schedule cuts the burst into
// batches (up to ~120 for 1k readings). One allocation per reading is four
// times over the bound.
const stormAllocsPerEvent = 0.25

// churnAllocsPerDevice bounds what rotating one device out of the fleet and
// back in allocates — unregister, register, tracker detach and attach, push
// subscription — at any fleet size.
const churnAllocsPerDevice = 32

// stormWorld binds n push sensors to the ingest app through a churn swarm
// and returns it with a burst: one reading from every live sensor, waited
// for until each accepted reading is delivered or counted as a drop.
func stormWorld(t *testing.T, n int) (*devsim.ChurnSwarm, func()) {
	t.Helper()
	vc := simclock.NewVirtual(ingestEpoch)
	delivered := &countingHandler{}
	rt, stop := openIngestApp(t, worldCtors[0], vc, delivered)
	t.Cleanup(stop)
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors: n, Lots: []string{"L00"}, GroupAttr: "lot", Seed: 7,
	}, vc)
	cs, err := devsim.NewChurnSwarm(swarm, devsim.ChurnHooks{
		Bind:   func(s *devsim.SwarmSensor) error { return rt.BindDevice(s) },
		Unbind: rt.UnbindDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.BindAll(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "attach", cs.Settled)
	burst := func() {
		cs.StormLive(cs.LiveCount())
		for deadline := time.Now().Add(10 * time.Second); ; {
			got := delivered.n.Load() + rt.Stats().Drops()
			if got == cs.Expected() {
				return
			}
			if got > cs.Expected() || time.Now().After(deadline) {
				t.Fatalf("accounted %d events, ground truth %d", got, cs.Expected())
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	burst() // warm shard buffers, the batch pool and the handler's dispatch
	return cs, burst
}

// mallocs counts the heap allocations the whole process makes while f
// runs, as testing.AllocsPerRun does: the pipeline allocates on its own
// goroutines, not on the caller's.
func mallocs(f func()) uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	from := ms.Mallocs
	f()
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs - from
}

// TestTypedStormAllocsIndependentOfFleet pins the typed ingest path: a
// steady-state burst of one reading per device allocates at most
// stormAllocsPerEvent per event, at 1k and at 8k sensors.
func TestTypedStormAllocsIndependentOfFleet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, n := range []int{1000, 8000} {
		_, burst := stormWorld(t, n)
		perBurst := testing.AllocsPerRun(10, burst)
		perEvent := perBurst / float64(n)
		t.Logf("%d sensors: %.0f allocs per burst, %.4f per event", n, perBurst, perEvent)
		if perEvent > stormAllocsPerEvent {
			t.Errorf("%d sensors: %.4f allocs per event, want <= %v", n, perEvent, stormAllocsPerEvent)
		}
	}
}

// TestChurnDeliveryAllocsIndependentOfFleet pins delivery under churn, at
// 1k and at 8k sensors: rotating a tenth of the fleet out and back in,
// with the first burst that reaches the rotated devices, allocates at most
// churnAllocsPerDevice per rotated device, and the next burst at most
// stormAllocsPerEvent per event. Each figure is the median of five rounds.
func TestChurnDeliveryAllocsIndependentOfFleet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const rounds = 5
	for _, n := range []int{1000, 8000} {
		cs, burst := stormWorld(t, n)
		churned := n / 10
		churn, deliver := make([]uint64, rounds), make([]uint64, rounds)
		for i := range rounds {
			churn[i] = mallocs(func() {
				// Out, settled, then back in: an unbind and rebind of the
				// same device look settled before the tracker saw either.
				if err := cs.ChurnOut(churned); err != nil {
					t.Fatal(err)
				}
				waitUntil(t, "churned-out devices to detach", cs.Settled)
				if err := cs.ChurnIn(churned); err != nil {
					t.Fatal(err)
				}
				waitUntil(t, "churned-in devices to attach", cs.Settled)
				burst()
			})
			deliver[i] = mallocs(burst)
		}
		perDevice := float64(median(churn)) / float64(churned)
		perEvent := float64(median(deliver)) / float64(n)
		t.Logf("%d sensors, %d rotated per round: %.1f allocs per rotated device, %.4f per event", n, churned, perDevice, perEvent)
		if perDevice > churnAllocsPerDevice {
			t.Errorf("%d sensors: %.1f allocs per rotated device, want <= %d", n, perDevice, churnAllocsPerDevice)
		}
		if perEvent > stormAllocsPerEvent {
			t.Errorf("%d sensors under churn: %.4f allocs per event, want <= %v", n, perEvent, stormAllocsPerEvent)
		}
	}
}

// median returns the middle value of xs, which it sorts.
func median(xs []uint64) uint64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}
