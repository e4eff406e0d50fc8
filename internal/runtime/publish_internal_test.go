package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/eventbus"
	"repro/internal/simclock"
)

// White-box tests of the publication path (publish.go): batched publication
// must be indistinguishable from per-value publication in everything but
// the number of bus events, the value batch must honour the pooled-payload
// contract under overflow and recycling, and a hot undeploy must account
// for every queued value. All run under -race in CI.

// relayDesign chains device → A → B → controller with the given publish
// modes ("always publish" or "maybe publish"); N is a `no publish` leaf on A
// (the checker rejects a subscription to a context that never publishes).
func relayDesign(modeA, modeB string) string {
	return fmt.Sprintf(`
device Meter { source level as Integer; }
device Display { action show(value as Integer); }

context A as Integer {
	when provided level from Meter
	%s;
}

context B as Integer {
	when provided A
	%s;
}

context N as Integer {
	when provided A
	no publish;
}

controller K {
	when provided B
	do show on Display;
}
`, modeA, modeB)
}

// The handlers of the property test are pure functions of the value, so the
// test can replay them as the per-value reference.
var errRefused = errors.New("refused")

func relayA(v int64) (int64, bool, error) {
	if v%11 == 0 {
		return 0, false, errRefused
	}
	return v*2 + 1, v%3 != 0, nil
}

func relayB(v int64) (int64, bool, error) { return v + 1000, v%5 != 0, nil }

type relayCtx func(int64) (int64, bool, error)

func (f relayCtx) OnTrigger(call *ContextCall) (any, bool, error) {
	v := call.Value
	if call.Reading != nil {
		v = call.Reading.Value
	}
	out, want, err := f(v.(int64))
	return out, want, err
}

// seqCtrl records the ordered value sequence a controller observes.
type seqCtrl struct {
	mu   sync.Mutex
	seen []int64
}

func (c *seqCtrl) OnContext(call *ControllerCall) error {
	c.mu.Lock()
	c.seen = append(c.seen, call.Value.(int64))
	c.mu.Unlock()
	return nil
}

func (c *seqCtrl) snapshot() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.seen...)
}

// relayReference is the per-value publisher the batched path must match:
// every reading walks the whole chain on its own, one bus event per context
// hop (the reading itself reaches A without the bus).
type relayReference struct {
	seen                                   []int64
	ctxTriggers, ctxPublishes, ctrlTrigger uint64
	busPublished, busDelivered, errs       uint64
	lastA, lastB                           any
}

func publishes(mode string, want bool) bool {
	return mode == "always publish" || (mode == "maybe publish" && want)
}

func (r *relayReference) reading(v int64, modeA, modeB string) {
	r.ctxTriggers++
	a, want, err := relayA(v)
	if err != nil {
		r.errs++
		return
	}
	if !publishes(modeA, want) {
		return
	}
	r.ctxPublishes++
	r.lastA = a
	r.busPublished++
	r.busDelivered += 2 // to B and to N, which offers a value but never publishes
	r.ctxTriggers += 2
	b, want, _ := relayB(a)
	if !publishes(modeB, want) {
		return
	}
	r.ctxPublishes++
	r.lastB = b
	r.busPublished++
	r.busDelivered++ // to K
	r.ctrlTrigger++
	r.seen = append(r.seen, b)
}

// TestPublicationPathMatchesPerValueReference drives seeded random delivery
// sequences — typed batches and mixed (boxed-column) batches of random
// sizes, down to a batch of one — through every always/maybe combination of a
// context→context→controller chain with a `no publish` leaf, and requires the controller's ordered
// value sequence and every counter to equal the per-value reference.
func TestPublicationPathMatchesPerValueReference(t *testing.T) {
	modes := []string{"always publish", "maybe publish"}
	for _, modeA := range modes {
		for _, modeB := range modes {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", modeA, modeB, seed), func(t *testing.T) {
					runRelayProperty(t, modeA, modeB, seed)
				})
			}
		}
	}
}

func runRelayProperty(t *testing.T, modeA, modeB string, seed int64) {
	model, err := dsl.Load(relayDesign(modeA, modeB))
	if err != nil {
		t.Fatal(err)
	}
	var errs atomic.Uint64
	rt := New(model, WithErrorHandler(func(ComponentError) { errs.Add(1) }))
	defer rt.Stop()
	ctrl := &seqCtrl{}
	for name, h := range map[string]ContextHandler{"A": relayCtx(relayA), "B": relayCtx(relayB), "N": relayCtx(relayB)} {
		if err := rt.ImplementContext(name, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.ImplementController("K", ctrl); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	ref := &relayReference{}
	at := time.Unix(1000, 0)
	next := int64(1)
	reading := func() device.Reading {
		r := device.Reading{DeviceID: "m1", Source: "level", Value: next, Time: at}
		ref.reading(next, modeA, modeB)
		next++
		return r
	}
	for d := 0; d < 60; d++ {
		shape := rng.Intn(4)
		rows := 1 + rng.Intn(40)
		if shape == 0 {
			rows = 1
		}
		b := device.NewReadingBatch()
		for i := 0; i < rows; i++ {
			b.Append(reading())
		}
		if shape == 1 {
			// A foreign-typed row demotes the batch to its boxed
			// column; the chain skips it (relayA would panic on it),
			// so it rides last and is cut again by the deadline path.
			b.Append(device.Reading{DeviceID: "m1", Source: "level", Value: "mixed", Time: at.Add(-time.Hour)})
			b.CompactBefore(at)
		}
		deliverReadings(t, rt, "Meter", "level", b)
		b.Release()
	}

	waitUntil(t, "the chain to settle", func() bool {
		bs := rt.bus.Stats()
		return bs.Delivered == ref.busDelivered && rt.Stats().ControllerTriggers == ref.ctrlTrigger
	})
	if got := ctrl.snapshot(); !reflect.DeepEqual(got, ref.seen) {
		t.Fatalf("controller saw %d values %v…, reference %d values %v…", len(got), head(got), len(ref.seen), head(ref.seen))
	}
	st, bs := rt.Stats(), rt.bus.Stats()
	got := [...]uint64{st.ContextTriggers, st.ContextPublishes, st.ControllerTriggers, bs.Published, bs.Delivered, errs.Load()}
	want := [...]uint64{ref.ctxTriggers, ref.ctxPublishes, ref.ctrlTrigger, ref.busPublished, ref.busDelivered, ref.errs}
	if got != want {
		t.Fatalf("counters [ctxTriggers ctxPublishes ctrlTriggers busPublished busDelivered errors]\n got  %v\n want %v", got, want)
	}
	for name, want := range map[string]any{"A": ref.lastA, "B": ref.lastB, "N": nil} {
		got, ok := rt.LastPublished(name)
		if ok != (want != nil) || got != want {
			t.Fatalf("LastPublished(%s) = %v, %v; reference %v", name, got, ok, want)
		}
	}
}

// deliverReadings hands one reading batch to the `when provided`
// interaction on (kind, source) as its ingest flush worker does. The tests
// using it bind no device, so the worker never dispatches and the caller is
// the call site's only goroutine.
func deliverReadings(t *testing.T, rt *Runtime, kind, source string, b *device.ReadingBatch) {
	t.Helper()
	rt.mu.Lock()
	ings := rt.ingestByKey[ingestKey(kind, source)]
	rt.mu.Unlock()
	if len(ings) != 1 {
		t.Fatalf("%d ingestion pipelines on %s.%s, want 1", len(ings), kind, source)
	}
	ings[0].dispatch(b)
}

func head(s []int64) []int64 {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

// publishValues publishes one value batch of n copies of v, as a call site's
// flush does.
func publishValues(t *testing.T, bus *eventbus.Bus, topic string, n int, v any) {
	t.Helper()
	b := newValueBatch()
	for i := 0; i < n; i++ {
		b.vals = append(b.vals, v)
	}
	err := bus.Publish(topic, b, time.Unix(1, 0))
	b.Release()
	if err != nil {
		t.Fatal(err)
	}
}

// TestRaceRegression_ValueBatchRecycleVsSlowSubscriber is the value-batch
// twin of eventbus's ReadingBatch regression: the producer drops its
// reference right after the flush and the pool recycles eagerly, so a slow
// subscriber still reading a delivered batch would observe the next round's
// values (and -race the unsynchronized write) if the bus did not hold a
// reference per subscriber until the delivery returns.
func TestRaceRegression_ValueBatchRecycleVsSlowSubscriber(t *testing.T) {
	const rows, rounds = 48, 200
	bus := eventbus.New()
	defer bus.Close()
	var torn atomic.Int64
	_, err := bus.Subscribe("context/C", func(ev eventbus.Event) {
		b := ev.Payload.(*valueBatch)
		want := b.vals[0]
		time.Sleep(50 * time.Microsecond)
		if len(b.vals) != rows {
			torn.Add(1)
		}
		for _, v := range b.vals {
			if v != want {
				torn.Add(1)
			}
		}
	}, eventbus.WithQueue(4))
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g <= rounds; g++ {
		publishValues(t, bus, "context/C", rows, g)
	}
	waitUntil(t, "every round to be delivered", func() bool { return bus.Stats().Delivered == rows*rounds })
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d torn reads: subscriber observed a recycled value batch", n)
	}
}

// TestValueBatchRecyclePinsNothingPastLen: reset clears exactly the used
// prefix, and by the invariant that is the whole column — also after a
// large round followed by a small one.
func TestValueBatchRecyclePinsNothingPastLen(t *testing.T) {
	b := newValueBatch()
	defer b.Release()
	for _, n := range []int{100, 3} {
		for i := 0; i < n; i++ {
			b.vals = append(b.vals, "pinned")
		}
		b.reset()
		if len(b.vals) != 0 {
			t.Fatalf("reset batch holds %d values", len(b.vals))
		}
		for i, v := range b.vals[:cap(b.vals)] {
			if v != nil {
				t.Fatalf("vals[%d] = %v pinned past len after a %d-value round", i, v, n)
			}
		}
	}
}

func TestValueBatchOverReleasePanics(t *testing.T) {
	b := newValueBatch()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	b.Release()
}

// TestHostUndeployDrainsQueuedValueBatches: value batches queued in front of
// a stalled controller when its app is hot-undeployed are still delivered —
// every published value reaches the controller or a drop counter.
func TestHostUndeployDrainsQueuedValueBatches(t *testing.T) {
	h, err := NewHost(SubstrateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // a failed check must not leave the handler parked
	ctrl := &gatedCtrl{gate: gate}
	rt, err := h.DeploySource("relay", relayDesign("always publish", "always publish"), AppConfig{
		AutoImplement: true,
		Controllers:   map[string]ControllerHandler{"K": ctrl},
	})
	if err != nil {
		t.Fatal(err)
	}
	const deliveries, rows = 20, 10
	at := time.Unix(1000, 0)
	for d := 0; d < deliveries; d++ {
		b := device.NewReadingBatch()
		for i := 0; i < rows; i++ {
			b.Append(device.Reading{DeviceID: "m1", Source: "level", Value: int64(d*rows + i), Time: at})
		}
		deliverReadings(t, rt, "Meter", "level", b)
		b.Release()
	}
	// A and B have relayed everything; the controller is parked inside its
	// first value with the other batches queued behind it.
	waitUntil(t, "both contexts to publish", func() bool { return rt.Stats().ContextPublishes == 2*deliveries*rows })
	if got := ctrl.n.Load(); got != 0 {
		t.Fatalf("controller handled %d values while gated", got)
	}
	done := make(chan error, 1)
	go func() { done <- h.Undeploy("relay") }()
	waitUntil(t, "the undeploy to begin", func() bool { _, live := h.App("relay"); return !live })
	openGate()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st, bs := rt.Stats(), h.Stats().Bus
	if got := ctrl.n.Load(); got != deliveries*rows || st.ControllerTriggers != deliveries*rows {
		t.Fatalf("controller handled %d values (%d triggers), want %d", got, st.ControllerTriggers, deliveries*rows)
	}
	// A's and B's topics carry every value once; A's has two subscribers
	// (B, N). The readings reach A without the bus.
	if bs.Published != 2*deliveries*rows || bs.Delivered != 3*deliveries*rows {
		t.Fatalf("bus published %d (want %d), delivered %d (want %d)",
			bs.Published, 2*deliveries*rows, bs.Delivered, 3*deliveries*rows)
	}
}

// chainDesign is a context chain whose downstream context sorts before its
// upstream: Meter → Zed → Mid → Alpha.
const chainDesign = `
device Meter { source level as Integer; }

context Zed as Integer {
	when provided level from Meter
	always publish;
}

context Mid as Integer {
	when provided Zed
	always publish;
}

context Alpha as Integer {
	when provided Mid
	no publish;
}
`

// TestStopDrainsChainWhoseDownstreamSortsFirst: every value queued in a
// context chain when its app stops reaches the end of the chain, whatever
// order the contexts sort in. Mid is parked with Zed's 20 publications
// queued behind it when the stop begins. Cancelling the app's subscriptions
// one at a time in wiring (alphabetical) order removed Alpha's first, so
// Mid's drain published into a topic with no subscriber and, uncounted,
// Alpha saw 0 of 20. The stop now waits for the app's own bus to go idle
// before closing it. See it on a checkout from before that change:
//
//	go test -race -run TestStopDrainsChainWhoseDownstreamSortsFirst ./internal/runtime/
func TestStopDrainsChainWhoseDownstreamSortsFirst(t *testing.T) {
	model, err := dsl.Load(chainDesign)
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []string{"Host.Undeploy", "Runtime.Stop", "Host.Close"} {
		t.Run(stop, func(t *testing.T) {
			gate := make(chan struct{})
			openGate := sync.OnceFunc(func() { close(gate) })
			defer openGate() // a failed check must not leave Mid parked
			zed, mid, alpha := &recHandler{}, &recHandler{gate: gate}, &recHandler{}
			contexts := map[string]ContextHandler{"Zed": zed, "Mid": mid, "Alpha": alpha}

			var rt *Runtime
			var stopApp func() error
			if stop == "Runtime.Stop" {
				rt = New(model)
				defer rt.Stop()
				for name, h := range contexts {
					if err := rt.ImplementContext(name, h); err != nil {
						t.Fatal(err)
					}
				}
				if err := rt.Start(); err != nil {
					t.Fatal(err)
				}
				stopApp = func() error { rt.Stop(); return nil }
			} else {
				h, err := NewHost(SubstrateConfig{})
				if err != nil {
					t.Fatal(err)
				}
				defer h.Close()
				if rt, err = h.Deploy("chain", model, AppConfig{Contexts: contexts}); err != nil {
					t.Fatal(err)
				}
				stopApp = func() error { return h.Undeploy("chain") }
				if stop == "Host.Close" {
					stopApp = func() error { h.Close(); return nil }
				}
			}

			const readings = 20
			at := time.Unix(1000, 0)
			for i := 0; i < readings; i++ {
				b := device.NewReadingBatch()
				b.Append(device.Reading{DeviceID: "m1", Source: "level", Value: int64(i), Time: at})
				deliverReadings(t, rt, "Meter", "level", b)
				b.Release()
			}
			waitUntil(t, "Zed to publish every reading", func() bool { return rt.Stats().ContextPublishes == readings })

			done := make(chan error, 1)
			go func() { done <- stopApp() }()
			waitUntil(t, "the stop to begin", func() bool {
				rt.mu.Lock()
				defer rt.mu.Unlock()
				return rt.stopped
			})
			openGate()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			st := rt.Stats()
			if got := alpha.n.Load(); got != readings {
				t.Fatalf("Alpha saw %d of %d values (ContextTriggers %d, drops %d)", got, readings, st.ContextTriggers, st.Drops())
			}
			if st.ContextTriggers != 3*readings || st.Drops() != 0 {
				t.Fatalf("ContextTriggers %d (want %d), drops %d (want 0)", st.ContextTriggers, 3*readings, st.Drops())
			}
		})
	}
}

type gatedCtrl struct {
	gate chan struct{}
	n    atomic.Uint64
}

func (c *gatedCtrl) OnContext(*ControllerCall) error {
	<-c.gate
	c.n.Add(1)
	return nil
}

// TestInterpretedContextServesPullsOnlyWhenRequired: the interpreted context
// keeps its last value — and pays the lock for it — only when the design
// declares `when required`, which autoImplement resolves at Deploy time.
func TestInterpretedContextServesPullsOnlyWhenRequired(t *testing.T) {
	model, err := dsl.Load(`
device Meter { source level as Integer; source tick as Integer; }

context Level as Integer {
	when provided level from Meter
	no publish;

	when required;
}

context Probe as Integer {
	when provided tick from Meter
	get Level
	always publish;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	rt := New(model)
	defer rt.Stop()
	pull := func(call *ContextCall) (any, bool, error) {
		v, err := call.QueryContext("Level")
		return v, true, err
	}
	if err := rt.ImplementContext("Probe", triggerFunc(pull)); err != nil {
		t.Fatal(err)
	}
	if err := rt.autoImplement(model); err != nil {
		t.Fatal(err)
	}
	if lv := rt.contextHandler("Level").(*interpContext); !lv.required {
		t.Fatal("interpreted Level context not marked required")
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1000, 0)
	publish := func(source string, v int64) {
		b := device.NewReadingBatch()
		b.Append(device.Reading{DeviceID: "m1", Source: source, Value: v, Time: at})
		deliverReadings(t, rt, "Meter", source, b)
		b.Release()
	}
	publish("level", 42)
	waitUntil(t, "Level to see the reading", func() bool { return rt.Stats().ContextTriggers == 1 })
	publish("tick", 1)
	waitUntil(t, "Probe to publish", func() bool { return rt.Stats().ContextPublishes == 1 })
	if got, _ := rt.LastPublished("Probe"); got != int64(42) {
		t.Fatalf("Probe pulled %v from the interpreted Level context, want 42", got)
	}
}

type triggerFunc func(*ContextCall) (any, bool, error)

func (f triggerFunc) OnTrigger(call *ContextCall) (any, bool, error) { return f(call) }

// relayTenantDesign is one hot-deployed tenant of the relay invariant: its
// own sensor kind, an `always publish` context over it and a controller on
// that context, so every event pays the interpreted publication hop.
func relayTenantDesign(kind string) string {
	return fmt.Sprintf(`
device %[1]s { attribute lot as String; source presence as Boolean; }
device %[1]sDisplay { action show(value as Boolean); }
context Relay as Boolean {
	when provided presence from %[1]s
	always publish;
}
controller Sink {
	when provided Relay
	do show on %[1]sDisplay;
}
`, kind)
}

// TestInterpretedRelayAllocsIndependentOfFleet pins the publication hop of
// AutoImplement apps: each tenant relays its own sensors' readings through
// an interpreted context to a controller, and a steady-state burst
// allocates at most stormAllocsPerEvent per relayed event, with 4 tenants
// and with 32 on one host.
func TestInterpretedRelayAllocsIndependentOfFleet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const sensorsPer = 250
	open := make(chan struct{}) // a gatedCtrl behind an open gate only counts
	close(open)
	for _, tenants := range []int{4, 32} {
		vc := simclock.NewVirtual(hostEpoch)
		h, err := NewHost(SubstrateConfig{Clock: vc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		sink := &gatedCtrl{gate: open}
		swarms := make([]*devsim.Swarm, tenants)
		for i := range swarms {
			id := fmt.Sprintf("t%d", i)
			kind := "Sensor_" + id
			if _, err := h.DeploySource(id, relayTenantDesign(kind), AppConfig{
				AutoImplement: true,
				Controllers:   map[string]ControllerHandler{"Sink": sink},
			}); err != nil {
				t.Fatal(err)
			}
			swarms[i] = devsim.NewSwarm(devsim.SwarmConfig{
				Sensors: sensorsPer, Lots: []string{id}, Kind: kind, GroupAttr: "lot", Seed: int64(i + 1),
			}, vc)
			for _, s := range swarms[i].Sensors() {
				if err := h.BindDevice(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, swarm := range swarms {
			waitUntil(t, "attach", func() bool { return swarm.AttachedCount() == sensorsPer })
		}
		var accepted uint64
		burst := func() {
			for _, swarm := range swarms {
				accepted += uint64(swarm.FlipBurst(sensorsPer))
			}
			for deadline := time.Now().Add(10 * time.Second); sink.n.Load() != accepted; {
				if time.Now().After(deadline) {
					t.Fatalf("controllers saw %d of %d relayed events", sink.n.Load(), accepted)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
		burst() // warm shard buffers and the reading and value batch pools
		perEvent := testing.AllocsPerRun(10, burst) / float64(tenants*sensorsPer)
		t.Logf("%d tenants × %d sensors: %.4f allocs per relayed event", tenants, sensorsPer, perEvent)
		if perEvent > stormAllocsPerEvent {
			t.Errorf("%d tenants: %.4f allocs per relayed event, want <= %v", tenants, perEvent, stormAllocsPerEvent)
		}
	}
}

// heapPerRelayAppBound bounds the heap one more idle interpreted relay app
// holds on a Host: relayTenantDesign, configured as the tenants.hot
// benchmark deploys its tenants. An idle bus subscription holds no queue,
// so the app costs its wiring (~9 KB); one bus queue preallocated at
// a 1024-event bound would cost 40 KB on its own.
const heapPerRelayAppBound = 32 << 10

// relayAppGoroutines is what one relay app runs while idle: its ingest
// flush worker, which also runs the Relay context, its source tracker's
// watcher loop, and the bus drain of the Sink controller's subscription.
const relayAppGoroutines = 3

// TestHeapPerRelayApp pins the fixed cost of an app at the home end of the
// continuum: the marginal heap after GC and the goroutines of the 2nd to
// 64th interpreted relay app on one Host.
func TestHeapPerRelayApp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	const apps = 64
	h, err := NewHost(SubstrateConfig{Clock: simclock.NewVirtual(hostEpoch)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	open := make(chan struct{})
	close(open)
	sink := &gatedCtrl{gate: open}
	deploy := func(i int) {
		id := fmt.Sprintf("t%d", i)
		if _, err := h.DeploySource(id, relayTenantDesign("Sensor_"+id), AppConfig{
			AutoImplement: true,
			Controllers:   map[string]ControllerHandler{"Sink": sink},
			Ingest:        IngestConfig{Shards: 2},
		}); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() int64 {
		var ms goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	deploy(0)
	g0, h0 := settledGoroutines(), heap()
	for i := 1; i < apps; i++ {
		deploy(i)
	}
	g1, h1 := settledGoroutines(), heap()
	perApp := float64(h1-h0) / (apps - 1)
	t.Logf("apps 2-%d: %.0f B of heap and %d goroutines per app", apps, perApp, (g1-g0)/(apps-1))
	if perApp > heapPerRelayAppBound {
		t.Errorf("%.0f B of heap per relay app, want <= %d", perApp, heapPerRelayAppBound)
	}
	if g1-g0 != relayAppGoroutines*(apps-1) {
		t.Errorf("%d goroutines for %d apps, want %d per app", g1-g0, apps-1, relayAppGoroutines)
	}
}
