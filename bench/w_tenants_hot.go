package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// tenantDesign is one tenant's app over its own device kind: an
// interpreted context republishes every stamp, a controller consumes it.
// The Integer source carries the due-time stamp, so the republished value
// still carries it to the benchmark's controller.
func tenantDesign(kind string) string {
	return fmt.Sprintf(`
device %[1]s {
	attribute zone as String;
	source stamp as Integer;
}

device %[1]sDisplay {
	action show(value as Integer);
}

context Relay as Integer {
	when provided stamp from %[1]s
	always publish;
}

controller Sink {
	when provided Relay
	do show on %[1]sDisplay;
}
`, kind)
}

// observerDesign rides on tenant 0's device kind: hot-deploying it makes a
// second app consume the already-bound devices.
func observerDesign(kind string) string {
	return fmt.Sprintf(`
device %[1]s {
	attribute zone as String;
	source stamp as Integer;
}

context Watch as Integer {
	when provided stamp from %[1]s
	no publish;
}
`, kind)
}

const hotDeployEvery = time.Second

// stampSensor is a benchmark-owned push device with one Integer source; the
// value it emits is the due-time stamp itself.
type stampSensor struct {
	id, kind, zone string

	mu       sync.Mutex
	sinks    atomic.Pointer[[]device.Sink]
	attached *atomic.Int64 // sensors of the fleet with at least one sink
}

func (s *stampSensor) ID() string      { return s.id }
func (s *stampSensor) Kind() string    { return s.kind }
func (s *stampSensor) Kinds() []string { return []string{s.kind} }
func (s *stampSensor) Attributes() registry.Attributes {
	return registry.Attributes{"zone": s.zone}
}
func (s *stampSensor) Query(string) (any, error) { return int64(0), nil }
func (s *stampSensor) Subscribe(string) (device.Subscription, error) {
	return nil, errors.New("stamp sensors are push-only")
}
func (s *stampSensor) Invoke(action string, _ ...any) error {
	return fmt.Errorf("%w: %s.%s", device.ErrUnknownAction, s.id, action)
}

// SubscribePush implements device.PushSubscriber with a copy-on-write sink
// list, so emission takes no lock.
func (s *stampSensor) SubscribePush(source string, sink device.Sink) (func(), error) {
	if source != "stamp" {
		return nil, fmt.Errorf("%w: %s.%s", device.ErrUnknownSource, s.id, source)
	}
	s.mu.Lock()
	var next []device.Sink
	if cur := s.sinks.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, sink)
	s.sinks.Store(&next)
	if len(next) == 1 {
		s.attached.Add(1)
	}
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			cur := *s.sinks.Load()
			kept := make([]device.Sink, 0, len(cur))
			for _, k := range cur {
				if k != sink {
					kept = append(kept, k)
				}
			}
			s.sinks.Store(&kept)
			if len(kept) == 0 {
				s.attached.Add(-1)
			}
		})
	}, nil
}

// emit pushes one reading to every attached sink and reports whether there
// was one.
func (s *stampSensor) emit(value any, at time.Time) bool {
	sinks := s.sinks.Load()
	if sinks == nil || len(*sinks) == 0 {
		return false
	}
	r := device.Reading{DeviceID: s.id, Source: "stamp", Value: value, Time: at}
	for _, k := range *sinks {
		k.Push(r)
	}
	return true
}

// tenantSink is the benchmark-owned controller of one tenant: the far end
// of its design.
type tenantSink struct {
	n   atomic.Uint64
	rec *recorder
}

func (t *tenantSink) OnContext(call *runtime.ControllerCall) error {
	n := t.n.Add(1)
	if n%t.rec.every == 0 {
		stamp, ok := call.Value.(int64)
		if !ok {
			return fmt.Errorf("tenant controller got %T, want the int64 stamp", call.Value)
		}
		t.rec.observe(stamp)
	}
	return nil
}

type tenant struct {
	id, kind string
	rt       *runtime.Runtime
	sink     *tenantSink
	accepted uint64
}

// tenantsHot is the tenants.hot world.
type tenantsHot struct {
	e        *env
	host     *runtime.Host
	tenants  []*tenant
	sensors  []*stampSensor // seeded emission order over all tenants' sensors
	owner    []int          // owner[i] is the tenant of sensors[i]
	pos      int
	attached atomic.Int64

	nextDeploy time.Time
	deploys    int
	observer   string // the observer app currently deployed
	base       runtime.HostStats
}

func buildTenantsHot(e *env) (world, error) {
	w := &tenantsHot{e: e}
	var err error
	if w.host, err = runtime.NewHost(runtime.SubstrateConfig{Clock: simclock.Real{}}); err != nil {
		return nil, err
	}
	nT := e.size.tenants
	per := e.size.fleet / nT
	err = e.setup("dsl.deploy.setup", func() error {
		for i := 0; i < nT; i++ {
			tn := &tenant{id: fmt.Sprintf("t%d", i), kind: fmt.Sprintf("Meter_t%d", i), sink: &tenantSink{rec: e.rec}}
			tn.rt, err = w.host.DeploySource(tn.id, tenantDesign(tn.kind), runtime.AppConfig{
				AutoImplement: true,
				Controllers:   map[string]runtime.ControllerHandler{"Sink": tn.sink},
				Ingest:        runtime.IngestConfig{Shards: 2},
			})
			if err != nil {
				return err
			}
			w.tenants = append(w.tenants, tn)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Tenant assignment is seeded: sensor slot i of the emission order
	// belongs to tenant owner[i], every tenant owning the same number.
	w.owner = make([]int, nT*per)
	for i := range w.owner {
		w.owner[i] = i % nT
	}
	e.rng.Shuffle(len(w.owner), func(i, j int) { w.owner[i], w.owner[j] = w.owner[j], w.owner[i] })
	w.sensors = make([]*stampSensor, len(w.owner))
	for i, t := range w.owner {
		tn := w.tenants[t]
		w.sensors[i] = &stampSensor{
			id: fmt.Sprintf("%s-m%05d", tn.id, i), kind: tn.kind, zone: fmt.Sprintf("z%d", i%4),
			attached: &w.attached,
		}
	}
	err = e.setup("registry.bind", func() error {
		for _, s := range w.sensors {
			if err := w.host.BindDevice(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(stallLimit); w.attached.Load() != int64(len(w.sensors)); {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("only %d of %d sensors attached", w.attached.Load(), len(w.sensors))
		}
		time.Sleep(200 * time.Microsecond)
	}
	w.nextDeploy = time.Now().Add(hotDeployEvery)
	return w, nil
}

// emit pushes the next n sensors of the seeded order, all stamped with the
// due time (boxed once per call).
func (w *tenantsHot) emit(n int) {
	at := w.e.clock.Now()
	var stamp any = at.UnixNano()
	for i := 0; i < n; i++ {
		if w.sensors[w.pos].emit(stamp, at) {
			w.tenants[w.owner[w.pos]].accepted++
		}
		if w.pos++; w.pos == len(w.sensors) {
			w.pos = 0
		}
	}
}

// hotDeployIfDue swaps the observer app once a second, under live traffic:
// parse + check + bind of a fresh app on tenant 0's kind, then undeploy of
// the previous one.
func (w *tenantsHot) hotDeployIfDue(parent int, op int64) error {
	if time.Now().Before(w.nextDeploy) {
		return nil
	}
	w.nextDeploy = w.nextDeploy.Add(hotDeployEvery)
	w.deploys++
	next := fmt.Sprintf("observer%d", w.deploys)
	return w.e.timed("dsl.deploy", parent, op, func() error {
		if _, err := w.host.DeploySource(next, observerDesign(w.tenants[0].kind), runtime.AppConfig{
			AutoImplement: true, Ingest: runtime.IngestConfig{Shards: 2},
		}); err != nil {
			return err
		}
		prev := w.observer
		w.observer = next
		if prev == "" {
			return nil
		}
		return w.host.Undeploy(prev)
	})
}

func (w *tenantsHot) burst(parent int, op int64) (int, error) {
	if err := w.hotDeployIfDue(parent, op); err != nil {
		return 0, err
	}
	n := len(w.sensors)
	start := time.Now()
	w.emit(n)
	w.e.admit(parent, op, start, time.Now(), n)
	return n, nil
}

func (w *tenantsHot) tick(n int, op int64) (int, error) {
	if err := w.hotDeployIfDue(0, op); err != nil {
		return 0, err
	}
	w.emit(n)
	return n, nil
}

func (w *tenantsHot) accepted() uint64 {
	var sum uint64
	for _, tn := range w.tenants {
		sum += tn.accepted
	}
	return sum
}

func (w *tenantsHot) delivered() uint64 {
	var sum uint64
	for _, tn := range w.tenants {
		sum += tn.sink.n.Load()
	}
	return sum
}

func (w *tenantsHot) dropped() uint64 {
	var sum uint64
	for _, tn := range w.tenants {
		sum += ingestDrops(tn.rt.Stats())
	}
	return sum + w.host.Stats().Bus.Dropped
}

func (w *tenantsHot) baseline() { w.base = w.host.Stats() }

// check holds every tenant to its own ground truth: what its sensors had
// accepted must have reached its controller or its own drop counters.
func (w *tenantsHot) check() error {
	for _, tn := range w.tenants {
		st := tn.rt.Stats()
		if err := exact("tenants.hot tenant "+tn.id, tn.sink.n.Load(), ingestDrops(st), tn.accepted); err != nil {
			return err
		}
		if st.Errors != 0 {
			return fmt.Errorf("tenants.hot tenant %s: %d component errors", tn.id, st.Errors)
		}
	}
	hs := w.host.Stats()
	if hs.Errors != 0 || hs.Bus.Dropped != 0 {
		return fmt.Errorf("tenants.hot: %d host errors, %d bus drops", hs.Errors, hs.Bus.Dropped)
	}
	want := len(w.tenants)
	if w.observer != "" {
		want++
	}
	if len(hs.Apps) != want {
		return fmt.Errorf("tenants.hot: %d apps deployed, want %d: the tenants and the current observer", len(hs.Apps), want)
	}
	return nil
}

func (w *tenantsHot) layers(m map[string]float64) error {
	e := w.e
	hs := w.host.Stats()
	var from, to runtime.Stats
	for _, tn := range w.tenants {
		a, b := w.base.Apps[tn.id], hs.Apps[tn.id]
		from.IngestEvents += a.IngestEvents
		from.IngestBatches += a.IngestBatches
		to.IngestEvents += b.IngestEvents
		to.IngestBatches += b.IngestBatches
	}
	ingestLayers(m, from, to)
	m["dsl.deploy_ms"] = e.medianMs("dsl.deploy")
	m["dsl.load_ms"] = probeDSLLoad(e, tenantDesign(w.tenants[0].kind))
	m["registry.bind_us"] = e.bindUs(len(w.sensors))
	m["registry.scan_ms"] = probeRegistryScan(e, w.host.Registry(), w.tenants[0].kind)
	m["eventbus.publish_ns_per_event"] = probeBusPublish(e, int(m["runtime.batch_size"]), len(w.tenants))
	return nil
}

func (w *tenantsHot) close() { w.host.Close() }
