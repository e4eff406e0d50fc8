package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/dsl/check"
	"repro/internal/eventbus"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// This file is the host: the one owner of substrate state. N independently
// authored DiaSpec apps share its registry, device fleet and store, each
// with its own event bus, qos budgets, pollers and stats. The paper's
// premise is one orchestration app over a sensor fleet (runtime.New: a
// private host with one app); the ROADMAP north star
// ("millions of users") means thousands of such apps sharing the fleet
// (NewHost + Deploy) — the same code serves both.

// Typed deploy errors. Callers branch with errors.Is.
var (
	// ErrAppExists reports a Deploy under an app ID already deployed.
	ErrAppExists = errors.New("app already deployed")
	// ErrCheckFailed reports a design that failed to parse, check, or bind
	// (including missing or mistyped handler implementations).
	ErrCheckFailed = errors.New("design check failed")
	// ErrDraining reports a Deploy against an app ID still tearing down, or
	// against a host that is closing.
	ErrDraining = errors.New("draining")
	// ErrUnknownApp reports an Undeploy of an app ID never deployed.
	ErrUnknownApp = errors.New("unknown app")
)

// SubstrateConfig configures the shared infrastructure of a Host — what all
// tenants see: the time source, durability, and the substrate-level error
// sink. The host creates and owns the entity registry. App-level tunables
// live in AppConfig.
type SubstrateConfig struct {
	// Clock is the time source. Default: real time.
	Clock simclock.Clock
	// PersistDir attaches a write-ahead log + snapshot store rooted there;
	// NewHost recovers the previous incarnation's fleet, generations and
	// per-app aggregate checkpoints from it.
	PersistDir string
	// PersistOpts tunes the store; its failures also reach OnError and
	// HostStats.Errors as component "persist".
	PersistOpts persist.Options
	// OnError receives substrate-level failures and every hosted app's
	// component errors that the app does not sink itself
	// (AppConfig.OnError overrides per app).
	OnError func(ComponentError)
	// MetricsAddr, when non-empty, starts a Prometheus text-exposition
	// endpoint on that address ("127.0.0.1:0" for an ephemeral port)
	// serving the host's FleetStats; see Host.MetricsAddr for the bound
	// address.
	MetricsAddr string
	// DrainTimeout bounds how long Drain waits for the ingestion pipelines
	// to flush before reporting an unclean drain. Zero selects 30s.
	DrainTimeout time.Duration
}

// AppConfig configures one deployed app — the per-tenant half of the split:
// handlers, ingestion qos and poll-pool tunables. Every zero
// field selects its default, so AppConfig{AutoImplement: true} deploys any
// checked design.
type AppConfig struct {
	// Contexts and Controllers install the app's component
	// implementations by declared name.
	Contexts    map[string]ContextHandler
	Controllers map[string]ControllerHandler
	// AutoImplement fills every declared component left unimplemented
	// with the interpreted dispatch path (interp.go), making deploy cheap:
	// a bare .diaspec design runs without generated or hand-written code.
	AutoImplement bool
	// Ingest tunes the app's event-ingestion pipelines (shards, batching,
	// in-flight budget, deadline). The budget is per tenant: a noisy app
	// exhausts only its own admission, never another tenant's.
	Ingest IngestConfig
	// PollWorkers bounds each periodic poller's query pool. Zero or
	// negative selects the default.
	PollWorkers int
	// OnError sinks this app's component errors, overriding the
	// substrate's OnError.
	OnError func(ComponentError)
}

// Host runs N independent DiaSpec apps over one shared substrate. Deploy
// and Undeploy are safe under live traffic: each tenant owns its event bus
// and its qos budgets, so installing or draining one app never drops
// another app's events.
type Host struct {
	clock   simclock.Clock
	reg     *registry.Registry
	fleet   *deviceTable
	onError func(ComponentError)

	store *persist.Store

	mu         sync.Mutex
	apps       map[string]*Runtime // nil value = Deploy in flight (slot reserved)
	undeploys  map[string]*Runtime // Undeploy in flight
	closed     bool
	gauges     map[string]func() map[string]uint64
	peerSource func() []transport.PeerStatusRecord
	// declApps lists, per device kind, the live apps whose design declares
	// it, earliest deployed first: the first one's declaration is the kind's.
	declApps map[string][]*Runtime
	// aggRestore holds the recovered aggregate checkpoints, keyed by
	// aggSnapKey. Every snapshot carries them forward, so an app that is
	// not redeployed yet keeps its checkpoint; Undeploy drops the app's.
	aggRestore map[string][]byte
	// retiredBus sums the final bus counts of apps no longer deployed, so
	// HostStats.Bus never goes down when an app leaves.
	retiredBus eventbus.Stats

	// Operations plane (see ops.go): the drain flag closes event admission
	// host-wide, drainTimeout bounds the flush wait, and metricsSrv is the
	// opt-in Prometheus endpoint.
	draining     atomic.Bool
	drainTimeout time.Duration
	metricsSrv   *metrics.Server

	fedUnrouted atomic.Uint64 // forwarded readings no app consumed
	errs        atomic.Uint64
}

// NewHost creates a host from substrate configuration. With PersistDir set
// it recovers the previous incarnation's registry and per-app aggregate
// checkpoints before any app deploys.
func NewHost(cfg SubstrateConfig) (*Host, error) {
	h := &Host{
		clock:     cfg.Clock,
		onError:   cfg.OnError,
		fleet:     newDeviceTable(),
		apps:      make(map[string]*Runtime),
		undeploys: make(map[string]*Runtime),
		declApps:  make(map[string][]*Runtime),
		gauges:    make(map[string]func() map[string]uint64),
	}
	if h.clock == nil {
		h.clock = simclock.Real{}
	}
	h.reg = registry.New()
	h.drainTimeout = cfg.DrainTimeout
	if h.drainTimeout <= 0 {
		h.drainTimeout = defaultDrainTimeout
	}
	if cfg.PersistDir != "" {
		if err := h.openPersistence(cfg.PersistDir, cfg.PersistOpts); err != nil {
			h.reg.Close()
			return nil, err
		}
	}
	if cfg.MetricsAddr != "" {
		srv, err := metrics.NewServer(cfg.MetricsAddr, h.FleetStats)
		if err != nil {
			h.Close()
			return nil, err
		}
		h.metricsSrv = srv
	}
	return h, nil
}

// MetricsAddr returns the bound address of the Prometheus endpoint, or ""
// when SubstrateConfig.MetricsAddr was not set.
func (h *Host) MetricsAddr() string {
	if h.metricsSrv == nil {
		return ""
	}
	return h.metricsSrv.Addr()
}

// openPersistence opens (or recovers) the store before any app can observe
// the registry: restored registrations and generation sums are installed
// first, every subsequent mutation is journaled write-ahead, and the store's
// aggregate-checkpoint source contributes the recovered blobs (looked up by
// each app at wiring time under its aggSnapKey) overlaid by the live app
// set's captures.
func (h *Host) openPersistence(dir string, opts persist.Options) error {
	// Aggregate checkpoints gob-encode design values of interface type; the
	// wire codec's basic registrations cover the common shapes. Identical
	// re-registration is a no-op, so this composes with transport use.
	transport.RegisterType(time.Time{})
	transport.RegisterType([]any(nil))
	transport.RegisterType(map[string]any(nil))

	callerHook := opts.OnError
	opts.OnError = func(err error) {
		h.ReportError("persist", err)
		if callerHook != nil {
			callerHook(err)
		}
	}
	store, err := persist.Open(dir, opts)
	if err != nil {
		return fmt.Errorf("host: open persistence in %s: %w", dir, err)
	}
	if rec := store.Recovered(); rec != nil {
		for _, re := range rec.Entities {
			if err := h.reg.RestoreEntity(re.Entity); err != nil {
				// Only structurally invalid recovered data fails here; detach
				// without writing (a clean Close would snapshot the partially
				// restored registry over the good on-disk state).
				store.Crash()
				store.Close()
				return fmt.Errorf("host: restore entity %s: %w", re.Entity.ID, err)
			}
		}
		h.reg.RestoreGenerations(rec.GenAll, rec.Gens)
		h.aggRestore = rec.Aggs
	}
	h.store = store
	h.reg.SetJournal(store.Journal())
	store.SetRegistry(h.reg)
	store.AddSource(func(add func(key string, blob []byte)) {
		// Recovered checkpoints first: a live app's capture overwrites its
		// own by key, and an app not yet redeployed keeps its checkpoint.
		h.mu.Lock()
		for key, blob := range h.aggRestore {
			add(key, blob)
		}
		h.mu.Unlock()
		for _, rt := range h.snapshotApps() {
			rt.captureAggCheckpoints(add)
		}
	})
	return nil
}

// validAppID rejects the empty ID and IDs holding a reserved character:
// agg snapshot keys join on NUL, and '/' stays reserved for names built
// from an app ID.
func validAppID(id string) error {
	if id == "" {
		return fmt.Errorf("host: empty app ID: %w", ErrCheckFailed)
	}
	if strings.ContainsAny(id, "/\x00") {
		return fmt.Errorf("host: app ID %q contains a reserved character: %w", id, ErrCheckFailed)
	}
	return nil
}

// Deploy checks appID, binds the model's interactions into the live
// substrate on the app's own bus and under its own qos budgets, and
// starts the app. It is safe under live traffic: existing apps' deliveries
// are untouched (their subscriptions, budgets and pollers are disjoint by
// construction). The returned Runtime is the app's handle — its Stats,
// LastPublished and Implement* surface work exactly as in single-tenant
// use.
func (h *Host) Deploy(appID string, model *check.Model, cfg AppConfig) (*Runtime, error) {
	if err := validAppID(appID); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("host: deploy %s: nil model: %w", appID, ErrCheckFailed)
	}
	if h.draining.Load() {
		return nil, fmt.Errorf("host: deploy %s: host draining: %w", appID, ErrDraining)
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, fmt.Errorf("host: deploy %s: host closing: %w", appID, ErrDraining)
	}
	if h.undeploys[appID] != nil {
		h.mu.Unlock()
		return nil, fmt.Errorf("host: deploy %s: %w", appID, ErrDraining)
	}
	if _, ok := h.apps[appID]; ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("host: deploy %s: %w", appID, ErrAppExists)
	}
	// Reserve the slot with a placeholder so a concurrent Deploy of the
	// same ID fails fast while this one wires without holding h.mu.
	h.apps[appID] = nil
	h.mu.Unlock()

	rt := h.attach(appID, model, cfg)
	fail := func(err error) (*Runtime, error) {
		h.mu.Lock()
		delete(h.apps, appID)
		h.retireBusLocked(rt)
		h.mu.Unlock()
		return nil, err
	}
	for name, ch := range cfg.Contexts {
		if err := rt.ImplementContext(name, ch); err != nil {
			return fail(fmt.Errorf("host: deploy %s: %v: %w", appID, err, ErrCheckFailed))
		}
	}
	for name, ch := range cfg.Controllers {
		if err := rt.ImplementController(name, ch); err != nil {
			return fail(fmt.Errorf("host: deploy %s: %v: %w", appID, err, ErrCheckFailed))
		}
	}
	if cfg.AutoImplement {
		if err := rt.autoImplement(model); err != nil {
			return fail(fmt.Errorf("host: deploy %s: %v: %w", appID, err, ErrCheckFailed))
		}
	}
	if err := rt.Start(); err != nil {
		rt.stopApp()
		return fail(fmt.Errorf("host: deploy %s: %v: %w", appID, err, ErrCheckFailed))
	}

	h.mu.Lock()
	if h.closed {
		// Close ran between the reservation and here; it skipped the
		// placeholder, so this app must tear itself down.
		h.mu.Unlock()
		rt.stopApp()
		return fail(fmt.Errorf("host: deploy %s: host closing: %w", appID, ErrDraining))
	}
	h.goLiveLocked(appID, rt)
	h.mu.Unlock()
	return rt, nil
}

// goLiveLocked installs rt as appID's live app, its device declarations
// behind those of every app deployed before it. Callers hold h.mu.
func (h *Host) goLiveLocked(appID string, rt *Runtime) {
	h.apps[appID] = rt
	for kind := range rt.model.Devices {
		h.declApps[kind] = append(h.declApps[kind], rt)
	}
}

// retireBusLocked folds a stopped app's final bus counts into the host's
// totals. Callers hold h.mu.
func (h *Host) retireBusLocked(rt *Runtime) {
	h.retiredBus = addBusStats(h.retiredBus, rt.bus.Stats())
}

func addBusStats(a, b eventbus.Stats) eventbus.Stats {
	return eventbus.Stats{Published: a.Published + b.Published, Delivered: a.Delivered + b.Delivered}
}

// retireLocked removes appID's live app rt and its device declarations.
// Callers hold h.mu.
func (h *Host) retireLocked(appID string, rt *Runtime) {
	delete(h.apps, appID)
	for kind := range rt.model.Devices {
		apps := slices.DeleteFunc(h.declApps[kind], func(app *Runtime) bool { return app == rt })
		if len(apps) == 0 {
			delete(h.declApps, kind)
		} else {
			h.declApps[kind] = apps
		}
	}
}

// attach builds appID's Runtime over this host's substrate — the first half
// of Deploy, and all of what runtime.New does before returning: the app can
// take Implement* and BindDevice calls, and Start wires it onto a bus of its
// own. The empty appID is New's: see aggSnapKey, a one-app host's checkpoint
// keys carry no tenant namespace.
func (h *Host) attach(appID string, model *check.Model, cfg AppConfig) *Runtime {
	rt := &Runtime{
		model:       model,
		appID:       appID,
		host:        h,
		clock:       h.clock,
		reg:         h.reg,
		bus:         eventbus.New(),
		fleet:       h.fleet,
		ingestCfg:   cfg.Ingest,
		pollWorkers: cfg.PollWorkers,
		onError:     cfg.OnError,
		contexts:    make(map[string]ContextHandler),
		controllers: make(map[string]ControllerHandler),
		clients:     make(map[string]*transport.Client),
		ingestByKey: make(map[string][]*ingestor),
		aggByKey:    make(map[string][]*provAgg),
	}
	if rt.onError == nil {
		rt.onError = h.onError
	}
	if rt.pollWorkers <= 0 {
		// A zero-worker pool would hang the first non-empty round (no
		// worker ever closes it); fall back to the default instead.
		rt.pollWorkers = defaultPollWorkers
	}
	rt.refreshHandlersLocked() // nothing shared yet: no lock needed
	return rt
}

// DeploySource parses + checks a .diaspec design source and deploys it —
// the hot-deploy entry `diaspecc host deploy` ships a design file through.
func (h *Host) DeploySource(appID, source string, cfg AppConfig) (*Runtime, error) {
	model, err := dsl.Load(source)
	if err != nil {
		return nil, fmt.Errorf("host: deploy %s: %v: %w", appID, err, ErrCheckFailed)
	}
	return h.Deploy(appID, model, cfg)
}

// Undeploy drains one app out of the live host: its pollers and ingestion
// pipelines stop, then its own bus runs idle before it closes, so every
// value the app published is delivered (delivered+dropped accounting stays
// exact through the teardown), and the shared substrate is untouched. The
// ID is redeployable as soon as Undeploy returns.
func (h *Host) Undeploy(appID string) error {
	h.mu.Lock()
	rt, ok := h.apps[appID]
	if !ok || rt == nil {
		h.mu.Unlock()
		return fmt.Errorf("host: undeploy %s: %w", appID, ErrUnknownApp)
	}
	h.retireLocked(appID, rt)
	h.undeploys[appID] = rt
	prefix := appID + "\x00"
	for key := range h.aggRestore {
		if strings.HasPrefix(key, prefix) {
			delete(h.aggRestore, key)
		}
	}
	h.mu.Unlock()
	rt.stopApp()
	h.mu.Lock()
	delete(h.undeploys, appID)
	h.retireBusLocked(rt)
	h.mu.Unlock()
	return nil
}

// App returns the handle of one deployed app.
func (h *Host) App(appID string) (*Runtime, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rt, ok := h.apps[appID]
	if rt == nil {
		return nil, false
	}
	return rt, ok
}

// Apps returns the deployed app IDs, sorted.
func (h *Host) Apps() []string {
	h.mu.Lock()
	ids := make([]string, 0, len(h.apps))
	for id, rt := range h.apps {
		if rt != nil {
			ids = append(ids, id)
		}
	}
	h.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// snapshotApps returns the live app handles (in-flight deploys excluded).
func (h *Host) snapshotApps() []*Runtime {
	h.mu.Lock()
	defer h.mu.Unlock()
	apps := make([]*Runtime, 0, len(h.apps))
	for _, rt := range h.apps {
		if rt != nil {
			apps = append(apps, rt)
		}
	}
	return apps
}

// Registry returns the shared entity registry.
func (h *Host) Registry() *registry.Registry { return h.reg }

// Persistence returns the substrate store, nil without PersistDir.
func (h *Host) Persistence() *persist.Store { return h.store }

// Clock returns the substrate time source.
func (h *Host) Clock() simclock.Clock { return h.clock }

// BindDevice binds a local driver into the shared fleet and registers it
// for discovery, validating it against the attached app designs: some app
// must declare the device kind, and the earliest-deployed live one that does
// supplies the kind taxonomy and the attribute set. One binding serves every
// tenant — that is the "N apps, one fleet" model. Binding may happen before
// or after the apps start (the paper's runtime binding).
func (h *Host) BindDevice(drv device.Driver) error {
	decl := h.kindDecl(drv.Kind())
	if decl == nil {
		return fmt.Errorf("host: device kind %s not declared by any deployed app", drv.Kind())
	}
	for name := range drv.Attributes() {
		if _, ok := decl.Attributes[name]; !ok {
			return fmt.Errorf("host: device %s has undeclared attribute %s", drv.ID(), name)
		}
	}
	// The driver is installed before Register so that watchers reacting to
	// the Added notification resolve it locally — but rolled back if the
	// registration fails, so a failed re-bind never leaves the device table
	// disagreeing with the registry (poll snapshots cache resolved drivers
	// and rebuild only on registry change).
	prev, had := h.fleet.install(drv)
	entity := registry.Entity{
		ID:    registry.ID(drv.ID()),
		Kind:  drv.Kind(),
		Kinds: decl.Kinds(),
		Attrs: drv.Attributes(),
		Bound: registry.BindRuntime,
	}
	register := h.reg.Register
	if h.store != nil {
		// A reborn node re-binds drivers for registrations recovered from
		// disk: Reclaim re-attaches without a duplicate error — and without
		// bumping generations when the content is unchanged, so federation
		// peers see no delta from a clean restart.
		register = h.reg.Reclaim
	}
	if err := register(entity); err != nil {
		h.fleet.rollback(drv.ID(), prev, had)
		return fmt.Errorf("host: bind device %s: %w", drv.ID(), err)
	}
	return nil
}

// kindDecl returns the declaration of kind in the earliest-deployed live app
// that declares it, or nil if none does.
func (h *Host) kindDecl(kind string) *check.Device {
	h.mu.Lock()
	defer h.mu.Unlock()
	if apps := h.declApps[kind]; len(apps) > 0 {
		return apps[0].model.Devices[kind]
	}
	return nil
}

// UnbindDevice removes a device from the registry and the shared fleet. The
// registry entry goes first so no snapshot rebuild can observe a registered
// entity whose local driver is already gone.
func (h *Host) UnbindDevice(id string) error {
	err := h.reg.Unregister(registry.ID(id))
	h.fleet.remove(id)
	return err
}

// LocalDriver returns the locally bound driver for id, if any. Part of the
// federation Endpoint surface.
func (h *Host) LocalDriver(id string) (device.Driver, bool) {
	return h.fleet.get(id)
}

// ReportError feeds a substrate-level failure into the host's accounting.
// Part of the federation Endpoint surface.
func (h *Host) ReportError(component string, err error) {
	h.errs.Add(1)
	if handler := h.onError; handler != nil {
		handler(ComponentError{Component: component, Err: err, Time: h.clock.Now()})
	}
}

// RemoteIngest routes a peer-forwarded reading batch to every app that
// consumes the (kind, source) interaction — per-app routing, so a
// non-consuming tenant is never charged a federation drop for another
// tenant's traffic. Returns the minimum admitted across consumers (the
// conservative wire answer); batches no app consumes count against the
// host's unrouted gauge. Part of the federation Endpoint surface.
func (h *Host) RemoteIngest(kind, source string, stream uint64, readings []device.Reading) int {
	if len(readings) == 0 {
		return 0
	}
	minAdmitted := -1
	for _, rt := range h.snapshotApps() {
		if !rt.consumesIngest(kind, source) {
			continue
		}
		n := rt.RemoteIngest(kind, source, stream, readings)
		if minAdmitted < 0 || n < minAdmitted {
			minAdmitted = n
		}
	}
	if minAdmitted < 0 {
		h.fedUnrouted.Add(uint64(len(readings)))
		return 0
	}
	return minAdmitted
}

// RemoteAggregate routes peer partial aggregates to every app with a
// combinable engine for the (kind, source) interaction; unrouted calls are
// side-effect free per app, so blanket fan-out is exact. Part of the
// federation Endpoint surface.
func (h *Host) RemoteAggregate(kind, source, origin string, partials []transport.GroupPartial) int {
	applied := 0
	for _, rt := range h.snapshotApps() {
		applied += rt.RemoteAggregate(kind, source, origin, partials)
	}
	return applied
}

// HostStats is the typed cross-tenant snapshot: per-app runtime counters,
// the apps' bus totals, host-level gauges, and any externally registered
// gauge sources (the federation tier registers its sync gauges here).
type HostStats struct {
	// Apps maps deployed app ID to that app's counter snapshot.
	Apps map[string]Stats
	// Bus sums every app's bus counters, read at snapshot time: the live
	// and undeploying apps' buses plus the final counts of apps already
	// gone, so it never goes down.
	Bus eventbus.Stats
	// UnroutedFederationDrops counts peer-forwarded readings no deployed
	// app consumed.
	UnroutedFederationDrops uint64
	// Errors counts substrate-level failures reported through the host.
	Errors uint64
	// Gauges holds the snapshots of registered gauge sources by name.
	Gauges map[string]map[string]uint64
}

// Stats returns a consistent-enough snapshot of every tenant: counters are
// atomics, so no app's dispatch path contends with the read.
func (h *Host) Stats() HostStats {
	h.mu.Lock()
	apps := make(map[string]*Runtime, len(h.apps))
	bus := h.retiredBus
	for id, rt := range h.apps {
		if rt != nil {
			apps[id] = rt
			bus = addBusStats(bus, rt.bus.Stats())
		}
	}
	for _, rt := range h.undeploys {
		bus = addBusStats(bus, rt.bus.Stats())
	}
	gauges := make(map[string]func() map[string]uint64, len(h.gauges))
	for name, fn := range h.gauges {
		gauges[name] = fn
	}
	h.mu.Unlock()
	st := HostStats{
		Apps:                    make(map[string]Stats, len(apps)),
		Bus:                     bus,
		UnroutedFederationDrops: h.fedUnrouted.Load(),
		Errors:                  h.errs.Load(),
		Gauges:                  make(map[string]map[string]uint64, len(gauges)),
	}
	for id, rt := range apps {
		st.Apps[id] = rt.Stats()
	}
	for name, fn := range gauges {
		st.Gauges[name] = fn()
	}
	return st
}

// AddGauges registers a named gauge source sampled by every Stats call —
// the hook cooperating tiers (federation sync, transport servers) use to
// surface their counters in the host snapshot without an import cycle.
func (h *Host) AddGauges(name string, fn func() map[string]uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gauges[name] = fn
}

// Close drains every app and seals the substrate: store (final snapshot)
// and registry. Idempotent.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	if h.metricsSrv != nil {
		_ = h.metricsSrv.Close()
	}
	apps := make([]*Runtime, 0, len(h.apps))
	for _, rt := range h.apps {
		if rt != nil {
			apps = append(apps, rt)
		}
	}
	h.mu.Unlock()
	for _, rt := range apps {
		rt.stopApp()
	}
	// The store seals with a final snapshot (after a Crash hook fired it
	// writes nothing: the directory stays as the crash instant left it).
	// That snapshot captures the registry, so the store seals before the
	// registry closes, and its agg-checkpoint source iterates the attached
	// apps, so h.apps must stay populated (and the stopped runtimes must
	// keep their engine state) until Close returns.
	if h.store != nil {
		if err := h.store.Close(); err != nil && err != persist.ErrClosed && err != persist.ErrCrashed {
			h.ReportError("persist", err)
		}
	}
	h.reg.Close()
	h.mu.Lock()
	for _, rt := range h.apps {
		if rt != nil {
			h.retireBusLocked(rt)
		}
	}
	h.apps = make(map[string]*Runtime)
	clear(h.declApps)
	h.mu.Unlock()
}

// Admin adapts the host to the transport admin plane: install it with
// transport.Server.ServeAdmin and the host answers the `diaspecc host`
// deploy/list/stats/remove wire ops. Remote deploys run the interpreted
// dispatch path (AutoImplement), which is what makes hot deploy of a bare
// .diaspec file possible.
func (h *Host) Admin() transport.AdminHandler { return hostAdmin{h} }

type hostAdmin struct{ h *Host }

// DeployApp implements the host_deploy admin op: hot-deploy a design
// source with interpreted handlers.
func (a hostAdmin) DeployApp(appID, design string) error {
	_, err := a.h.DeploySource(appID, design, AppConfig{AutoImplement: true})
	return err
}

// RemoveApp implements the host_remove admin op.
func (a hostAdmin) RemoveApp(appID string) error { return a.h.Undeploy(appID) }

// ListApps implements the host_list admin op.
func (a hostAdmin) ListApps() []transport.HostAppInfo {
	infos := make([]transport.HostAppInfo, 0, 8)
	for _, id := range a.h.Apps() {
		rt, ok := a.h.App(id)
		if !ok {
			continue // undeployed between Apps() and here
		}
		infos = append(infos, transport.HostAppInfo{
			ID:          id,
			Contexts:    rt.model.ContextNames(),
			Controllers: rt.model.ControllerNames(),
		})
	}
	return infos
}

// AppStats implements the host_stats admin op: per-app counters sorted by
// app ID, then the host scope, then gauge sources.
func (a hostAdmin) AppStats() []transport.AppStatsRecord {
	st := a.h.Stats()
	ids := make([]string, 0, len(st.Apps))
	for id := range st.Apps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	recs := make([]transport.AppStatsRecord, 0, len(ids)+1+len(st.Gauges))
	for _, id := range ids {
		recs = append(recs, transport.AppStatsRecord{App: id, Counters: st.Apps[id].Counters()})
	}
	recs = append(recs, transport.AppStatsRecord{App: "host", Counters: hostCounters(st)})
	gnames := make([]string, 0, len(st.Gauges))
	for name := range st.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		recs = append(recs, transport.AppStatsRecord{App: name, Counters: st.Gauges[name]})
	}
	return recs
}
