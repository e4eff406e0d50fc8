// Package runtime executes a checked DiaSpec design: it is the
// inversion-of-control engine behind the paper's generated programming
// frameworks (§V: "implementing a design is devoted to implementing the
// declared contexts and controllers of an application, which are then called
// as required by the runtime system").
//
// The runtime realizes the paper's four orchestration activities:
//
//   - binding: devices register into an attribute registry and are
//     (re)bound to subscriptions at runtime as they appear and disappear;
//   - delivering: event-driven triggers ride the event bus, periodic
//     triggers are driven by a clock-based poller that queries device
//     fleets, and query-driven pulls are served through ContextCall;
//   - processing: `grouped by` deliveries are partitioned per attribute
//     value by the incremental MapReduce engine, which also runs the
//     design's `with map … reduce …` lowering when declared;
//   - actuating: controllers receive context values and actuate devices
//     through discovery-filtered proxies restricted to the design's
//     `do … on …` set.
//
// SCC conformance is enforced both statically (internal/dsl/check) and
// dynamically: controllers have no API to publish or to pull contexts that
// the design does not route to them.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/dsl/check"
	"repro/internal/eventbus"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// ContextHandler is the SPI a context implementation provides. OnTrigger is
// invoked once per delivery (event, context publication, or periodic batch);
// the returned value is published to subscribers when publish is true (for
// `maybe publish` designs) or unconditionally for `always publish` designs.
type ContextHandler interface {
	OnTrigger(call *ContextCall) (value any, publish bool, err error)
}

// RequiredHandler is additionally implemented by contexts declaring
// `when required;` — the runtime serves `get <Context>` pulls through it.
type RequiredHandler interface {
	OnRequired(call *ContextCall) (any, error)
}

// ControllerHandler is the SPI a controller implementation provides.
// OnContext is invoked once per published value, serially per clause. The
// call is borrowed: it, and every ActuatorProxy obtained from it, is valid
// only until OnContext returns (see ControllerCall).
type ControllerHandler interface {
	OnContext(call *ControllerCall) error
}

// MapReducer is optionally implemented by context handlers whose design
// declares `with map … reduce …` (paper Figure 10). Keys are rendered
// attribute values (e.g. the parking lot); the runtime executes Map once per
// reading and Reduce over the per-group lists of the groups that changed.
type MapReducer interface {
	Map(key string, value any, emit func(key string, v any))
	Reduce(key string, values []any, emit func(key string, v any))
}

// Combiner is additionally implemented by MapReducer handlers whose reduce
// phase is an associative, commutative merge of partial aggregates (sum,
// count, min, max, …): Reduce over a value list must equal the
// Combine-fold of Reduce over its single-element sublists. The runtime's
// incremental aggregation then folds new contributions in O(1) instead of
// replaying the group's value list, and federation peers sync node-local
// per-group partials (agg_sync) instead of raw readings.
type Combiner interface {
	Combine(key string, a, b any) any
}

// Uncombiner is additionally implemented by Combiners whose merge is
// invertible (sum, count): Uncombine removes one previously combined
// partial. With it, updates and removals adjust a group's aggregate in
// O(1); without it a changed group re-folds its members' partials.
type Uncombiner interface {
	Uncombine(key string, acc, v any) any
}

// ComponentError reports a failure inside a component or device interaction.
type ComponentError struct {
	Component string
	Err       error
	Time      time.Time
}

// Error implements error.
func (e ComponentError) Error() string {
	return fmt.Sprintf("runtime: component %s: %v", e.Component, e.Err)
}

// Stats aggregates runtime counters. Each field's tag names the counter on
// the wire (Counters, docs/OPERATIONS.md); ",drop" marks the app's rows of
// the drop ledger, summed by Drops. The fields up to PoolMisses are the live
// rows of statCounters, in row order.
type Stats struct {
	// ContextTriggers counts deliveries dispatched to context handlers.
	ContextTriggers uint64 `counter:"context_triggers"`
	// ContextPublishes counts values published by contexts.
	ContextPublishes uint64 `counter:"context_publishes"`
	// ControllerTriggers counts deliveries dispatched to controllers.
	ControllerTriggers uint64 `counter:"controller_triggers"`
	// PeriodicPolls counts completed periodic polling rounds (including
	// rounds accumulated into an `every` window).
	PeriodicPolls uint64 `counter:"periodic_polls"`
	// PollSnapshotRebuilds counts periodic rounds that had to rescan the
	// registry because the fleet changed since the previous round. A
	// steady-state fleet holds this constant while PeriodicPolls grows.
	PollSnapshotRebuilds uint64 `counter:"poll_snapshot_rebuilds"`
	// IngestEvents counts readings the event-ingestion pipeline published
	// into device-source topics.
	IngestEvents uint64 `counter:"ingest_events"`
	// IngestBatches counts ReadingBatch flushes of the ingestion pipeline;
	// IngestEvents/IngestBatches is the achieved coalescing factor.
	IngestBatches uint64 `counter:"ingest_batches"`
	// IngestBudgetDrops counts readings refused because the interaction's
	// in-flight qos budget was exhausted (the drop policy).
	IngestBudgetDrops uint64 `counter:"ingest_budget_drops,drop"`
	// IngestDeadlineDrops counts readings dropped at flush because they
	// were older than the configured IngestConfig.MaxAge (the deadline
	// policy).
	IngestDeadlineDrops uint64 `counter:"ingest_deadline_drops,drop"`
	// IngestDrainDrops counts readings refused because they arrived after
	// a drain closed admission (the operations plane's `drain` op). They
	// are accounted separately from budget drops so post-drain arrivals
	// never masquerade as backpressure.
	IngestDrainDrops uint64 `counter:"ingest_drain_drops,drop"`
	// TrackerReconciles counts registry rescans forced by a source tracker
	// falling so far behind that its watcher queue passed its bound and
	// lost notifications; 0 in healthy operation, bind storms included.
	TrackerReconciles uint64 `counter:"tracker_reconciles"`
	// FederationEventsIn counts readings admitted into the ingestion
	// pipeline from federation peers via RemoteIngest.
	FederationEventsIn uint64 `counter:"federation_events_in"`
	// FederationEventBatchesIn counts RemoteIngest batches served;
	// FederationEventsIn/FederationEventBatchesIn is the cross-node
	// coalescing factor actually achieved.
	FederationEventBatchesIn uint64 `counter:"federation_event_batches_in"`
	// FederationEventDrops counts peer-forwarded readings refused at
	// admission (budget exhausted, or no interaction consumes the batch's
	// kind+source). These are accounted here, not in IngestBudgetDrops,
	// so cross-node delivery accounting stays exact per counter.
	FederationEventDrops uint64 `counter:"federation_event_drops,drop"`
	// FederationCommandChunks counts command_batch round trips issued by
	// batched actuation (ControllerCall.InvokeBatch); compare against
	// Actuations to see the fan-out amortization.
	FederationCommandChunks uint64 `counter:"federation_command_chunks"`
	// FederationAggPartialsIn counts per-group partial aggregates merged
	// from federation peers via RemoteAggregate (the agg_sync receive
	// path).
	FederationAggPartialsIn uint64 `counter:"federation_agg_partials_in"`
	// GroupsDirty counts groups re-reduced by incremental grouped
	// aggregation across all flushes; GroupsTotal counts groups live at
	// those flushes. GroupsDirty/GroupsTotal is the fraction of
	// aggregation work actually performed.
	GroupsDirty uint64 `counter:"groups_dirty"`
	// GroupsTotal counts groups live across incremental flushes (see
	// GroupsDirty).
	GroupsTotal uint64 `counter:"groups_total"`
	// AggReuse counts clean groups whose output was served from the
	// previous round's aggregate without re-reducing — the incremental
	// engine's savings, GroupsTotal - GroupsDirty accumulated.
	AggReuse uint64 `counter:"agg_reuse"`
	// Actuations counts successful device action invocations.
	Actuations uint64 `counter:"actuations"`
	// Errors counts component errors.
	Errors uint64 `counter:"errors"`
	// PoolMisses counts typed reading-batch allocations the batch pool
	// could not serve from recycled buffers (process-wide, shared across
	// every runtime in the process). Steady state holds this flat; growth
	// means batches are leaking a Release or the GC cleared the pool.
	PoolMisses uint64 `counter:"pool_misses"`
}

// statTable reads the Stats tags once.
var statTable = metrics.NewTable[Stats]()

// Counters flattens the snapshot into a name → value map — the wire form
// the `diaspecc host stats` admin op ships, so adding a Stats field never
// changes the transport schema.
func (s Stats) Counters() map[string]uint64 { return statTable.Map(&s) }

// Drops sums the app's drop ledger: every reading it accepted and then
// shed, so delivered + Drops() == accepted.
func (s Stats) Drops() uint64 { return statTable.Drops(&s) }

// Rows of statCounters, one per live Stats field and in field order.
const (
	statContextTriggers = iota
	statContextPublishes
	statControllerTriggers
	statPeriodicPolls
	statPollSnapshotRebuilds
	statIngestEvents
	statIngestBatches
	statIngestBudgetDrops
	statIngestDeadlineDrops
	statIngestDrainDrops
	statTrackerReconciles
	statFederationEventsIn
	statFederationEventBatchesIn
	statFederationEventDrops
	statFederationCommandChunks
	statFederationAggPartialsIn
	statGroupsDirty
	statGroupsTotal
	statAggReuse
	statActuations
	statErrors
	numStats // PoolMisses, the last field, is process-wide and read at snapshot
)

// statCounters is the live, lock-free form of Stats: polling rounds and
// dispatch bump these without touching the runtime mutex.
type statCounters [numStats]atomic.Uint64

// noteFlush accumulates one incremental-aggregation flush into the
// dirty/total/reuse counters.
func (c *statCounters) noteFlush(dirty, total int) {
	c[statGroupsDirty].Add(uint64(dirty))
	c[statGroupsTotal].Add(uint64(total))
	if total > dirty {
		c[statAggReuse].Add(uint64(total - dirty))
	}
}

func (c *statCounters) snapshot() Stats {
	var s Stats
	statTable.Load(&s, c[:])
	s.PoolMisses = device.BatchPoolMisses()
	return s
}

// Runtime is one application built from a checked design, running on a
// Host's substrate. The Host owns everything apps share — bus, registry,
// device table, store, lease janitor, metrics listener, drain state — and a
// Runtime owns only what is per app: handlers, subscriptions, pollers,
// ingestion pipelines and counters. runtime.New builds a private one-app
// Host for the Runtime it returns; Host.Deploy adds one to a shared Host.
// The substrate methods on Runtime (BindDevice, Persistence, Drain, …)
// delegate to that owning Host.
type Runtime struct {
	model       *check.Model
	ingestCfg   IngestConfig
	pollWorkers int
	onError     func(ComponentError)

	// host owns the substrate. reg, bus, fleet and clock are copies of its
	// fields taken at attach so hot paths skip the indirection.
	host  *Host
	reg   *registry.Registry
	bus   *eventbus.Bus
	fleet *deviceTable
	clock simclock.Clock

	// Tenancy. appID is "" exactly when New built the host for this
	// runtime alone (Deploy rejects the empty ID): Stop then closes it.
	// topicPrefix namespaces every bus topic of a deployed app
	// ("app/<id>/") so N apps share one bus without topic collisions.
	appID       string
	topicPrefix string

	initErr error // New's substrate failure, surfaced by Start

	mu          sync.Mutex
	started     bool
	stopped     bool
	subs        []*eventbus.Subscription
	contexts    map[string]ContextHandler
	controllers map[string]ControllerHandler
	clients     map[string]*transport.Client
	pollers     []*poller
	trackers    []*sourceTracker
	ingestors   []*ingestor
	ingestByKey map[string][]*ingestor   // kind+source -> consuming pipelines
	aggByKey    map[string][]*provAgg    // kind+source -> provided-grouped aggregates
	watchers    []*registry.Watcher      // source trackers' and aggregates' registry watches
	pubSites    map[string]*pubSite      // per declared context; compiled once in Start
	pullSites   map[*check.Get]*pullSite // per declared device-source get; compiled once in Start
	wg          sync.WaitGroup

	// handlers is the read-mostly snapshot of contexts/controllers,
	// rebuilt copy-on-write by Implement* so per-event dispatch loads it
	// atomically instead of taking mu.
	handlers atomic.Pointer[handlerTables]

	stats statCounters // lock-free; not guarded by mu
}

// handlerTables is an immutable snapshot of the installed component
// implementations.
type handlerTables struct {
	contexts    map[string]ContextHandler
	controllers map[string]ControllerHandler
}

// refreshHandlersLocked rebuilds the dispatch snapshot; callers hold rt.mu.
func (rt *Runtime) refreshHandlersLocked() {
	t := &handlerTables{
		contexts:    make(map[string]ContextHandler, len(rt.contexts)),
		controllers: make(map[string]ControllerHandler, len(rt.controllers)),
	}
	for k, v := range rt.contexts {
		t.contexts[k] = v
	}
	for k, v := range rt.controllers {
		t.controllers[k] = v
	}
	rt.handlers.Store(t)
}

// contextHandler resolves a context implementation without locking.
func (rt *Runtime) contextHandler(name string) ContextHandler {
	return rt.handlers.Load().contexts[name]
}

// controllerHandler resolves a controller implementation without locking.
func (rt *Runtime) controllerHandler(name string) ControllerHandler {
	return rt.handlers.Load().controllers[name]
}

// Option configures runtime.New. Each one sets a field of the same
// SubstrateConfig / AppConfig pair that NewHost and Host.Deploy take as
// structs, so New(model, opts...) is exactly the one-app spelling of
// NewHost + Deploy.
type Option func(*newConfig)

type newConfig struct {
	sub SubstrateConfig
	app AppConfig
}

// WithClock sets the time source (virtual clocks make periodic designs
// deterministic). Default: real time.
func WithClock(clock simclock.Clock) Option {
	return func(c *newConfig) { c.sub.Clock = clock }
}

// WithErrorHandler installs a callback invoked on every component error.
// Errors are always counted in Stats regardless.
func WithErrorHandler(f func(ComponentError)) Option {
	return func(c *newConfig) { c.sub.OnError = f }
}

// WithIngestConfig tunes the event-driven ingestion pipeline behind
// `when provided` device sources (shard count, batch size, in-flight budget
// and deadline). The zero value of every field selects its default.
func WithIngestConfig(cfg IngestConfig) Option {
	return func(c *newConfig) { c.app.Ingest = cfg }
}

// defaultPollWorkers is the per-poller query pool bound when none (or a
// non-positive one) is configured.
const defaultPollWorkers = 32

// WithPollWorkers bounds the per-poller query pool of `when periodic`
// interactions: up to n goroutines issue device queries concurrently per
// poller (the pool still grows lazily with the fleet, so small fleets park
// no idle workers). Zero or negative falls back to the default (32) — a
// zero-worker pool could never complete a round.
func WithPollWorkers(n int) Option {
	return func(c *newConfig) { c.app.PollWorkers = n }
}

// WithMetricsAddr opts the runtime into the Prometheus scrape endpoint: New
// listens on addr (use "127.0.0.1:0" for an ephemeral port) and serves
// /metrics rendered from FleetStats.
func WithMetricsAddr(addr string) Option {
	return func(c *newConfig) { c.sub.MetricsAddr = addr }
}

// WithPersistence attaches a write-ahead log + snapshot store rooted at dir.
// New recovers the previous incarnation's state from it; an open or recovery
// failure is reported by Start (New cannot return one).
func WithPersistence(dir string, opts persist.Options) Option {
	return func(c *newConfig) { c.sub.PersistDir, c.sub.PersistOpts = dir, opts }
}

// New creates the Runtime of a checked design model on a private one-app
// Host: app ID "" (no topic prefix, un-namespaced aggregate checkpoint keys,
// fleet_stats scope "default"). The substrate is this runtime's alone, so
// Stop closes it. A substrate that fails to come up (persistence
// misconfigured or unrecoverable, metrics address in use) leaves the handle
// usable on a bare substrate and fails Start with the cause.
func New(model *check.Model, opts ...Option) *Runtime {
	var cfg newConfig
	for _, o := range opts {
		o(&cfg)
	}
	h, err := NewHost(cfg.sub)
	if err != nil {
		bare := SubstrateConfig{Clock: cfg.sub.Clock, OnError: cfg.sub.OnError}
		h, _ = NewHost(bare) // nothing left in the config that can fail
	}
	rt := h.attach("", model, cfg.app)
	rt.initErr = err
	h.apps[""] = rt
	return rt
}

// Model returns the design model this runtime executes.
func (rt *Runtime) Model() *check.Model { return rt.model }

// Registry returns the host's entity registry.
func (rt *Runtime) Registry() *registry.Registry { return rt.reg }

// Clock returns the runtime's time source.
func (rt *Runtime) Clock() simclock.Clock { return rt.clock }

// BindOption configures one device binding.
type BindOption func(*bindConfig)

type bindConfig struct {
	ttl time.Duration
}

// WithLease registers the device with a lease: unless renewed through
// Registry().Renew within ttl, the registration expires and the device
// drops out of discovery, polling snapshots and source tracking — the
// churn-resilient form of the paper's runtime binding for devices that may
// silently disappear.
func WithLease(ttl time.Duration) BindOption {
	return func(c *bindConfig) { c.ttl = ttl }
}

// BindDevice binds a local driver into the owning host's fleet; see
// Host.BindDevice. Binding may happen before or after Start (the paper's
// runtime binding).
func (rt *Runtime) BindDevice(drv device.Driver, opts ...BindOption) error {
	return rt.host.BindDevice(drv, opts...)
}

// UnbindDevice removes a device from the registry and the host's fleet.
func (rt *Runtime) UnbindDevice(id string) error { return rt.host.UnbindDevice(id) }

// LocalDriver returns the locally bound driver for id, if any. The
// federation tier uses it to host exported devices on the node's transport
// server without re-resolving through the registry.
func (rt *Runtime) LocalDriver(id string) (device.Driver, bool) { return rt.host.LocalDriver(id) }

// Persistence returns the host's store, nil when persistence was not
// configured (or its directory failed to open). The federation tier uses it
// to restore its boot epoch and peer cursors and to barrier before
// advertising generations.
func (rt *Runtime) Persistence() *persist.Store { return rt.host.Persistence() }

// MetricsAddr reports the host's live metrics listener address ("" when
// the endpoint was not enabled).
func (rt *Runtime) MetricsAddr() string { return rt.host.MetricsAddr() }

// FleetStats is the owning host's operations snapshot; see Host.FleetStats.
func (rt *Runtime) FleetStats() transport.FleetStats { return rt.host.FleetStats() }

// Drain quiesces the owning host; see Host.Drain.
func (rt *Runtime) Drain() (transport.DrainReport, error) { return rt.host.Drain() }

// ImplementContext installs the implementation of a declared context.
func (rt *Runtime) ImplementContext(name string, h ContextHandler) error {
	ctx, ok := rt.model.Contexts[name]
	if !ok {
		return fmt.Errorf("runtime: context %s not declared in the design", name)
	}
	if ctx.Required {
		if _, ok := h.(RequiredHandler); !ok {
			return fmt.Errorf("runtime: context %s declares 'when required;' so its handler must implement RequiredHandler", name)
		}
	}
	if needsMapReduce(ctx) {
		if _, ok := h.(MapReducer); !ok {
			return fmt.Errorf("runtime: context %s declares 'with map … reduce …' so its handler must implement MapReducer", name)
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.contexts[name] = h
	rt.refreshHandlersLocked()
	return nil
}

// ImplementController installs the implementation of a declared controller.
func (rt *Runtime) ImplementController(name string, h ControllerHandler) error {
	if _, ok := rt.model.Controllers[name]; !ok {
		return fmt.Errorf("runtime: controller %s not declared in the design", name)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.controllers[name] = h
	rt.refreshHandlersLocked()
	return nil
}

func needsMapReduce(ctx *check.Context) bool {
	for _, in := range ctx.Interactions {
		if in.MapType != nil {
			return true
		}
	}
	return false
}

// Start validates that every declared component has an implementation and
// wires the design: bus subscriptions for event-driven arrows, device
// subscriptions (current and future, via registry watches) for device
// sources, and pollers for periodic interactions.
func (rt *Runtime) Start() error {
	if rt.initErr != nil {
		return rt.initErr
	}
	rt.mu.Lock()
	if rt.started {
		rt.mu.Unlock()
		return errors.New("runtime: already started")
	}
	for name := range rt.model.Contexts {
		if _, ok := rt.contexts[name]; !ok {
			rt.mu.Unlock()
			return fmt.Errorf("runtime: context %s has no implementation", name)
		}
	}
	for name := range rt.model.Controllers {
		if _, ok := rt.controllers[name]; !ok {
			rt.mu.Unlock()
			return fmt.Errorf("runtime: controller %s has no implementation", name)
		}
	}
	rt.started = true
	rt.compilePubSitesLocked()
	rt.compilePullSitesLocked()
	rt.mu.Unlock()

	for _, name := range rt.model.ContextNames() {
		ctx := rt.model.Contexts[name]
		for idx, in := range ctx.Interactions {
			switch in.Kind {
			case check.Provided:
				if err := rt.wireProvided(ctx, idx, in); err != nil {
					return err
				}
			case check.Periodic:
				rt.startPoller(ctx, idx, in)
			case check.Required:
				// Served on demand via ContextCall.
			}
		}
	}
	for _, name := range rt.model.ControllerNames() {
		ctrl := rt.model.Controllers[name]
		for _, w := range ctrl.Interactions {
			if err := rt.wireController(ctrl, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stop tears down the app: pollers, pipelines, subscriptions and transports.
// It is idempotent. On a runtime built by New it then closes the private
// host — bus, store (final snapshot) and registry; an app deployed
// on a shared Host leaves the substrate live for the other tenants.
func (rt *Runtime) Stop() {
	rt.stopApp()
	if rt.appID == "" {
		rt.host.Close()
	}
}

// stopApp releases everything the app holds on the substrate and nothing of
// the substrate itself; Host.Close and Undeploy end apps through it.
func (rt *Runtime) stopApp() {
	rt.mu.Lock()
	if rt.stopped || !rt.started {
		rt.stopped = true
		rt.mu.Unlock()
		return
	}
	rt.stopped = true
	pollers := rt.pollers
	trackers := rt.trackers
	ingestors := rt.ingestors
	watchers := rt.watchers
	clients := rt.clients
	subs := rt.subs
	rt.pollers, rt.trackers, rt.ingestors, rt.watchers, rt.subs = nil, nil, nil, nil, nil
	rt.ingestByKey = make(map[string][]*ingestor)
	// aggByKey is deliberately kept: the store's final snapshot (sealed by
	// Host.Close) captures each engine's checkpoint from it after the
	// pipelines drain.
	rt.clients = make(map[string]*transport.Client)
	rt.mu.Unlock()

	// Watcher cancellation closes each tracker's loop, which releases its
	// device attachments (stopAll); trackers that somehow never entered
	// their loop are stopped directly — stopAll is idempotent.
	for _, w := range watchers {
		w.Cancel()
	}
	for _, p := range pollers {
		p.stop()
	}
	for _, t := range trackers {
		t.stopAll()
	}
	for _, ing := range ingestors {
		ing.stop()
	}
	rt.wg.Wait()
	// Cancel this app's subscriptions only. Cancellation drains each
	// subscription's queue first, so events the app's pipelines handed to
	// the bus before wg drained (ingest shards flush on stop) are still
	// delivered and counted — hot undeploy keeps delivered+dropped
	// accounting exact.
	for _, s := range subs {
		s.Cancel()
	}
	for _, c := range clients {
		c.Close()
	}
}

// subscribe is the tracked form of bus.Subscribe: an app must be able to
// release exactly its own subscriptions at Undeploy without closing the
// shared bus, so every wiring path records what it subscribed.
func (rt *Runtime) subscribe(topic string, h eventbus.Handler, opts ...eventbus.SubOption) error {
	sub, err := rt.bus.Subscribe(topic, h, opts...)
	if err != nil {
		return err
	}
	rt.mu.Lock()
	rt.subs = append(rt.subs, sub)
	rt.mu.Unlock()
	return nil
}

// Stats returns a snapshot of runtime counters. Counters are atomics, so
// the snapshot never contends with polling rounds or dispatch.
func (rt *Runtime) Stats() Stats {
	return rt.stats.snapshot()
}

// BusStats returns a snapshot of the delivery substrate's counters
// (publications and deliveries; the bus is lossless, so Dropped stays 0).
func (rt *Runtime) BusStats() eventbus.Stats {
	return rt.bus.Stats()
}

// ReportError feeds an external subsystem's failure into the runtime's
// error accounting (Stats.Errors plus the WithErrorHandler callback), so
// faults from cooperating tiers — e.g. federation sync — surface through
// the same channel as component errors.
func (rt *Runtime) ReportError(component string, err error) {
	rt.reportError(component, err)
}

func (rt *Runtime) reportError(component string, err error) {
	ce := ComponentError{Component: component, Err: err, Time: rt.clock.Now()}
	rt.stats[statErrors].Add(1)
	if handler := rt.onError; handler != nil {
		handler(ce)
	}
}

// driverFor resolves an entity to a callable driver: the locally bound
// driver when present, else a remote proxy (carrying the entity's full
// metadata) dialed through the cached endpoint client.
func (rt *Runtime) driverFor(e registry.Entity) (device.Driver, error) {
	if drv, ok := rt.fleet.get(string(e.ID)); ok {
		return drv, nil
	}
	cli, err := rt.clientFor(string(e.ID), e.Endpoint)
	if err != nil {
		return nil, err
	}
	return transport.NewRemoteDriver(cli, e), nil
}

// clientFor returns the cached transport client for endpoint, dialing it on
// first use. id is only for error messages.
func (rt *Runtime) clientFor(id, endpoint string) (*transport.Client, error) {
	if endpoint == "" {
		return nil, fmt.Errorf("runtime: entity %s is neither locally bound nor remotely reachable", id)
	}
	rt.mu.Lock()
	cli, ok := rt.clients[endpoint]
	rt.mu.Unlock()
	if ok {
		return cli, nil
	}
	cli, err := transport.Dial(endpoint)
	if err != nil {
		return nil, fmt.Errorf("runtime: dial %s for %s: %w", endpoint, id, err)
	}
	rt.mu.Lock()
	if existing, raced := rt.clients[endpoint]; raced {
		rt.mu.Unlock()
		cli.Close()
		return existing, nil
	}
	rt.clients[endpoint] = cli
	rt.mu.Unlock()
	return cli, nil
}
