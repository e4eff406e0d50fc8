package runtime

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/dsl/check"
	"repro/internal/mapreduce"
	"repro/internal/registry"
	"repro/internal/transport"
)

// This file implements the runtime half of incremental grouped aggregation:
// the engine wrapper shared by the periodic and event-driven grouped paths
// (aggCore), the per-interaction state of `when provided … grouped by …`
// contexts (provAgg), and the federation merge point for node-local partial
// aggregates (RemoteAggregate). The engine itself lives in
// internal/mapreduce; this layer feeds it deltas — changed readings from
// the periodic poller's per-slot diff, individual events from the ingestion
// pipeline, per-group partials from agg_sync peers — and serves
// ContextCall.GroupedReduced / ContextCall.Grouped from its persistent
// output instead of rebuilding a map per round.

// aggPartialPrefix namespaces the synthetic engine inputs that carry
// federation peers' per-group partial aggregates; real device IDs never
// start with NUL, so registry reconciliation leaves them alone.
const aggPartialPrefix = "\x00agg\x00"

func aggPartialID(origin, group string) string {
	return aggPartialPrefix + origin + "\x00" + group
}

// aggCore wraps one interaction's incremental engine together with the
// raw-grouped mirror map (for `grouped by` without MapReduce) and the
// runtime's flush accounting. It is not safe for concurrent use; each
// owner serializes access (the poller through its bus subscription, a
// provAgg through its mutex).
type aggCore struct {
	rt        *Runtime
	eng       *mapreduce.Incremental[string, any]
	mapReduce bool
	// grouped mirrors the engine output as map[group][]raw values for the
	// no-MapReduce lowering; only dirty keys are touched per flush.
	grouped  map[string][]any
	dirtyBuf []string
}

// newAggCore builds the engine for one grouped interaction from the
// installed context handler: the handler's Map/Reduce when the design
// declares `with map … reduce …` (with Combine/Uncombine fast paths when
// implemented), or the identity lowering that maintains raw per-group value
// lists otherwise.
func newAggCore(rt *Runtime, ctxName string, in *check.Interaction) (*aggCore, error) {
	core := &aggCore{rt: rt, mapReduce: in.MapType != nil}
	if !core.mapReduce {
		core.grouped = make(map[string][]any)
		core.eng = mapreduce.NewIncremental[string, any](
			func(k string, v any, emit func(string, any)) { emit(k, v) },
			func(k string, vs []any, emit func(string, any)) { emit(k, vs) },
			nil, nil)
		return core, nil
	}
	h := rt.contextHandler(ctxName)
	mr, ok := h.(MapReducer)
	if !ok {
		return nil, fmt.Errorf("handler does not implement MapReducer")
	}
	var combine mapreduce.CombineFunc[string, any]
	var uncombine mapreduce.UncombineFunc[string, any]
	if c, ok := h.(Combiner); ok {
		combine = c.Combine
	}
	if u, ok := h.(Uncombiner); ok {
		uncombine = u.Uncombine
	}
	core.eng = mapreduce.NewIncremental[string, any](
		func(k string, v any, emit func(string, any)) { mr.Map(k, v, emit) },
		func(k string, vs []any, emit func(string, any)) { mr.Reduce(k, vs, emit) },
		combine, uncombine)
	return core, nil
}

// flush re-reduces the dirty groups and returns the call payloads: the
// MapReduce output map, or the raw-grouped mirror. Both are engine-owned
// and valid only until the next delta; handlers copy what they retain.
func (c *aggCore) flush() (reduced map[string]any, grouped map[string][]any) {
	out, dirty := c.eng.Flush(c.dirtyBuf[:0])
	c.dirtyBuf = dirty
	c.rt.stats.noteFlush(c.eng.LastFlushDirty(), c.eng.LastFlushTotal())
	if c.mapReduce {
		return out, nil
	}
	for _, k := range dirty {
		if v, ok := out[k]; ok {
			c.grouped[k] = v.([]any)
		} else {
			delete(c.grouped, k)
		}
	}
	return nil, c.grouped
}

// restore loads a persisted checkpoint into the engine and rebuilds the
// raw-grouped mirror from the restored output.
func (c *aggCore) restore(r io.Reader) error {
	if err := c.eng.Restore(r); err != nil {
		return err
	}
	out, dirty := c.eng.Flush(c.dirtyBuf[:0])
	c.dirtyBuf = dirty
	if c.grouped != nil {
		for k, v := range out {
			c.grouped[k] = v.([]any)
		}
	}
	return nil
}

// reset drops all engine state (the periodic path resets on snapshot
// rebuild and re-feeds the full fleet).
func (c *aggCore) reset() {
	c.eng.Reset()
	if c.grouped != nil {
		c.grouped = make(map[string][]any)
	}
}

// provAgg is the state of one `when provided … grouped by …` interaction:
// a continuous per-group aggregate over the fleet's last-known readings,
// updated incrementally by every event the ingestion pipeline delivers and
// by federation peers' partial aggregates. The group of a device is its
// `grouped by` attribute value. The device→group cache is a registry
// attachment table fed by the interaction's one source watcher, each batch
// before the source tracker (trackDeviceSource): the event hot path never
// scans the registry, and a local device's group is recorded before its
// subscription opens. Departures and attribute changes evict stale
// contributions and dispatch the retraction even when no further event
// arrives.
type provAgg struct {
	ctxSite   // guarded by mu, like the engine
	kind      string
	source    string
	groupAttr string
	// combinable marks interactions whose handler implements Combiner —
	// the precondition for merging federation partials via agg_sync.
	combinable bool

	mu      sync.Mutex
	core    *aggCore
	groupOf map[string]string // device id -> group; real devices only
	// retract marks an eviction or re-homing that no dispatch has carried
	// yet; follow dispatches it once per watcher batch.
	retract bool
	// pending holds the latest reading of devices that emitted before
	// their registration was observed here (a federation event_batch can
	// outrun the registry delta sync that mirrors its devices); the
	// registration's attach adopts them into the aggregate. Bounded so a
	// storm of unregistered senders cannot grow it without limit. A parked
	// reading that is never adopted — superseded, refused at the bound, or
	// still parked at stop — counts in Stats.AggPendingDrops.
	pending map[string]device.Reading
}

// provAggPendingCap bounds provAgg.pending.
const provAggPendingCap = 4096

// newProvAgg builds the aggregate for one provided-grouped interaction and
// indexes it by (kind, source) for RemoteAggregate routing.
func (rt *Runtime) newProvAgg(ctx *check.Context, idx int, in *check.Interaction) (*provAgg, error) {
	core, err := newAggCore(rt, ctx.Name, in)
	if err != nil {
		return nil, fmt.Errorf("runtime: context %s: %w", ctx.Name, err)
	}
	_, combinable := rt.contextHandler(ctx.Name).(Combiner)
	pa := &provAgg{
		ctxSite:    rt.newCtxSite(ctx, idx, in),
		kind:       in.TriggerDevice.Name,
		source:     in.TriggerSource.Name,
		groupAttr:  in.GroupBy.Name,
		combinable: combinable && in.MapType != nil,
		core:       core,
		groupOf:    make(map[string]string),
		pending:    make(map[string]device.Reading),
	}
	rt.mu.Lock()
	key := ingestKey(pa.kind, pa.source)
	rt.aggByKey[key] = append(rt.aggByKey[key], pa)
	rt.mu.Unlock()
	rt.restoreAggState(pa) // before seed, which retracts what no device tracks
	return pa, nil
}

// seed returns the attachment table behind the device→group cache, filled
// with the population registered now. Every device of the kind, local or
// mirror, attaches; the callbacks run under pa.mu, held by seed and follow.
// Engine members no device tracks after this first reconcile, restored
// from a checkpoint whose devices are gone, are retracted; federation
// partials (NUL-prefixed synthetic ids) are remote state and stay.
func (pa *provAgg) seed() *registry.Attachments {
	track := func(e registry.Entity) { pa.trackLocked(string(e.ID), e.Attrs[pa.groupAttr]) }
	groups := registry.NewAttachments(pa.rt.reg, registry.Query{Kind: pa.kind}, func(e registry.Entity) (func(), bool) {
		track(e)
		id := string(e.ID)
		return func() { pa.evictLocked(id) }, true
	}, track)
	pa.mu.Lock()
	defer pa.mu.Unlock()
	groups.Reconcile()
	var stale []string
	pa.core.eng.Inputs(func(id string, _ []string) {
		if _, ok := pa.groupOf[id]; !ok && !strings.HasPrefix(id, aggPartialPrefix) {
			stale = append(stale, id)
		}
	})
	for _, id := range stale {
		pa.evictLocked(id)
	}
	pa.retractLocked()
	return groups
}

// follow applies one watcher batch to the group table, reconciles it
// against the registry when the watcher lost notifications, and dispatches
// the batch's retractions once.
func (pa *provAgg) follow(groups *registry.Attachments, batch []registry.Change, lost bool) {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	groups.Apply(batch)
	if lost {
		groups.Reconcile()
	}
	pa.retractLocked()
}

// retractLocked dispatches, without a reading, the evictions and re-homings
// no dispatch has carried yet.
func (pa *provAgg) retractLocked() {
	if pa.retract {
		pa.dispatchLocked(nil, "", pa.rt.clock.Now())
	}
}

// trackLocked installs or refreshes one device's group, evicting its old
// contribution on a group change and adopting a pending reading that
// arrived before the registration was observed. An adopted reading is
// delivered now, late, as what it is — a dispatch carrying the reading —
// so delivered + dropped accounting stays exact when events outrun the
// registry deltas.
func (pa *provAgg) trackLocked(id, group string) {
	if old, tracked := pa.groupOf[id]; tracked && old != group && pa.core.eng.Has(id) {
		// Re-homed: the old contribution is stale; the device re-enters
		// under the new group with its next reading.
		pa.core.eng.Remove(id)
		pa.retract = true
	}
	pa.groupOf[id] = group
	if r, ok := pa.pending[id]; ok {
		delete(pa.pending, id)
		pa.core.eng.Upsert(id, group, r.Value)
		pa.dispatchLocked(&r, group, r.Time)
	}
}

// evictLocked drops one departed device. The engine record goes either way:
// a device whose last reading mapped to nothing still has one.
func (pa *provAgg) evictLocked(id string) {
	delete(pa.groupOf, id)
	if pa.core.eng.Has(id) {
		pa.retract = true
	}
	pa.core.eng.Remove(id)
}

// onBatch folds one delivered columnar batch into the aggregate under a
// single lock acquisition, dispatching the context with the updated per-group
// state once per row (trigger counts, pending adoption and retraction are
// per reading; only the locking is amortized). pa.mu serializes it with
// concurrent RemoteAggregate merges and watcher batches; the bus already
// serializes local events per subscription. The row scratch is reused —
// handlers borrow the Reading for the duration of OnTrigger.
func (pa *provAgg) onBatch(b *device.ReadingBatch) {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	var r device.Reading
	for i, n := 0, b.Len(); i < n; i++ {
		b.FillRow(i, &r)
		pa.onReadingLocked(r)
	}
}

func (pa *provAgg) onReadingLocked(r device.Reading) {
	group, ok := pa.groupOf[r.DeviceID]
	if !ok {
		// Registration not (yet) observed: either the device already left
		// — a stale reading must not resurrect it — or its event outran
		// the registration (a federation event_batch can land before the
		// registry delta sync mirrors its device). Park the latest
		// reading; the registration's attach adopts it.
		_, queued := pa.pending[r.DeviceID]
		if queued || len(pa.pending) >= provAggPendingCap {
			// The reading it supersedes, or this one refused at the
			// bound, is shed.
			pa.rt.stats[statAggPendingDrops].Add(1)
			if !queued {
				return
			}
		}
		pa.pending[r.DeviceID] = r
		return
	}
	pa.core.eng.Upsert(r.DeviceID, group, r.Value)
	pa.dispatchLocked(&r, group, r.Time)
}

// applyPartials merges one federation peer's per-group partial aggregates
// and dispatches the context with the updated state.
func (pa *provAgg) applyPartials(origin string, partials []transport.GroupPartial, at time.Time) {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	for _, p := range partials {
		id := aggPartialID(origin, p.Group)
		if p.Removed {
			pa.core.eng.Remove(id)
		} else {
			pa.core.eng.UpsertPartial(id, p.Group, p.Value)
		}
	}
	pa.dispatchLocked(nil, "", at)
}

// dispatchLocked flushes the engine into one delivery. That delivery carries
// every change made before it, retractions included, so none is pending.
func (pa *provAgg) dispatchLocked(r *device.Reading, group string, at time.Time) {
	pa.retract = false
	call := pa.newCall(at)
	call.Reading, call.Group = r, group
	call.GroupedReduced, call.Grouped = pa.core.flush()
	pa.deliver(&call)
}

// shedPending counts the readings still parked once the app has stopped:
// no registration adopts them now.
func (pa *provAgg) shedPending() {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	pa.rt.stats[statAggPendingDrops].Add(uint64(len(pa.pending)))
	clear(pa.pending)
}

// RemoteAggregate lands one federation peer's node-local per-group partial
// aggregates — all of one device kind and source, computed by the peer over
// its local fleet — into every `when provided … grouped by …` interaction
// consuming that source whose handler declares a Combiner. It returns how
// many interactions merged the partials; 0 tells the sender the payload was
// unrouted (no consuming aggregate here, or a non-combinable handler).
//
// Each call replaces the origin node's previous partials group by group
// (Removed entries retract a group the peer no longer aggregates), so the
// protocol is idempotent and self-healing: a lost sync is repaired by the
// next one, and per-round cross-node bytes are O(dirty groups), not
// O(devices).
func (rt *Runtime) RemoteAggregate(kind, source, origin string, partials []transport.GroupPartial) int {
	if len(partials) == 0 {
		return 0
	}
	rt.mu.Lock()
	pas := rt.aggByKey[ingestKey(kind, source)]
	rt.mu.Unlock()
	applied := 0
	at := rt.clock.Now()
	for _, pa := range pas {
		if !pa.combinable {
			continue
		}
		pa.applyPartials(origin, partials, at)
		applied++
	}
	if applied > 0 {
		rt.stats[statFederationAggPartialsIn].Add(uint64(len(partials) * applied))
	}
	return applied
}
