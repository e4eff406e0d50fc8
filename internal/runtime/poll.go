package runtime

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/dsl/check"
	"repro/internal/eventbus"
	"repro/internal/mapreduce"
	"repro/internal/registry"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// poller drives one `when periodic` interaction. Steady-state work is
// proportional to fleet size only in queries issued, not in bookkeeping: the
// fleet snapshot is cached across ticks (fleetView), queries run on a
// persistent worker pool that stores only each slot's value, and a
// GroupedReading is built only for what a round publishes.
type poller struct {
	ctxSite  // dispatch side (bus-handler goroutine) owns out
	stopCh   chan struct{}
	stopOnce sync.Once
	topic    string

	// fleetView is the trigger kind's fleet; only the poller goroutine
	// refreshes it, and the pool workers fill its vals/ok during a round.
	fleetView

	// Every-window accumulation.
	window     *pollOut
	ticksInWin int
	flushEvery int

	// Incremental aggregation (every grouped interaction): the dispatch
	// side folds deltas into the interaction's engine (core). Round by
	// round, the poll loop diffs each round's values against the per-slot
	// last-value cache below and publishes only the deltas, each upsert
	// with its slot. The cache is keyed to the snapshot epoch — a rebuild
	// (fleet change) invalidates it and the next delta resets the engine
	// and re-feeds the full round. An `every` window is delivered as one
	// reset delta holding the whole window instead.
	aggOn     bool
	prevVals  []any
	prevOk    []bool
	snapEpoch uint64
	prevEpoch uint64   // epoch prevVals/prevOk describe; differs => reset
	core      *aggCore // owned by the dispatch (bus-handler) side
	// handles holds the engine record of each slot's device, so a round's
	// upserts walk slots and hash no id. Dispatch side only: cleared on a
	// reset delta, nil'd on a removal.
	handles []*mapreduce.Handle[string, any]
	winIDs  []string // window position ids; dispatch side only

	// Persistent query pool: up to workers goroutines block on rounds and
	// claim targets in chunks through the round's cursors. The pool grows
	// lazily with the snapshot's work units (started counts live workers),
	// so small fleets never park 32 idle goroutines.
	workers int
	started int
	rounds  chan *pollRound

	// outs recycles what rounds publish once dispatch has consumed it.
	outs sync.Pool
}

func (rt *Runtime) startPoller(ctx *check.Context, idx int, in *check.Interaction) {
	p := &poller{
		ctxSite: rt.newCtxSite(ctx, idx, in),
		stopCh:  make(chan struct{}),
		topic:   rt.periodicTopic(ctx.Name, idx),
		workers: rt.pollWorkers,
		fleetView: fleetView{
			kind:   in.TriggerDevice.Name,
			source: in.TriggerSource.Name,
			fail:   func(key string, err error) { rt.reportError("poll:"+key, err) },
		},
	}
	if in.Every > 0 {
		p.flushEvery = int(in.Every / in.Period)
	}
	if p.aggOn = in.GroupBy != nil; p.aggOn {
		p.groupAttr = in.GroupBy.Name
	}
	// Deliver batches through the bus so handler invocations for this
	// interaction are serialized like every other delivery. dispatch fully
	// copies the batch out, so the published buffers are recycled afterwards.
	if err := rt.subscribe(p.topic, func(ev eventbus.Event) {
		switch batch := ev.Payload.(type) {
		case periodicBatch:
			p.dispatch(batch)
			p.putOut(batch.out)
		case aggDelta:
			p.dispatchDelta(batch)
			p.putOut(batch.out)
		}
	}); err != nil {
		rt.reportError(ctx.Name, err)
		return
	}
	rt.mu.Lock()
	rt.pollers = append(rt.pollers, p)
	rt.mu.Unlock()

	p.rounds = make(chan *pollRound, p.workers)

	// Arm the ticker before Start returns so that virtual-clock advances
	// performed right after Start are observed.
	ticker := rt.clock.NewTicker(in.Period)
	rt.wg.Add(1)
	go p.run(ticker)
}

func (p *poller) stop() { p.stopOnce.Do(func() { close(p.stopCh) }) }

func (p *poller) run(ticker *simclock.Ticker) {
	defer p.rt.wg.Done()
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			p.flushWindow()
			return
		case at := <-ticker.C:
			p.poll(at)
		}
	}
}

// flushWindow delivers a partially accumulated `every` window at shutdown,
// so readings gathered before Stop are not silently discarded. The bus
// drains queued deliveries before closing, which keeps the flush ordered
// after every full-window batch already published.
func (p *poller) flushWindow() {
	if p.flushEvery == 0 || p.window == nil || len(p.window.readings) == 0 {
		return
	}
	out := p.window
	p.window = nil
	p.ticksInWin = 0
	p.publish(out, p.rt.clock.Now())
}

// fleetView is one device kind's fleet as the target of rounds that read
// one source from every device, shared by a periodic poller and a
// query-driven pull site. The snapshot is cached across rounds, keyed on
// the registry's kind generation, and drivers, querier functions and
// endpoint clients are resolved when it is rebuilt, so a round over an
// unchanged fleet touches neither the registry nor a runtime lock. Its
// owner refreshes it and runs its rounds one at a time.
type fleetView struct {
	kind, source string
	groupAttr    string // `grouped by` attribute read into each slot's group; "" for none
	// fail receives every failure of a rebuild or round, keyed by device
	// ID or, for a failed endpoint request, by endpoint.
	fail func(key string, err error)

	snap    *pollSnapshot
	scanBuf []scanItem // rebuild scratch
	vals    []any      // a round's answers per slot, valid where ok is set
	ok      []bool
}

// scanItem is what one registry-scan visit captures during a snapshot
// rebuild. attrs is the registry's immutable shape map, never cloned.
type scanItem struct {
	id       string
	endpoint string
	attrs    registry.Attributes
}

// pollTarget is one locally bound device of the snapshot, with its driver —
// and, when the driver supports it, its pre-resolved query function —
// already in hand so a steady-state tick touches no runtime lock.
type pollTarget struct {
	drv   device.Driver
	query device.QueryFunc // fast path via device.SnapshotQuerier; may be nil
}

// endpointBatch is every remote device of the snapshot reachable through one
// endpoint; a round answers all of them with a single QueryBatch round trip.
type endpointBatch struct {
	client   *transport.Client
	endpoint string
	ids      []string
	groups   []string
	attrs    []registry.Attributes
	base     int // first slot of this batch in the round's vals/ok buffers
}

// pollSnapshot is the cached fleet of one fleetView, valid while the
// registry generation for its kind stays at gen.
type pollSnapshot struct {
	gen     uint64
	locals  []pollTarget
	remotes []endpointBatch
	total   int
	// claim is how many local targets a worker takes per cursor move:
	// pollClaim when every local has a pre-resolved (non-blocking) query
	// function, else 1, so drivers that block in Query are still queried
	// concurrently across the pool.
	claim int
	// ids, groups and attrs give each round slot's device ID, `grouped by`
	// value and attributes (the registry's shape map, shared read-only):
	// the locals first, in ID order, then each endpoint batch from its
	// base, each in ID order.
	ids    []string
	groups []string
	attrs  []registry.Attributes
	// incomplete marks a snapshot missing targets whose endpoint could
	// not be dialed or lost its connection; the next tick rebuilds (and
	// so redials) even with an unchanged generation.
	incomplete atomic.Bool
}

// poll queries every bound device of the trigger kind through the worker
// pool and either delivers the batch immediately or accumulates it into the
// `every` window. With an unchanged fleet this performs no registry scan, no
// sort and no target allocation — the generation check is the only registry
// interaction. Grouped interactions without a window publish the round's
// per-slot diff (changed readings + dropped-out devices) instead of the
// full batch.
func (p *poller) poll(at time.Time) {
	if p.refresh(p.rt) {
		p.snapEpoch++
		p.rt.stats[statPollSnapshotRebuilds].Add(1)
	}
	snap := p.snap

	if snap.total > 0 && !p.runRound(snap) {
		return // stopped mid-round
	}
	p.rt.stats[statPeriodicPolls].Add(1)

	if p.aggOn && p.flushEvery == 0 {
		p.publishDelta(at, snap)
		return
	}
	if p.flushEvery == 0 {
		p.publish(p.appendAnswered(p.getOut(), snap, at), at)
		return
	}
	if p.window == nil {
		p.window = p.getOut()
	}
	p.appendAnswered(p.window, snap, at)
	if p.ticksInWin++; p.ticksInWin < p.flushEvery {
		return
	}
	out := p.window
	p.window, p.ticksInWin = nil, 0
	p.publish(out, at)
}

// reading materializes slot i of the round just run. It is the only place a
// round builds a GroupedReading, and it runs only for what is published.
func (p *poller) reading(snap *pollSnapshot, i int, at time.Time) GroupedReading {
	return GroupedReading{
		Group: snap.groups[i],
		Reading: device.Reading{
			DeviceID: snap.ids[i],
			Source:   p.source,
			Value:    p.vals[i],
			Time:     at,
		},
	}
}

// appendAnswered appends the reading of every slot that answered the round.
func (p *poller) appendAnswered(out *pollOut, snap *pollSnapshot, at time.Time) *pollOut {
	for i, good := range p.ok[:snap.total] {
		if good {
			out.readings = append(out.readings, p.reading(snap, i, at))
		}
	}
	return out
}

// publish delivers one round or one closed `every` window: as a
// periodicBatch to an ungrouped interaction, and to a grouped one as a reset
// delta that rebuilds the engine from exactly these readings, so no reading
// outlives its window.
func (p *poller) publish(out *pollOut, at time.Time) {
	var payload any = periodicBatch{out: out, at: at}
	if p.aggOn {
		payload = aggDelta{out: out, reset: true, window: true, at: at}
	}
	if err := p.rt.bus.Publish(p.topic, payload, at); err != nil {
		p.putOut(out)
	}
}

// pollClaim is how many local targets a worker claims per cursor move when
// every local target answers through a non-blocking device.SnapshotQuerier
// function: one atomic add per chunk instead of per target keeps the pool's
// workers off a shared cache line. Any other driver may block in Query (a
// link round trip, real I/O), so a snapshot holding one claims one target at
// a time and keeps the pool's queries concurrent.
const pollClaim = 128

// runRound executes one query round over the snapshot through the worker
// pool, filling p.vals/p.ok per slot. It reports false when the poller
// stopped before the round completed.
func (p *poller) runRound(snap *pollSnapshot) bool {
	round := p.round(snap)
	round.done = make(chan struct{})
	// Hand the round to at most one worker per unit of work (a remote
	// batch or a claim of local targets) so small fleets don't wake the
	// whole pool for one query's worth of polling; grow the pool to match.
	// p.rt.wg stays >0 for the poller's own goroutine while poll
	// runs, so Add here cannot race a Stop-side Wait reaching zero.
	hands := len(snap.remotes) + (len(snap.locals)+snap.claim-1)/snap.claim
	if hands > p.workers {
		hands = p.workers
	}
	for p.started < hands {
		p.rt.wg.Add(1)
		go p.worker()
		p.started++
	}
	round.pending.Store(int64(hands))
	for i := 0; i < hands; i++ {
		select {
		case p.rounds <- round:
		case <-p.stopCh:
			return false
		}
	}
	select {
	case <-round.done:
	case <-p.stopCh:
		return false
	}
	return true
}

// pollOut is what one round or one window publishes, recycled through
// poller.outs once dispatch has consumed it.
type pollOut struct {
	readings []GroupedReading
	slots    []int // delta rounds: the slot of each reading
	removed  []int // delta rounds: slots that answered last round but not this one
}

func (p *poller) getOut() *pollOut {
	if v := p.outs.Get(); v != nil {
		return v.(*pollOut)
	}
	return &pollOut{}
}

// putOut recycles out once dispatch has consumed it, unless its readings
// capacity is far above what it just carried: a reset round's full-fleet
// buffer would otherwise stay pooled behind the small delta rounds after it.
func (p *poller) putOut(out *pollOut) {
	if n := cap(out.readings); n > outKeepMin && n > outKeepFactor*len(out.readings) {
		return
	}
	out.readings, out.slots, out.removed = out.readings[:0], out.slots[:0], out.removed[:0]
	p.outs.Put(out)
}

// A pooled out buffer keeps at most outKeepFactor times the readings it
// carried, and any capacity up to outKeepMin.
const (
	outKeepFactor = 4
	outKeepMin    = 256
)

// aggDelta is the payload of one incrementally aggregated round: the
// readings whose value changed since the previous round with their slots,
// the slots that dropped out, and whether the dispatch-side engine must
// reset first (snapshot rebuilt: slots renumbered, fleet membership changed
// — the whole round rides in the upserts). ids names the snapshot's slots.
// A window delta carries a whole closed `every` window, reset included,
// without slots; its upserts are keyed by window position, since one device
// contributes once per tick.
type aggDelta struct {
	out    *pollOut
	ids    []string
	reset  bool
	window bool
	at     time.Time
}

// publishDelta diffs the round against the per-slot last-value cache and
// publishes only what changed. A steady fleet with unchanged readings
// publishes an empty delta — the dispatch side still flushes (cheaply, no
// dirty groups) and triggers the handler, preserving one delivery per
// period.
func (p *poller) publishDelta(at time.Time, snap *pollSnapshot) {
	reset := p.prevEpoch != p.snapEpoch
	if reset {
		if cap(p.prevVals) < snap.total {
			p.prevVals = make([]any, snap.total)
			p.prevOk = make([]bool, snap.total)
		}
		p.prevVals = p.prevVals[:snap.total]
		p.prevOk = p.prevOk[:snap.total]
		clear(p.prevVals)
		clear(p.prevOk)
		p.prevEpoch = p.snapEpoch
	}
	out := p.getOut()
	vals := p.vals[:snap.total]
	for i, good := range p.ok[:snap.total] {
		switch {
		case good:
			if !p.prevOk[i] || !valuesEqual(p.prevVals[i], vals[i]) {
				out.readings = append(out.readings, p.reading(snap, i, at))
				out.slots = append(out.slots, i)
				p.prevVals[i], p.prevOk[i] = vals[i], true
			}
		case p.prevOk[i]:
			// Answered last round, failed this one: its value drops out of
			// the aggregate until it answers again, matching the batch
			// path's per-round membership.
			out.removed = append(out.removed, i)
			p.prevVals[i], p.prevOk[i] = nil, false
		}
	}
	d := aggDelta{out: out, ids: snap.ids, reset: reset, at: at}
	if err := p.rt.bus.Publish(p.topic, d, at); err != nil {
		p.putOut(out)
	}
}

// valuesEqual compares two reading values of common scalar types; exotic or
// non-comparable values report false (treated as changed), which keeps the
// delta path conservative rather than wrong.
func valuesEqual(a, b any) bool {
	switch av := a.(type) {
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case int:
		bv, ok := b.(int)
		return ok && av == bv
	case int64:
		bv, ok := b.(int64)
		return ok && av == bv
	case float64:
		bv, ok := b.(float64)
		return ok && av == bv
	case float32:
		bv, ok := b.(float32)
		return ok && av == bv
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case uint64:
		bv, ok := b.(uint64)
		return ok && av == bv
	case int32:
		bv, ok := b.(int32)
		return ok && av == bv
	case uint32:
		bv, ok := b.(uint32)
		return ok && av == bv
	case time.Time:
		bv, ok := b.(time.Time)
		return ok && av.Equal(bv)
	default:
		// Named scalar types (DSL enums generate `type X string`) and
		// other comparable values fall through here: compare with Go
		// equality when both sides share a comparable dynamic type.
		// Non-comparable values (slices, maps) stay "changed".
		ta, tb := reflect.TypeOf(a), reflect.TypeOf(b)
		if ta == nil || ta != tb || !ta.Comparable() {
			return false
		}
		return a == b
	}
}

// dispatchDelta folds one round's delta, or one closed window, into the
// interaction's engine and dispatches the handler with the updated
// aggregate. Runs on the bus handler goroutine, serialized with every other
// delivery of this interaction. A round's upserts go through the per-slot
// engine handles, so only a slot's first upsert after a reset or a removal
// looks its device up by id.
func (p *poller) dispatchDelta(d aggDelta) {
	if p.core == nil {
		core, err := newAggCore(p.rt, p.ctx.Name, p.in)
		if err != nil {
			p.rt.reportError(p.ctx.Name, err)
			return
		}
		p.core = core
	}
	eng := p.core.eng
	if d.reset {
		p.core.reset()
		clear(p.handles[:cap(p.handles)])
		if cap(p.handles) < len(d.ids) {
			p.handles = make([]*mapreduce.Handle[string, any], len(d.ids))
		}
		p.handles = p.handles[:len(d.ids)]
	}
	for i := range d.out.readings {
		gr := &d.out.readings[i]
		if d.window {
			eng.Upsert(p.windowID(i), gr.Group, gr.Reading.Value)
			continue
		}
		slot := d.out.slots[i]
		h := p.handles[slot]
		if h == nil {
			h = eng.Input(gr.Reading.DeviceID)
			p.handles[slot] = h
		}
		eng.UpsertHandle(h, gr.Group, gr.Reading.Value)
	}
	for _, slot := range d.out.removed {
		eng.Remove(d.ids[slot])
		p.handles[slot] = nil
	}
	call := p.newCall(d.at)
	call.GroupedReduced, call.Grouped = p.core.flush()
	p.deliver(&call)
}

// windowID is the engine input id of window position i: fixed-width hex,
// so the engine's id-ordered replay presents values in window order
// (tick-major, then slot order), the order a batch run over the window
// gives them. Ids are cached across windows.
func (p *poller) windowID(i int) string {
	for len(p.winIDs) <= i {
		p.winIDs = append(p.winIDs, fmt.Sprintf("%08x", len(p.winIDs)))
	}
	return p.winIDs[i]
}

// refresh rescans the registry and rebuilds the snapshot when the fleet
// changed since it was built, or when the build could not reach an
// endpoint, and reports whether it did. Locals carry their resolved driver
// (and pre-resolved querier where supported), remotes are grouped per
// endpoint around the cached transport client. The generation is read
// before the scan, so any mutation racing the scan moves the generation
// past it and forces a rebuild on the next refresh.
func (v *fleetView) refresh(rt *Runtime) bool {
	gen := rt.reg.Generation(v.kind)
	if v.snap != nil && v.snap.gen == gen && !v.snap.incomplete.Load() {
		return false
	}
	items := v.scanBuf[:0]
	rt.reg.Scan(registry.Query{Kind: v.kind}, func(e registry.Entity) bool {
		items = append(items, scanItem{id: string(e.ID), endpoint: e.Endpoint, attrs: e.Attrs})
		return true
	})
	// Scan visits in shard order; restore ID order so reading positions —
	// and therefore the value order MapReduce presents to reducers — stay
	// deterministic across rounds and rebuilds.
	sort.Slice(items, func(i, j int) bool { return items[i].id < items[j].id })
	v.scanBuf = items

	snap := &pollSnapshot{
		gen:    gen,
		claim:  pollClaim,
		ids:    make([]string, 0, len(items)),
		groups: make([]string, 0, len(items)),
		attrs:  make([]registry.Attributes, 0, len(items)),
	}
	drvs := make([]device.Driver, len(items))
	ids := make([]string, len(items))
	for i := range items {
		ids[i] = items[i].id
	}
	rt.fleet.resolve(ids, drvs)

	remoteIdx := map[string]int{} // endpoint -> snap.remotes index
	for i := range items {
		it := &items[i]
		if drv := drvs[i]; drv != nil {
			t := pollTarget{drv: drv}
			if sq, ok := drv.(device.SnapshotQuerier); ok {
				if q, err := sq.Querier(v.source); err == nil {
					t.query = q
				}
			}
			if t.query == nil {
				snap.claim = 1 // drv may block in Query
			}
			snap.locals = append(snap.locals, t)
			snap.ids = append(snap.ids, it.id)
			snap.groups = append(snap.groups, it.attrs[v.groupAttr])
			snap.attrs = append(snap.attrs, it.attrs)
			continue
		}
		cli, err := rt.clientFor(it.id, it.endpoint)
		if err != nil {
			v.fail(it.id, err)
			snap.incomplete.Store(true)
			continue
		}
		bi, ok := remoteIdx[it.endpoint]
		if !ok {
			bi = len(snap.remotes)
			remoteIdx[it.endpoint] = bi
			snap.remotes = append(snap.remotes, endpointBatch{client: cli, endpoint: it.endpoint})
		}
		eb := &snap.remotes[bi]
		eb.ids = append(eb.ids, it.id)
		eb.groups = append(eb.groups, it.attrs[v.groupAttr])
		eb.attrs = append(eb.attrs, it.attrs)
	}
	for i := range snap.remotes {
		eb := &snap.remotes[i]
		eb.base = len(snap.ids)
		snap.ids = append(snap.ids, eb.ids...)
		snap.groups = append(snap.groups, eb.groups...)
		snap.attrs = append(snap.attrs, eb.attrs...)
	}
	snap.total = len(snap.ids)
	v.snap = snap
	return true
}

// round returns a round over snap, the current snapshot, with every slot
// unanswered. Its owner runs it: a poller through its worker pool, a pull
// site by calling work on its own goroutine.
func (v *fleetView) round(snap *pollSnapshot) *pollRound {
	if cap(v.vals) < snap.total {
		v.vals, v.ok = make([]any, snap.total), make([]bool, snap.total)
	}
	clear(v.ok)
	return &pollRound{v: v, snap: snap}
}

// pollRound is one round over a fleetView's snapshot: whoever runs work
// drains the remote batches, then the local targets in claims of
// snap.claim, through shared cursors, storing each answered slot in the
// view's vals/ok and sending each failure to its fail. A poller hands one
// round to several pool workers; pending counts outstanding hand-offs, and
// the last one closes done.
type pollRound struct {
	v    *fleetView
	snap *pollSnapshot

	localCur  atomic.Int64
	remoteCur atomic.Int64
	pending   atomic.Int64
	done      chan struct{}
}

func (p *poller) worker() {
	defer p.rt.wg.Done()
	for {
		select {
		case <-p.stopCh:
			return
		case r := <-p.rounds:
			r.work()
			if r.pending.Add(-1) == 0 {
				close(r.done)
			}
		}
	}
}

func (r *pollRound) work() {
	v, snap := r.v, r.snap
	for {
		i := int(r.remoteCur.Add(1)) - 1
		if i >= len(snap.remotes) {
			break
		}
		v.queryBatch(snap, &snap.remotes[i])
	}
	for {
		hi := int(r.localCur.Add(int64(snap.claim)))
		lo := hi - snap.claim
		if lo >= len(snap.locals) {
			break
		}
		for i := lo; i < min(hi, len(snap.locals)); i++ {
			t := &snap.locals[i]
			var val any
			var err error
			if t.query != nil {
				val, err = t.query()
			} else {
				val, err = t.drv.Query(v.source)
			}
			if err != nil {
				v.fail(snap.ids[i], err)
				continue
			}
			v.vals[i], v.ok[i] = val, true
		}
	}
}

// remoteBatchChunk bounds one QueryBatch request. Chunking keeps each
// request within the transport's per-call timeout regardless of fleet size,
// and lets the server interleave other requests (actuations, subscribes) on
// the shared connection between chunks instead of stalling behind one
// endpoint-wide batch.
const remoteBatchChunk = 256

// queryBatch answers every device of one remote endpoint of snap in
// remoteBatchChunk-sized round trips.
func (v *fleetView) queryBatch(snap *pollSnapshot, b *endpointBatch) {
	for lo := 0; lo < len(b.ids); lo += remoteBatchChunk {
		hi := lo + remoteBatchChunk
		if hi > len(b.ids) {
			hi = len(b.ids)
		}
		vals, errs, err := b.client.QueryBatch(b.ids[lo:hi], v.source)
		if err != nil {
			// One failed chunk loses only its own devices this round;
			// the remaining chunks are still attempted, preserving the
			// old per-device failure isolation (at chunk granularity).
			if errors.Is(err, transport.ErrConnLost) || errors.Is(err, transport.ErrClosed) {
				snap.incomplete.Store(true)
			}
			v.fail(b.endpoint, err)
			continue
		}
		for i := lo; i < hi; i++ {
			if j := i - lo; j < len(errs) && errs[j] != "" {
				v.fail(b.ids[i], errors.New(errs[j]))
				continue
			}
			var val any
			if j := i - lo; j < len(vals) {
				val = vals[j]
			}
			slot := b.base + i
			v.vals[slot], v.ok[slot] = val, true
		}
	}
}

// dispatch runs the context handler for one ungrouped periodic batch.
// Grouped interactions never get here: they ride the engine (dispatchDelta).
func (p *poller) dispatch(batch periodicBatch) {
	call := p.newCall(batch.at)
	rs := make([]device.Reading, len(batch.out.readings))
	for i, gr := range batch.out.readings {
		rs[i] = gr.Reading
	}
	call.Readings = rs
	p.deliver(&call)
}

// GroupKeys returns the sorted group keys of a grouped delivery; a helper
// for deterministic iteration in handlers and reports.
func GroupKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
