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
	"repro/internal/dsl/ast"
	"repro/internal/dsl/check"
	"repro/internal/eventbus"
	"repro/internal/registry"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// GroupedReading is one periodic reading tagged with the value of the
// `grouped by` attribute of its producing device.
type GroupedReading struct {
	Group   string
	Reading device.Reading
}

// periodicBatch is the payload delivered for one periodic interaction round.
type periodicBatch struct {
	readings []GroupedReading
	at       time.Time
}

func (rt *Runtime) sourceTopic(ctxName string, idx int) string {
	return fmt.Sprintf("%ssource/%s/%d", rt.topicPrefix, ctxName, idx)
}

func (rt *Runtime) periodicTopic(ctxName string, idx int) string {
	return fmt.Sprintf("%speriodic/%s/%d", rt.topicPrefix, ctxName, idx)
}

// ctxSite is the compiled dispatch state of one context interaction —
// everything name-keyed resolved once at wire time (the interaction, its
// publish mode, the context's publication site) plus the publications of
// the delivery being dispatched. Each owner serializes access: a bus
// subscription's drain goroutine for the provided and periodic call sites,
// provAgg.mu for grouped device sources.
type ctxSite struct {
	rt  *Runtime
	ctx *check.Context
	in  *check.Interaction
	idx int
	pub *pubSite

	// out accumulates what the handler publishes while one incoming
	// delivery is dispatched; flush hands it to the publication site as one
	// bus event. It is never held across deliveries.
	out *valueBatch
}

func (rt *Runtime) newCtxSite(ctx *check.Context, idx int, in *check.Interaction) ctxSite {
	return ctxSite{rt: rt, ctx: ctx, in: in, idx: idx, pub: rt.pubSites[ctx.Name]}
}

// newCall returns the delivery-independent part of a ContextCall.
func (cs *ctxSite) newCall(at time.Time) ContextCall {
	return ContextCall{
		ContextName:      cs.ctx.Name,
		Interaction:      cs.in,
		InteractionIndex: cs.idx,
		Time:             at,
		rt:               cs.rt,
	}
}

// handler resolves the context implementation — once per delivery, not per
// row.
func (cs *ctxSite) handler() ContextHandler { return cs.rt.contextHandler(cs.ctx.Name) }

// trigger invokes the handler for one call and applies the interaction's
// declared publish mode to its result.
func (cs *ctxSite) trigger(h ContextHandler, call *ContextCall) {
	value, wantPublish, err := h.OnTrigger(call)
	if err != nil {
		cs.rt.reportError(cs.ctx.Name, err)
		return
	}
	if cs.in.Publish == ast.AlwaysPublish || (cs.in.Publish == ast.MaybePublish && wantPublish) {
		if cs.out == nil {
			cs.out = newValueBatch()
		}
		cs.out.vals = append(cs.out.vals, value)
	}
}

// flush publishes what the delivery just dispatched produced, if anything.
func (cs *ctxSite) flush() {
	if b := cs.out; b != nil {
		cs.out = nil
		cs.pub.flush(b)
	}
}

// deliver dispatches a delivery that carries a single call (a periodic
// round, a grouped aggregate): its publication is a batch of one through the
// same site.
func (cs *ctxSite) deliver(call *ContextCall) {
	cs.rt.stats.contextTriggers.Add(1)
	if h := cs.handler(); h != nil {
		cs.trigger(h, call)
		cs.flush()
	}
}

// wireProvided wires one `when provided` interaction: a bus subscription for
// context-to-context arrows, or — for device sources — the sharded ingestion
// pipeline (see ingest.go) funneled through the bus topic. Grouped device
// sources route each event through the interaction's incremental aggregate
// (agg.go) so the handler sees a continuously maintained per-group state.
func (rt *Runtime) wireProvided(ctx *check.Context, idx int, in *check.Interaction) error {
	if in.TriggerKind == check.FromContext {
		cs := &ctxValueSite{ctxSite: rt.newCtxSite(ctx, idx, in)}
		cs.call = cs.newCall(time.Time{})
		return rt.subscribe(rt.pubSites[in.TriggerCtx.Name].topic, cs.onEvent)
	}

	// One pre-classified call site per (kind, source) interaction: the
	// payload type is switched once per delivery, the handler is looked up
	// once per batch, and the ContextCall/Reading scratch is reused across
	// the whole batch — the bus serializes one subscription's handler, so
	// the scratch is single-writer (SNIPPETS.md snippet 1's
	// cache-everything-per-site idiom).
	cs := &provCallSite{ctxSite: rt.newCtxSite(ctx, idx, in)}
	cs.call = cs.newCall(time.Time{})
	cs.call.Reading = &cs.scratch
	onEvent := cs.onEvent
	if in.GroupBy != nil {
		pa, err := rt.newProvAgg(ctx, idx, in)
		if err != nil {
			return err
		}
		onEvent = func(ev eventbus.Event) {
			pa.onBatch(ev.Payload.(*device.ReadingBatch)) // ingestor.flush is the topic's only publisher
		}
	}

	topic := rt.sourceTopic(ctx.Name, idx)
	// The ingestion workers publish whole bursts; a deeper queue lets them
	// run ahead of the handler within the interaction's qos budget instead
	// of blocking after the default 64 events.
	if err := rt.subscribe(topic, onEvent, eventbus.WithQueue(sourceTopicQueue)); err != nil {
		return err
	}
	ing := rt.newIngestor(topic)
	// Index the pipeline by (kind, source) so federation peers can land
	// forwarded batches for this interaction through RemoteIngest.
	rt.mu.Lock()
	key := ingestKey(in.TriggerDevice.Name, in.TriggerSource.Name)
	rt.ingestByKey[key] = append(rt.ingestByKey[key], ing)
	rt.mu.Unlock()
	return rt.trackDeviceSource(in.TriggerDevice.Name, in.TriggerSource.Name, ing)
}

// sourceTopicQueue is the bus queue depth of one device-source topic.
const sourceTopicQueue = 1024

// provCallSite is the dispatch call site of one ungrouped `when provided`
// device interaction. All of its state is touched only from the owning bus
// subscription's drain goroutine, so the call scratch is reused across
// events with zero allocation: a typed ReadingBatch row is materialized
// into scratch (boxing bool values is free), handed to the handler through
// the reused ContextCall — filled once at wire time, only Time moves per
// row — and its publication appended to the delivery's outgoing value
// batch. Handlers borrow the call — retaining it or the Reading past
// OnTrigger's return is a contract violation (the same borrow rule as the
// batch payload itself).
type provCallSite struct {
	ctxSite

	scratch device.Reading
	call    ContextCall
}

// onEvent runs the handler once per row with the handler cached for the
// whole batch — the fast path of the storm benchmarks — and publishes the
// rows' results as one value batch.
func (cs *provCallSite) onEvent(ev eventbus.Event) {
	b := ev.Payload.(*device.ReadingBatch) // ingestor.flush is the topic's only publisher
	n := b.Len()
	cs.rt.stats.contextTriggers.Add(uint64(n))
	h := cs.handler()
	if h == nil {
		return
	}
	for i := 0; i < n; i++ {
		b.FillRow(i, &cs.scratch)
		cs.call.Time = cs.scratch.Time
		cs.trigger(h, &cs.call)
	}
	cs.flush()
}

// ctxValueSite is the dispatch call site of one context-to-context `when
// provided` interaction: it walks an upstream context's value batch row by
// row through one reused ContextCall (only Value and Time move) and
// accumulates its own publications into one outgoing batch, so a chain
// context→context→controller stays batched end to end. Drain-goroutine-only,
// like provCallSite.
type ctxValueSite struct {
	ctxSite

	call ContextCall
}

func (cs *ctxValueSite) onEvent(ev eventbus.Event) {
	b := ev.Payload.(*valueBatch) // pubSite.flush is the topic's only publisher
	cs.rt.stats.contextTriggers.Add(uint64(len(b.vals)))
	h := cs.handler()
	if h == nil {
		return
	}
	cs.call.Time = ev.Time
	for _, v := range b.vals {
		cs.call.Value = v
		cs.trigger(h, &cs.call)
	}
	cs.call.Value = nil // the upstream batch recycles; do not pin its last value
	cs.flush()
}

// poller drives one `when periodic` interaction. Steady-state work is
// proportional to fleet size only in queries issued, not in bookkeeping: the
// fleet snapshot is cached across ticks (keyed on the registry's kind
// generation), drivers are resolved at snapshot-rebuild time, queries run on
// a persistent worker pool, and the out/ok/readings buffers are reused
// across rounds.
type poller struct {
	ctxSite  // dispatch side (bus-handler goroutine) owns out
	stopCh   chan struct{}
	stopOnce sync.Once

	// Every-window accumulation.
	window     []GroupedReading
	ticksInWin int
	flushEvery int

	// snap is the cached fleet snapshot; only the poller goroutine reads
	// or replaces it.
	snap *pollSnapshot

	// Incremental aggregation (every grouped interaction): the dispatch
	// side folds deltas into the interaction's engine (core). Round by
	// round, the poll loop diffs each round's readings against the
	// per-slot last-value cache below and publishes only the deltas. The
	// cache is keyed to the snapshot epoch — a rebuild (fleet change)
	// invalidates it and the next delta resets the engine and re-feeds
	// the full round. An `every` window is delivered as one reset delta
	// holding the whole window instead.
	aggOn     bool
	prevVals  []any
	prevOk    []bool
	snapEpoch uint64
	prevEpoch uint64   // epoch prevVals/prevOk describe; differs => reset
	core      *aggCore // owned by the dispatch (bus-handler) side
	winIDs    []string // window position ids; dispatch side only

	// Persistent query pool: up to workers goroutines block on rounds and
	// work-steal targets through the round's cursors. The pool grows
	// lazily with the snapshot's work units (started counts live workers),
	// so small fleets never park 32 idle goroutines.
	workers int
	started int
	rounds  chan *pollRound

	// Scratch reused across rebuilds/rounds; poller goroutine only,
	// except out/ok which the pool workers fill during a round.
	scanBuf []scanItem
	outBuf  []GroupedReading
	okBuf   []bool

	// readingsPool recycles the per-round readings slice once dispatch
	// has consumed the batch.
	readingsPool sync.Pool
}

func (rt *Runtime) startPoller(ctx *check.Context, idx int, in *check.Interaction) {
	p := &poller{
		ctxSite: rt.newCtxSite(ctx, idx, in),
		stopCh:  make(chan struct{}),
		workers: rt.pollWorkers,
	}
	if in.Every > 0 {
		p.flushEvery = int(in.Every / in.Period)
	}
	p.aggOn = in.GroupBy != nil
	// Deliver batches through the bus so handler invocations for this
	// interaction are serialized like every other delivery. dispatch fully
	// copies the batch out, so the readings buffer is recycled afterwards.
	if err := rt.subscribe(rt.periodicTopic(ctx.Name, idx), func(ev eventbus.Event) {
		switch batch := ev.Payload.(type) {
		case periodicBatch:
			p.dispatch(batch)
			p.putReadings(batch.readings)
		case aggDelta:
			p.dispatchDelta(batch)
			p.putReadings(batch.upserts)
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
	if p.flushEvery == 0 || len(p.window) == 0 {
		return
	}
	readings := p.window
	p.window = nil
	p.ticksInWin = 0
	p.publish(readings, p.rt.clock.Now())
}

// scanItem is what one registry-scan visit captures during a snapshot
// rebuild.
type scanItem struct {
	id       string
	endpoint string
	group    string
}

// pollTarget is one locally bound device of the snapshot, with its driver —
// and, when the driver supports it, its pre-resolved query function —
// already in hand so a steady-state tick touches no runtime lock.
type pollTarget struct {
	id    string
	group string
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
	base     int // first slot of this batch in the round's out/ok buffers
}

// pollSnapshot is the cached fleet of one periodic interaction, valid while
// the registry generation for the trigger kind stays at gen.
type pollSnapshot struct {
	gen     uint64
	locals  []pollTarget
	remotes []endpointBatch
	total   int
	// ids maps round slots back to device IDs; filled only for
	// incrementally aggregated interactions (removal deltas name devices).
	ids []string
	// incomplete marks a snapshot missing targets whose endpoint could
	// not be dialed; the next tick rebuilds (and so redials) even with an
	// unchanged generation, matching the old per-round retry behavior.
	incomplete bool
}

// poll queries every bound device of the trigger kind through the worker
// pool and either delivers the batch immediately or accumulates it into the
// `every` window. With an unchanged fleet this performs no registry scan, no
// sort and no target allocation — the generation check is the only registry
// interaction. Grouped interactions without a window publish the round's
// per-slot diff (changed readings + dropped-out devices) instead of the
// full batch.
func (p *poller) poll(at time.Time) {
	gen := p.rt.reg.Generation(p.in.TriggerDevice.Name)
	if p.snap == nil || p.snap.gen != gen || p.snap.incomplete {
		p.rebuild(gen)
	}
	snap := p.snap

	if snap.total > 0 && !p.runRound(at, snap) {
		return // stopped mid-round
	}
	p.rt.stats.periodicPolls.Add(1)

	if p.aggOn && p.flushEvery == 0 {
		p.publishDelta(at, snap)
		return
	}

	var readings []GroupedReading
	if snap.total > 0 {
		out := p.outBuf[:snap.total]
		kept := p.getReadings()
		if cap(kept) < snap.total {
			kept = make([]GroupedReading, 0, snap.total)
		}
		for i, good := range p.okBuf[:snap.total] {
			if good {
				kept = append(kept, out[i])
			}
		}
		readings = kept
	}

	if p.flushEvery > 0 {
		p.window = append(p.window, readings...)
		p.putReadings(readings) // copied into the window; recycle now
		p.ticksInWin++
		if p.ticksInWin < p.flushEvery {
			return
		}
		readings = p.window
		p.window = nil
		p.ticksInWin = 0
	}
	p.publish(readings, at)
}

// publish delivers one round or one closed `every` window: as a
// periodicBatch to an ungrouped interaction, and to a grouped one as a reset
// delta that rebuilds the engine from exactly these readings, so no reading
// outlives its window.
func (p *poller) publish(readings []GroupedReading, at time.Time) {
	var payload any = periodicBatch{readings: readings, at: at}
	if p.aggOn {
		payload = aggDelta{upserts: readings, reset: true, window: true, at: at}
	}
	if err := p.rt.bus.Publish(p.rt.periodicTopic(p.ctx.Name, p.idx), payload, at); err != nil {
		p.putReadings(readings)
	}
}

// runRound executes one query round over the snapshot through the worker
// pool, filling p.outBuf/p.okBuf per slot. It reports false when the poller
// stopped before the round completed.
func (p *poller) runRound(at time.Time, snap *pollSnapshot) bool {
	if cap(p.outBuf) < snap.total {
		p.outBuf = make([]GroupedReading, snap.total)
		p.okBuf = make([]bool, snap.total)
	}
	out := p.outBuf[:snap.total]
	ok := p.okBuf[:snap.total]
	for i := range ok {
		ok[i] = false
	}
	round := &pollRound{
		p:      p,
		snap:   snap,
		at:     at,
		source: p.in.TriggerSource.Name,
		out:    out,
		ok:     ok,
		done:   make(chan struct{}),
	}
	// Hand the round to at most one worker per unit of work (remote
	// batches + local targets) so small fleets don't wake the whole
	// pool for one query's worth of polling; grow the pool to match.
	// p.rt.wg stays >0 for the poller's own goroutine while poll
	// runs, so Add here cannot race a Stop-side Wait reaching zero.
	hands := len(snap.remotes) + len(snap.locals)
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

// aggDelta is the payload of one incrementally aggregated round: the
// readings whose value changed since the previous round, the devices that
// answered last round but not this one, and whether the dispatch-side
// engine must reset first (snapshot rebuilt: slots renumbered, fleet
// membership changed — the whole round rides in upserts). A window delta
// carries a whole closed `every` window, reset included; its upserts are
// keyed by window position, since one device contributes once per tick.
type aggDelta struct {
	upserts  []GroupedReading
	removals []string
	reset    bool
	window   bool
	at       time.Time
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
		for i := range p.prevOk {
			p.prevOk[i] = false
			p.prevVals[i] = nil
		}
		p.prevEpoch = p.snapEpoch
	}
	ups := p.getReadings()
	var removals []string
	out := p.outBuf[:snap.total]
	ok := p.okBuf[:snap.total]
	for i := 0; i < snap.total; i++ {
		if ok[i] {
			if !p.prevOk[i] || !valuesEqual(p.prevVals[i], out[i].Reading.Value) {
				ups = append(ups, out[i])
				p.prevVals[i] = out[i].Reading.Value
				p.prevOk[i] = true
			}
		} else if p.prevOk[i] {
			// Answered last round, failed this one: its value drops out of
			// the aggregate until it answers again, matching the batch
			// path's per-round membership.
			removals = append(removals, snap.ids[i])
			p.prevOk[i] = false
			p.prevVals[i] = nil
		}
	}
	batch := aggDelta{upserts: ups, removals: removals, reset: reset, at: at}
	if err := p.rt.bus.Publish(p.rt.periodicTopic(p.ctx.Name, p.idx), batch, at); err != nil {
		p.putReadings(ups)
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
// delivery of this interaction.
func (p *poller) dispatchDelta(d aggDelta) {
	if p.core == nil {
		core, err := newAggCore(p.rt, p.ctx.Name, p.in)
		if err != nil {
			p.rt.reportError(p.ctx.Name, err)
			return
		}
		p.core = core
	}
	if d.reset {
		p.core.reset()
	}
	for i := range d.upserts {
		gr := &d.upserts[i]
		id := gr.Reading.DeviceID
		if d.window {
			id = p.windowID(i)
		}
		p.core.eng.Upsert(id, gr.Group, gr.Reading.Value)
	}
	for _, id := range d.removals {
		p.core.eng.Remove(id)
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

// rebuild rescans the registry and rebuilds the fleet snapshot: locals carry
// their resolved driver (and pre-resolved querier where supported), remotes
// are grouped per endpoint around the cached transport client. gen is the
// generation observed before the scan, so any mutation racing the scan moves
// the generation past it and forces a rebuild on the next tick.
func (p *poller) rebuild(gen uint64) {
	groupAttr := ""
	if p.in.GroupBy != nil {
		groupAttr = p.in.GroupBy.Name
	}
	items := p.scanBuf[:0]
	p.rt.reg.Scan(registry.Query{Kind: p.in.TriggerDevice.Name}, func(e registry.Entity) bool {
		items = append(items, scanItem{
			id:       string(e.ID),
			endpoint: e.Endpoint,
			group:    e.Attrs[groupAttr],
		})
		return true
	})
	// Scan visits in shard order; restore ID order so reading positions —
	// and therefore the value order MapReduce presents to reducers — stay
	// deterministic across rounds and rebuilds.
	sort.Slice(items, func(i, j int) bool { return items[i].id < items[j].id })
	p.scanBuf = items

	snap := &pollSnapshot{gen: gen}
	source := p.in.TriggerSource.Name
	drvs := make([]device.Driver, len(items))
	ids := make([]string, len(items))
	for i := range items {
		ids[i] = items[i].id
	}
	p.rt.fleet.resolve(ids, drvs)

	var remoteIdx map[string]int // endpoint -> snap.remotes index
	for i := range items {
		it := &items[i]
		if drv := drvs[i]; drv != nil {
			t := pollTarget{id: it.id, group: it.group, drv: drv}
			if sq, ok := drv.(device.SnapshotQuerier); ok {
				if q, err := sq.Querier(source); err == nil {
					t.query = q
				}
			}
			snap.locals = append(snap.locals, t)
			continue
		}
		cli, err := p.rt.clientFor(it.id, it.endpoint)
		if err != nil {
			p.rt.reportError("poll:"+it.id, err)
			snap.incomplete = true
			continue
		}
		if remoteIdx == nil {
			remoteIdx = make(map[string]int)
		}
		bi, ok := remoteIdx[it.endpoint]
		if !ok {
			bi = len(snap.remotes)
			remoteIdx[it.endpoint] = bi
			snap.remotes = append(snap.remotes, endpointBatch{client: cli, endpoint: it.endpoint})
		}
		eb := &snap.remotes[bi]
		eb.ids = append(eb.ids, it.id)
		eb.groups = append(eb.groups, it.group)
	}
	base := len(snap.locals)
	for i := range snap.remotes {
		snap.remotes[i].base = base
		base += len(snap.remotes[i].ids)
	}
	snap.total = base
	if p.aggOn {
		snap.ids = make([]string, snap.total)
		for i := range snap.locals {
			snap.ids[i] = snap.locals[i].id
		}
		for i := range snap.remotes {
			eb := &snap.remotes[i]
			copy(snap.ids[eb.base:], eb.ids)
		}
	}
	p.snap = snap
	p.snapEpoch++
	p.rt.stats.pollSnapshotRebuilds.Add(1)
}

// pollRound is one tick's unit of pool work: workers drain the remote
// batches, then the local targets, through shared cursors. pending counts
// outstanding worker hand-offs; the last one closes done.
type pollRound struct {
	p      *poller
	snap   *pollSnapshot
	at     time.Time
	source string
	out    []GroupedReading
	ok     []bool

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
	snap := r.snap
	for {
		i := int(r.remoteCur.Add(1)) - 1
		if i >= len(snap.remotes) {
			break
		}
		r.queryBatch(&snap.remotes[i])
	}
	for {
		i := int(r.localCur.Add(1)) - 1
		if i >= len(snap.locals) {
			break
		}
		t := &snap.locals[i]
		var v any
		var err error
		if t.query != nil {
			v, err = t.query()
		} else {
			v, err = t.drv.Query(r.source)
		}
		if err != nil {
			r.p.rt.reportError("poll:"+t.id, err)
			continue
		}
		r.out[i] = GroupedReading{
			Group: t.group,
			Reading: device.Reading{
				DeviceID: t.id,
				Source:   r.source,
				Value:    v,
				Time:     r.at,
			},
		}
		r.ok[i] = true
	}
}

// remoteBatchChunk bounds one QueryBatch request. Chunking keeps each
// request within the transport's per-call timeout regardless of fleet size,
// and lets the server interleave other requests (actuations, subscribes) on
// the shared connection between chunks instead of stalling behind one
// endpoint-wide batch.
const remoteBatchChunk = 256

// queryBatch answers every device of one remote endpoint in
// remoteBatchChunk-sized round trips.
func (r *pollRound) queryBatch(b *endpointBatch) {
	for lo := 0; lo < len(b.ids); lo += remoteBatchChunk {
		hi := lo + remoteBatchChunk
		if hi > len(b.ids) {
			hi = len(b.ids)
		}
		vals, errs, err := b.client.QueryBatch(b.ids[lo:hi], r.source)
		if err != nil {
			// One failed chunk loses only its own devices this round;
			// the remaining chunks are still attempted, preserving the
			// old per-device failure isolation (at chunk granularity).
			r.p.rt.reportError("poll:"+b.endpoint, err)
			continue
		}
		for i := lo; i < hi; i++ {
			if j := i - lo; j < len(errs) && errs[j] != "" {
				r.p.rt.reportError("poll:"+b.ids[i], errors.New(errs[j]))
				continue
			}
			var v any
			if j := i - lo; j < len(vals) {
				v = vals[j]
			}
			slot := b.base + i
			r.out[slot] = GroupedReading{
				Group: b.groups[i],
				Reading: device.Reading{
					DeviceID: b.ids[i],
					Source:   r.source,
					Value:    v,
					Time:     r.at,
				},
			}
			r.ok[slot] = true
		}
	}
}

func (p *poller) getReadings() []GroupedReading {
	if v := p.readingsPool.Get(); v != nil {
		return (*v.(*[]GroupedReading))[:0]
	}
	return nil
}

func (p *poller) putReadings(rs []GroupedReading) {
	if rs == nil {
		return
	}
	rs = rs[:0]
	p.readingsPool.Put(&rs)
}

// dispatch runs the context handler for one ungrouped periodic batch.
// Grouped interactions never get here: they ride the engine (dispatchDelta).
func (p *poller) dispatch(batch periodicBatch) {
	call := p.newCall(batch.at)
	rs := make([]device.Reading, len(batch.readings))
	for i, gr := range batch.readings {
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
