package runtime

import (
	"time"

	"repro/internal/device"
	"repro/internal/dsl/ast"
	"repro/internal/dsl/check"
	"repro/internal/eventbus"
)

// GroupedReading is one periodic reading tagged with the value of the
// `grouped by` attribute of its producing device.
type GroupedReading struct {
	Group   string
	Reading device.Reading
}

// ctxSite is the compiled dispatch state of one context interaction —
// everything name-keyed resolved once at wire time (the interaction, its
// publish mode, the context's publication site) plus the publications of
// the delivery being dispatched. Each owner serializes access: the ingest
// flush worker, a poller's dispatch worker or a bus subscription's drain
// goroutine for the call sites, provAgg.mu for grouped device sources.
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
	cs.rt.stats[statContextTriggers].Add(1)
	if h := cs.handler(); h != nil {
		cs.trigger(h, call)
		cs.flush()
	}
}

// wireProvided wires one `when provided` interaction: a bus subscription for
// context-to-context arrows, or — for device sources — the sharded ingestion
// pipeline (see ingest.go) calling the site directly. Grouped device sources
// route each event through the interaction's incremental aggregate (agg.go)
// so the handler sees a continuously maintained per-group state.
func (rt *Runtime) wireProvided(ctx *check.Context, idx int, in *check.Interaction) error {
	if in.TriggerKind == check.FromContext {
		cs := &ctxValueSite{ctxSite: rt.newCtxSite(ctx, idx, in)}
		cs.call = cs.newCall(time.Time{})
		_, err := rt.bus.Subscribe(rt.pubSites[in.TriggerCtx.Name].topic, cs.onEvent)
		return err
	}

	// One pre-classified call site per (kind, source) interaction: the
	// handler is looked up once per batch, and the ContextCall/Reading
	// scratch is reused across the whole batch — the interaction's one
	// flush worker runs the call site, so the scratch is single-writer
	// (SNIPPETS.md snippet 1's cache-everything-per-site idiom).
	var dispatch func(*device.ReadingBatch)
	var pa *provAgg
	if in.GroupBy == nil {
		cs := &provCallSite{ctxSite: rt.newCtxSite(ctx, idx, in)}
		cs.call = cs.newCall(time.Time{})
		cs.call.Reading = &cs.scratch
		dispatch = cs.onBatch
	} else {
		var err error
		if pa, err = rt.newProvAgg(ctx, idx, in); err != nil {
			return err
		}
		dispatch = pa.onBatch
	}
	ing := rt.newIngestor(dispatch)
	// Index the pipeline by (kind, source) so federation peers can land
	// forwarded batches for this interaction through RemoteIngest.
	rt.mu.Lock()
	key := ingestKey(in.TriggerDevice.Name, in.TriggerSource.Name)
	rt.ingestByKey[key] = append(rt.ingestByKey[key], ing)
	rt.mu.Unlock()
	return rt.trackDeviceSource(in.TriggerDevice.Name, in.TriggerSource.Name, ing, pa)
}

// provCallSite is the dispatch call site of one ungrouped `when provided`
// device interaction. All of its state is touched only from the
// interaction's ingest flush worker, so the call scratch is reused across
// batches with zero allocation: a typed ReadingBatch row is materialized
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

// onBatch runs the handler once per row with the handler cached for the
// whole batch — the fast path of the storm benchmarks — and publishes the
// rows' results as one value batch.
func (cs *provCallSite) onBatch(b *device.ReadingBatch) {
	n := b.Len()
	cs.rt.stats[statContextTriggers].Add(uint64(n))
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
// context→context→controller stays batched end to end. Its bus
// subscription's drain goroutine is its only caller.
type ctxValueSite struct {
	ctxSite

	call ContextCall
}

func (cs *ctxValueSite) onEvent(ev eventbus.Event) {
	b := ev.Payload.(*valueBatch) // pubSite.flush is the topic's only publisher
	cs.rt.stats[statContextTriggers].Add(uint64(len(b.vals)))
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
