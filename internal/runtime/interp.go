package runtime

import (
	"sync"

	"repro/internal/dsl/check"
	"repro/internal/mapreduce"
)

// This file is the interpreted dispatch path: generic handlers derived from
// the checked model alone, with no generated code and no user implementation.
// They make hot deploy cheap — `diaspecc host deploy` can parse + check +
// bind a .diaspec design into a live Host in one step, because every
// declared component has a workable default implementation. Codegen
// (internal/codegen) and hand-written handlers install over these simply by
// being present in AppConfig; AutoImplement only fills the gaps.

// interpContext is the interpreted implementation of one declared context.
// OnTrigger derives a value from whatever the delivery carries (reading
// value, context value, periodic batch, grouped aggregate) and offers it for
// publication — the design's publish mode (always/maybe/no publish) then
// decides whether it travels. A context declaring `when required` also
// retains the value as its last state to serve pulls; that is decided once
// at Deploy time (required), so the per-event path of every other context
// takes no lock. The MapReduce facet counts readings per group (an
// invertible sum, so incremental aggregation and federation agg_sync both
// apply).
type interpContext struct {
	required bool // the design declares `when required`: keep last for pulls

	mu   sync.Mutex
	last any
}

// interpValue normalizes one delivery into a retainable value. Grouped maps
// are engine-owned and only valid for the call, so they are copied out.
func interpValue(call *ContextCall) any {
	switch {
	case call.GroupedReduced != nil:
		out := make(map[string]any, len(call.GroupedReduced))
		for k, v := range call.GroupedReduced {
			out[k] = v
		}
		return out
	case call.Grouped != nil:
		out := make(map[string][]any, len(call.Grouped))
		for k, vs := range call.Grouped {
			out[k] = append([]any(nil), vs...)
		}
		return out
	case call.Readings != nil:
		vals := make([]any, len(call.Readings))
		for i, r := range call.Readings {
			vals[i] = r.Value
		}
		return vals
	case call.Reading != nil:
		return call.Reading.Value
	default:
		return call.Value
	}
}

// OnTrigger derives and republishes the interpreted value of a delivery.
func (h *interpContext) OnTrigger(call *ContextCall) (any, bool, error) {
	v := interpValue(call)
	if h.required {
		h.mu.Lock()
		h.last = v
		h.mu.Unlock()
	}
	return v, true, nil
}

// OnRequired serves `get <Context>` pulls with the last derived value.
func (h *interpContext) OnRequired(*ContextCall) (any, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last, nil
}

// Map emits one unit per reading; Reduce sums them — so a `with map …
// reduce …` design interprets as a per-group event count.
func (h *interpContext) Map(key string, _ any, emit func(string, any)) {
	emit(key, 1)
}

// Reduce sums the mapped units into the per-group count.
func (h *interpContext) Reduce(key string, values []any, emit func(string, any)) {
	sum := 0
	for _, v := range values {
		if n, ok := v.(int); ok {
			sum += n
		}
	}
	emit(key, sum)
}

// The count monoid, lifted once from its typed form: the interpreted
// context's partials stay int all the way through the incremental engine
// and federation agg_sync, with the dynamic-type assertions centralized in
// the mapreduce adapters.
var (
	combineCount   = mapreduce.TypedCombine[string, int](func(_ string, a, b int) int { return a + b })
	uncombineCount = mapreduce.TypedUncombine[string, int](func(_ string, acc, v int) int { return acc - v })
)

// Combine/Uncombine declare the count associative and invertible, enabling
// the O(1) incremental path and federation partial-aggregate sync.
func (h *interpContext) Combine(key string, a, b any) any {
	return combineCount(key, a, b)
}

// Uncombine subtracts a retired reading's unit from the running count.
func (h *interpContext) Uncombine(key string, acc, v any) any {
	return uncombineCount(key, acc, v)
}

// interpController is the interpreted controller: it accepts deliveries and
// actuates nothing (a design's `do … on …` effects need application logic;
// the interpreter has none to offer).
type interpController struct{}

// OnContext accepts the delivery and does nothing, by design.
func (interpController) OnContext(*ControllerCall) error { return nil }

// autoImplement fills every declared component that has no installed
// implementation with its interpreted counterpart. Runs after AppConfig's
// explicit handlers are installed, so it never shadows real code.
func (rt *Runtime) autoImplement(model *check.Model) error {
	rt.mu.Lock()
	haveCtx := make(map[string]bool, len(rt.contexts))
	for name := range rt.contexts {
		haveCtx[name] = true
	}
	haveCtrl := make(map[string]bool, len(rt.controllers))
	for name := range rt.controllers {
		haveCtrl[name] = true
	}
	rt.mu.Unlock()
	for name, ctx := range model.Contexts {
		if haveCtx[name] {
			continue
		}
		if err := rt.ImplementContext(name, &interpContext{required: ctx.Required}); err != nil {
			return err
		}
	}
	for name := range model.Controllers {
		if haveCtrl[name] {
			continue
		}
		if err := rt.ImplementController(name, interpController{}); err != nil {
			return err
		}
	}
	return nil
}
