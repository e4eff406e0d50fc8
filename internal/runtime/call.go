package runtime

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/dsl/check"
	"repro/internal/registry"
)

// ContextCall carries one delivery to a context handler plus the
// query-driven pull interface scoped to the interaction's declared `get`
// clauses — the runtime equivalent of the paper's generated `discover`
// parameter (Figure 9: "exposes a specialized interface to querying the
// current consumption of the cooker").
//
// A ContextCall — and the Reading it points to — is borrowed for the
// duration of OnTrigger: event-driven call sites refill one call per row of
// a delivered batch, so handlers copy what they keep.
type ContextCall struct {
	// ContextName is the receiving context.
	ContextName string
	// Interaction is the resolved design clause being delivered.
	Interaction *check.Interaction
	// InteractionIndex is the position of Interaction in the context's
	// declaration; generated adapters dispatch on it.
	InteractionIndex int
	// Reading is the triggering device reading for event-driven
	// device-source deliveries; nil otherwise — including deliveries of
	// grouped device-source interactions triggered by a federation
	// partial-aggregate merge (RemoteAggregate) or a fleet-change
	// retraction, which have no local triggering reading. Grouped
	// handlers must nil-check before dereferencing.
	Reading *device.Reading
	// Group is the triggering device's `grouped by` attribute value for
	// grouped device-source deliveries ("" when Reading is nil). It keys
	// the entry of Grouped/GroupedReduced the event just updated, so
	// per-event consumers can react in O(group) instead of rescanning
	// the whole aggregate.
	Group string
	// Value is the triggering context value for context-to-context
	// deliveries; nil otherwise.
	Value any
	// Readings holds one periodic round of ungrouped readings.
	Readings []device.Reading
	// Grouped holds the delivery grouped by the `grouped by` attribute
	// (raw values per group), when no MapReduce is declared. For
	// incrementally aggregated interactions (grouped periodic rounds
	// without an `every` window, and grouped device-source events) the
	// map is the engine's continuously maintained state: it is valid only
	// for the duration of the call and must be copied to be retained.
	Grouped map[string][]any
	// GroupedReduced holds the MapReduce output per group for
	// `with map … reduce …` interactions (paper Figure 10's
	// onPeriodicPresence map parameter). Same ownership rule as Grouped:
	// incrementally maintained, copy to retain past the call.
	GroupedReduced map[string]any
	// Time is the delivery time (for context-to-context deliveries, the one
	// stamp of the upstream flush the value travelled in).
	Time time.Time

	rt *Runtime
}

// SourceValue is one device's answer to a query-driven pull.
type SourceValue struct {
	DeviceID string
	Attrs    registry.Attributes
	Value    any
}

// QueryDevice performs the interaction's declared `get <source> from
// <Device>` pull: every bound device of that kind is queried and the
// answers returned in device ID order, each with its own copy of the
// device's attributes. It fails if the design does not declare the pull,
// keeping implementations conformant with their design, and when no device
// answered, with the first failure.
func (c *ContextCall) QueryDevice(deviceKind, source string) ([]SourceValue, error) {
	for _, g := range c.Interaction.Gets {
		if g.Kind == check.FromDeviceSource && g.Device.Name == deviceKind && g.Source.Name == source {
			return c.rt.pullSites[g].pull()
		}
	}
	return nil, fmt.Errorf("runtime: context %s: design declares no 'get %s from %s' in this interaction",
		c.ContextName, source, deviceKind)
}

// pullSite serves one declared `get <source> from <Device>` through the
// fleetView a periodic poller uses: the snapshot is rebuilt on the first
// pull after the fleet changed, and each pull is one round run on the
// calling handler's goroutine — remote devices in one QueryBatch per
// endpoint chunk, locals through their querier functions. mu serializes
// pulls; a pull's failures go to its caller, not to the runtime's error
// handler.
type pullSite struct {
	mu sync.Mutex
	rt *Runtime
	fleetView
	err error // first failure of the pull in progress
}

// compilePullSitesLocked builds the pull site of every declared device-source
// get, keyed by its clause. Caller holds rt.mu.
func (rt *Runtime) compilePullSitesLocked() {
	rt.pullSites = make(map[*check.Get]*pullSite)
	for _, ctx := range rt.model.Contexts {
		for _, in := range ctx.Interactions {
			for _, g := range in.Gets {
				if g.Kind == check.FromDeviceSource {
					s := &pullSite{rt: rt, fleetView: fleetView{kind: g.Device.Name, source: g.Source.Name}}
					s.fail = func(_ string, err error) { s.err = cmp.Or(s.err, err) } // keep the first
					rt.pullSites[g] = s
				}
			}
		}
	}
}

func (s *pullSite) pull() ([]SourceValue, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.err = nil
	s.refresh(s.rt)
	snap := s.snap
	s.round(snap).work()
	out := make([]SourceValue, 0, snap.total)
	for i, good := range s.ok[:snap.total] {
		if good {
			out = append(out, SourceValue{DeviceID: snap.ids[i], Attrs: snap.attrs[i].Clone(), Value: s.vals[i]})
		}
	}
	if len(snap.remotes) > 0 { // slots hold the locals, then each endpoint's batch: merge them into ID order
		slices.SortFunc(out, func(a, b SourceValue) int { return strings.Compare(a.DeviceID, b.DeviceID) })
	}
	if len(out) == 0 && s.err != nil {
		return nil, s.err
	}
	return out, nil
}

// QueryDeviceOne is QueryDevice for designs that expect exactly one bound
// device (e.g. the home's single Cooker).
func (c *ContextCall) QueryDeviceOne(deviceKind, source string) (any, error) {
	vs, err := c.QueryDevice(deviceKind, source)
	if err != nil {
		return nil, err
	}
	if len(vs) != 1 {
		return nil, fmt.Errorf("runtime: context %s: get %s from %s matched %d devices, want exactly 1",
			c.ContextName, source, deviceKind, len(vs))
	}
	return vs[0].Value, nil
}

// QueryContext performs the interaction's declared `get <Context>` pull by
// invoking the target context's RequiredHandler.
func (c *ContextCall) QueryContext(name string) (any, error) {
	var g *check.Get
	for _, cand := range c.Interaction.Gets {
		if cand.Kind == check.FromContext && cand.Context.Name == name {
			g = cand
			break
		}
	}
	if g == nil {
		return nil, fmt.Errorf("runtime: context %s: design declares no 'get %s' in this interaction",
			c.ContextName, name)
	}
	h := c.rt.contextHandler(name)
	rh, ok := h.(RequiredHandler)
	if !ok {
		return nil, fmt.Errorf("runtime: context %s does not serve pulls", name)
	}
	return rh.OnRequired(&ContextCall{
		ContextName: name,
		Time:        c.rt.clock.Now(),
		rt:          c.rt,
	})
}
