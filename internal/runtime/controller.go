package runtime

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dsl/check"
	"repro/internal/eventbus"
	"repro/internal/registry"
	"repro/internal/transport"
)

// wireController subscribes one `when provided <Context>` controller clause
// to the context's publications.
func (rt *Runtime) wireController(ctrl *check.Controller, w *check.ControllerWhen) error {
	cs := &ctrlCallSite{name: ctrl.Name, call: ControllerCall{
		ControllerName: ctrl.Name,
		ContextName:    w.Context.Name,
		when:           w,
		rt:             rt,
		views:          &discoveryViews{byKey: make(map[string]*discoveryView)},
	}}
	_, err := rt.bus.Subscribe(rt.pubSites[w.Context.Name].topic, cs.onEvent)
	return err
}

// ctrlCallSite is the dispatch call site of one controller clause, the
// consumer-side twin of provCallSite: the handler is resolved once per
// delivered value batch, ControllerTriggers moves once by the batch length,
// and one ControllerCall — filled at wire time, only Value and Time move —
// is reused for every value. Its state is touched only from the owning bus
// subscription's drain goroutine.
type ctrlCallSite struct {
	name string // controller name; the call's copy is the handler's to read
	call ControllerCall
}

func (cs *ctrlCallSite) onEvent(ev eventbus.Event) {
	b := ev.Payload.(*valueBatch) // pubSite.flush is the topic's only publisher
	rt := cs.call.rt
	rt.stats[statControllerTriggers].Add(uint64(len(b.vals)))
	h := rt.controllerHandler(cs.name)
	if h == nil {
		return
	}
	cs.call.Time = ev.Time
	for _, v := range b.vals {
		cs.call.Value = v
		if err := h.OnContext(&cs.call); err != nil {
			rt.reportError(cs.name, err)
		}
	}
	cs.call.Value = nil // the batch recycles; do not pin its last value
}

// ControllerCall carries one context publication to a controller handler
// plus the actuation interface: discovery-filtered device proxies restricted
// to the design's `do … on …` set (paper Figure 11's `discover` object).
//
// A ControllerCall is BORROWED for the duration of OnContext, exactly as
// ContextCall and its Reading are for OnTrigger: the runtime refills one
// call per clause for every published value, so a handler must not retain
// the call — or any ActuatorProxy obtained from it, which actuates through
// the call — past its return. Copy Value (and whatever else is needed) to
// keep it.
//
// Discovery (Devices, DevicesWhere) may be called from goroutines the
// handler starts, as long as it joins them before returning.
type ControllerCall struct {
	// ControllerName is the receiving controller.
	ControllerName string
	// ContextName is the publishing context.
	ContextName string
	// Value is the published context value.
	Value any
	// Time is the publication time: one stamp per flushed delivery, shared
	// by every value the publishing call site produced while dispatching
	// it.
	Time time.Time

	when  *check.ControllerWhen
	rt    *Runtime
	views *discoveryViews // the clause's, shared by every call it makes
}

// Devices discovers every bound device of the given kind (or taxonomy
// subtype) and returns actuation proxies for them.
func (c *ControllerCall) Devices(kind string) ([]*ActuatorProxy, error) {
	return c.DevicesWhere(kind, nil)
}

// DevicesWhere discovers bound devices of the given kind whose attributes
// match where — the runtime form of the paper's generated
// `discover.parkingEntrancePanels().whereLocation(lot)` chain.
//
// The result is sorted by device ID, and the slice is the caller's to sort
// or append to: no later call sees it. The proxies in it are shared with
// later calls of the clause over an unchanged fleet; they are read-only and
// borrowed under ControllerCall's rule. where is read only during the call.
func (c *ControllerCall) DevicesWhere(kind string, where registry.Attributes) ([]*ActuatorProxy, error) {
	if !c.kindDeclared(kind) {
		return nil, fmt.Errorf("runtime: controller %s: design declares no 'do … on %s' for context %s",
			c.ControllerName, kind, c.ContextName)
	}
	return slices.Clone(c.views.discover(c, kind, where)), nil
}

// maxViewProxies bounds what one clause's discovery views retain, counting
// each view as its proxies plus one so empty results are bounded too.
const maxViewProxies = 4096

// discoveryViews is one controller clause's discovery cache: per kind and
// where content, the proxies of one Registry.Discover, valid while the
// kind's registry generation — read before that Discover — holds. Register,
// update, unregister and a changed-content Reclaim move the generation; an
// identical Reclaim does not, and a proxy resolves its driver on every
// Invoke, so a rebound driver is still found. mu guards
// the table because a handler may fan discovery out over goroutines.
type discoveryViews struct {
	mu       sync.Mutex
	byKey    map[string]*discoveryView
	retained int // sum over views of len(proxies)+1
}

type discoveryView struct {
	gen     uint64
	proxies []*ActuatorProxy
}

// discover returns the view's proxies for kind and where, rebuilding the
// view if the kind's generation moved. The slice is the view's: callers
// copy it.
func (v *discoveryViews) discover(c *ControllerCall, kind string, where registry.Attributes) []*ActuatorProxy {
	var buf [128]byte
	key := viewKey(buf[:0], kind, where)
	v.mu.Lock()
	defer v.mu.Unlock()
	gen := c.rt.reg.Generation(kind)
	view := v.byKey[string(key)]
	if view != nil && view.gen == gen {
		return view.proxies
	}
	entities := c.rt.reg.Discover(registry.Query{Kind: kind, Where: where})
	proxies := make([]*ActuatorProxy, len(entities))
	for i, e := range entities {
		proxies[i] = &ActuatorProxy{entity: e, call: c}
	}
	cost := len(proxies) + 1
	if view != nil {
		v.retained -= len(view.proxies) + 1
	}
	switch {
	case cost > maxViewProxies: // too large to retain on its own
		delete(v.byKey, string(key))
		return proxies
	case v.retained+cost > maxViewProxies:
		clear(v.byKey)
		v.retained, view = 0, nil
	}
	if view == nil {
		view = &discoveryView{}
		v.byKey[string(key)] = view
	}
	view.gen, view.proxies = gen, proxies
	v.retained += cost
	return proxies
}

// viewKey appends the content key of a discovery: the kind, then where's
// pairs sorted by name, each string length-prefixed so no two contents
// share a key.
func viewKey(buf []byte, kind string, where registry.Attributes) []byte {
	field := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	field(kind)
	var names [8]string
	keys := names[:0]
	for k := range where {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		field(k)
		field(where[k])
	}
	return buf
}

// kindDeclared reports whether the design's do-set for this clause names the
// kind or one of its taxonomy descendants.
func (c *ControllerCall) kindDeclared(kind string) bool {
	for _, a := range c.when.Actions {
		if a.Device.Name == kind {
			return true
		}
		for _, anc := range a.Device.Ancestors {
			if anc == kind {
				return true
			}
		}
	}
	return false
}

// actionDeclared returns the declared action entry matching the proxy's
// device kinds and action name.
func (c *ControllerCall) actionDeclared(kinds []string, action string) *check.ControllerAction {
	for i := range c.when.Actions {
		a := &c.when.Actions[i]
		if a.Action.Name != action {
			continue
		}
		for _, k := range kinds {
			if a.Device.Name == k {
				return a
			}
		}
	}
	return nil
}

// InvokeBatch performs one declared action (with shared arguments) on many
// discovered devices, amortizing cross-node actuation: local devices are
// invoked directly, remote devices are grouped per endpoint and actuated
// through chunked command_batch round trips (the actuation twin of the
// periodic poller's query_batch). It returns how many devices were actuated
// successfully plus one error per failed device. SCC conformance is checked
// per proxy exactly as ActuatorProxy.Invoke does.
func (c *ControllerCall) InvokeBatch(proxies []*ActuatorProxy, action string, args ...any) (ok int, errs []error) {
	type endpointGroup struct {
		client *transport.Client
		ids    []string
	}
	var groups map[string]*endpointGroup
	// Fan-outs are homogeneous in practice (one discovery's worth of one
	// kind), so the per-kind declaration lookup is memoized across the
	// loop instead of rescanning the clause's action list per device.
	declByKind := make(map[string]*check.ControllerAction, 1)
	for _, p := range proxies {
		decl, cached := declByKind[p.entity.Kind]
		if !cached {
			decl = c.actionDeclared(p.entity.Kinds, action)
			declByKind[p.entity.Kind] = decl
		}
		if decl == nil {
			errs = append(errs, fmt.Errorf("runtime: controller %s: design declares no 'do %s on %s'",
				c.ControllerName, action, p.entity.Kind))
			continue
		}
		if len(args) != len(decl.Action.Params) {
			errs = append(errs, fmt.Errorf("runtime: action %s.%s takes %d argument(s), got %d",
				p.entity.Kind, action, len(decl.Action.Params), len(args)))
			continue
		}
		if drv, local := c.rt.LocalDriver(string(p.entity.ID)); local {
			if err := drv.Invoke(action, args...); err != nil {
				errs = append(errs, fmt.Errorf("runtime: actuate %s.%s: %w", p.entity.ID, action, err))
				continue
			}
			c.rt.stats[statActuations].Add(1)
			ok++
			continue
		}
		cli, err := c.rt.clientFor(string(p.entity.ID), p.entity.Endpoint)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if groups == nil {
			groups = make(map[string]*endpointGroup)
		}
		g := groups[p.entity.Endpoint]
		if g == nil {
			g = &endpointGroup{client: cli}
			groups[p.entity.Endpoint] = g
		}
		g.ids = append(g.ids, string(p.entity.ID))
	}
	for endpoint, g := range groups {
		for lo := 0; lo < len(g.ids); lo += remoteBatchChunk {
			hi := lo + remoteBatchChunk
			if hi > len(g.ids) {
				hi = len(g.ids)
			}
			chunk := g.ids[lo:hi]
			c.rt.stats[statFederationCommandChunks].Add(1)
			perDevice, err := g.client.CommandBatch(chunk, action, args...)
			if err != nil {
				// A failed chunk loses only its own devices; remaining
				// chunks (and endpoints) are still attempted.
				errs = append(errs, fmt.Errorf("runtime: actuate batch via %s: %w", endpoint, err))
				continue
			}
			for i, es := range perDevice {
				if es != "" {
					errs = append(errs, fmt.Errorf("runtime: actuate %s.%s: %s", chunk[i], action, es))
					continue
				}
				c.rt.stats[statActuations].Add(1)
				ok++
			}
		}
	}
	return ok, errs
}

// ActuatorProxy invokes actions on one discovered device. Invocations are
// validated against the design (SCC conformance: a controller can only
// perform its declared operations) and argument arity is checked against
// the device declaration. A proxy is scoped to the OnContext call whose
// ControllerCall produced it (see ControllerCall's borrow rule).
type ActuatorProxy struct {
	entity registry.Entity
	call   *ControllerCall
}

// ID returns the device's entity ID.
func (p *ActuatorProxy) ID() string { return string(p.entity.ID) }

// Kind returns the device's concrete kind.
func (p *ActuatorProxy) Kind() string { return p.entity.Kind }

// Attr returns one attribute value of the device.
func (p *ActuatorProxy) Attr(name string) string { return p.entity.Attrs[name] }

// Invoke performs a declared action on the device.
func (p *ActuatorProxy) Invoke(action string, args ...any) error {
	decl := p.call.actionDeclared(p.entity.Kinds, action)
	if decl == nil {
		return fmt.Errorf("runtime: controller %s: design declares no 'do %s on %s'",
			p.call.ControllerName, action, p.entity.Kind)
	}
	if len(args) != len(decl.Action.Params) {
		return fmt.Errorf("runtime: action %s.%s takes %d argument(s), got %d",
			p.entity.Kind, action, len(decl.Action.Params), len(args))
	}
	drv, err := p.call.rt.driverFor(p.entity)
	if err != nil {
		return err
	}
	if err := drv.Invoke(action, args...); err != nil {
		return fmt.Errorf("runtime: actuate %s.%s: %w", p.entity.ID, action, err)
	}
	p.call.rt.stats[statActuations].Add(1)
	return nil
}
