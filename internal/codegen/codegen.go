// Package codegen is the design compiler: it turns a checked DiaSpec design
// into a customized Go programming framework, the paper's central mechanism
// (§V: "a design compiler that generates an application framework tailored
// to a given application design … the generated programming frameworks
// employ the inversion of control").
//
// For each declaration the generator emits:
//
//   - structures and enumerations as Go types (plus wire registration);
//   - per context, a typed Impl interface with one callback per declared
//     interaction (e.g. OnTickSecondFromClock, OnPeriodicPresence — mirroring
//     the paper's Figures 9 and 10), typed discover objects for its `get`
//     clauses, and a Bind function installing an adapter that performs all
//     the untyped-runtime plumbing;
//   - per controller, a typed Impl interface and discover/selector/proxy
//     chain for its `do … on …` set, mirroring Figure 11's
//     `discover.parkingEntrancePanels().whereLocation(lot).update(status)`;
//   - a RegisterWireTypes function for gob transport of generated types.
//
// The output is formatted with go/format, which also guarantees syntactic
// validity; the repository checks in generated packages so the normal build
// type-checks them.
package codegen

import (
	"fmt"
	"go/format"
	"sort"
	"strings"

	"repro/internal/dsl/ast"
	"repro/internal/dsl/check"
)

// Options configures generation.
type Options struct {
	// Package is the generated package name.
	Package string
	// RuntimeImport overrides the runtime import path (tests only).
	RuntimeImport string
	// RegistryImport overrides the registry import path (tests only).
	RegistryImport string
	// TransportImport overrides the transport import path (tests only).
	TransportImport string
}

func (o Options) withDefaults() Options {
	if o.Package == "" {
		o.Package = "gen"
	}
	if o.RuntimeImport == "" {
		o.RuntimeImport = "repro/internal/runtime"
	}
	if o.RegistryImport == "" {
		o.RegistryImport = "repro/internal/registry"
	}
	if o.TransportImport == "" {
		o.TransportImport = "repro/internal/transport"
	}
	return o
}

// Generate renders the programming framework for a checked design.
func Generate(m *check.Model, opts Options) ([]byte, error) {
	opts = opts.withDefaults()
	g := &generator{m: m, opts: opts}
	src, err := g.run()
	if err != nil {
		return nil, err
	}
	formatted, err := format.Source(src)
	if err != nil {
		return nil, fmt.Errorf("codegen: generated code does not parse: %w\n%s", err, numbered(src))
	}
	return formatted, nil
}

func numbered(src []byte) string {
	lines := strings.Split(string(src), "\n")
	var b strings.Builder
	for i, l := range lines {
		fmt.Fprintf(&b, "%4d| %s\n", i+1, l)
	}
	return b.String()
}

// CountLines reports the number of non-blank lines in src — the unit used by
// the paper's "generated code may represent up to 80% of the resulting
// application code" claim (C1 in README "Benchmarks").
func CountLines(src []byte) int {
	n := 0
	for _, line := range strings.Split(string(src), "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

type generator struct {
	m    *check.Model
	opts Options
	b    strings.Builder

	needsRegistry bool
}

func (g *generator) pf(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
}

func (g *generator) run() ([]byte, error) {
	var body strings.Builder
	gBody := &generator{m: g.m, opts: g.opts}
	gBody.emitTypes()
	gBody.emitWireRegistration()
	for _, name := range g.m.ContextNames() {
		if err := gBody.emitContext(g.m.Contexts[name]); err != nil {
			return nil, err
		}
	}
	for _, name := range g.m.ControllerNames() {
		gBody.emitController(g.m.Controllers[name])
	}
	gBody.emitDeviceProxies()
	body.WriteString(gBody.b.String())

	// Header with the exact import set the body needs.
	g.pf("// Code generated by diaspecc from a DiaSpec design. DO NOT EDIT.\n\n")
	g.pf("// Package %s is the programming framework generated for this design:\n", g.opts.Package)
	g.pf("// typed component interfaces, discover objects and device proxies wired\n")
	g.pf("// to the orchestration runtime.\n")
	g.pf("package %s\n\n", g.opts.Package)
	g.pf("import (\n")
	g.pf("\t%q\n", g.opts.RuntimeImport)
	if gBody.needsRegistry {
		g.pf("\t%q\n", g.opts.RegistryImport)
	}
	g.pf("\t%q\n", g.opts.TransportImport)
	g.pf(")\n\n")
	g.b.WriteString(body.String())
	return []byte(g.b.String()), nil
}

// ---- naming and type mapping ----

func exported(name string) string {
	if name == "" {
		return ""
	}
	return strings.ToUpper(name[:1]) + name[1:]
}

func unexported(name string) string {
	if name == "" {
		return ""
	}
	return strings.ToLower(name[:1]) + name[1:]
}

func goType(t *check.Type) string {
	switch t.Kind {
	case check.KindInteger:
		return "int"
	case check.KindFloat:
		return "float64"
	case check.KindBoolean:
		return "bool"
	case check.KindString:
		return "string"
	case check.KindStruct, check.KindEnum:
		return t.Name
	case check.KindArray:
		return "[]" + goType(t.Elem)
	default:
		return "any"
	}
}

// attrKeyType maps a grouped-by attribute's type to the Go key type used in
// grouped maps. Registry attribute values are strings, so enums (string
// based) and String convert losslessly; other attribute types keep the
// rendered string key.
func attrKeyType(a *check.Attribute) string {
	switch a.Type.Kind {
	case check.KindEnum:
		return a.Type.Name
	default:
		return "string"
	}
}

// ---- types ----

func (g *generator) emitTypes() {
	// Enumerations first (structures reference them), in declaration
	// order for stable output.
	for _, name := range g.declOrderOf(func(n string) bool { _, ok := g.m.Enums[n]; return ok }) {
		e := g.m.Enums[name]
		g.pf("// %s is the generated enumeration for the design's `enumeration %s`.\n", e.Name, e.Name)
		g.pf("type %s string\n\n", e.Name)
		g.pf("// Values of %s.\nconst (\n", e.Name)
		for _, v := range e.Values {
			g.pf("\t%s%s %s = %q\n", e.Name, v, e.Name, v)
		}
		g.pf(")\n\n")
		g.pf("// All%sValues lists every declared %s value.\n", e.Name, e.Name)
		g.pf("func All%sValues() []%s {\n\treturn []%s{", e.Name, e.Name, e.Name)
		for i, v := range e.Values {
			if i > 0 {
				g.pf(", ")
			}
			g.pf("%s%s", e.Name, v)
		}
		g.pf("}\n}\n\n")
	}
	for _, name := range g.declOrderOf(func(n string) bool { _, ok := g.m.Structs[n]; return ok }) {
		s := g.m.Structs[name]
		g.pf("// %s is the generated record for the design's `structure %s`.\n", s.Name, s.Name)
		g.pf("type %s struct {\n", s.Name)
		for _, f := range s.Fields {
			g.pf("\t%s %s\n", exported(f.Name), goType(f.Type))
		}
		g.pf("}\n\n")
	}
}

func (g *generator) declOrderOf(keep func(string) bool) []string {
	var out []string
	for _, n := range g.m.DeclOrder {
		if keep(n) {
			out = append(out, n)
		}
	}
	return out
}

func (g *generator) emitWireRegistration() {
	g.pf("// RegisterWireTypes registers every generated type with the transport\n")
	g.pf("// codec so values can cross process boundaries.\n")
	g.pf("func RegisterWireTypes() {\n")
	g.pf("\t_ = transport.RegisterType // keep the import live for typeless designs\n")
	for _, name := range g.declOrderOf(func(n string) bool { _, ok := g.m.Enums[n]; return ok }) {
		g.pf("\ttransport.RegisterType(%s(\"\"))\n", name)
		g.pf("\ttransport.RegisterType([]%s(nil))\n", name)
	}
	for _, name := range g.declOrderOf(func(n string) bool { _, ok := g.m.Structs[n]; return ok }) {
		g.pf("\ttransport.RegisterType(%s{})\n", name)
		g.pf("\ttransport.RegisterType([]%s(nil))\n", name)
	}
	g.pf("}\n\n")
}

// ---- contexts ----

// interactionMethod computes the callback method name for an interaction.
func interactionMethod(ctx *check.Context, idx int) string {
	in := ctx.Interactions[idx]
	var base string
	switch in.Kind {
	case check.Provided:
		if in.TriggerKind == check.FromContext {
			base = "On" + in.TriggerCtx.Name
		} else {
			base = "On" + exported(in.TriggerSource.Name) + "From" + in.TriggerDevice.Name
		}
	case check.Periodic:
		base = "OnPeriodic" + exported(in.TriggerSource.Name)
	case check.Required:
		return "OnRequired"
	}
	// Disambiguate clashes (e.g. two periodic clauses on one source).
	count := 0
	for i := 0; i <= idx; i++ {
		if i == idx {
			break
		}
		if interactionBaseName(ctx.Interactions[i]) == interactionBaseName(in) {
			count++
		}
	}
	if count > 0 {
		return fmt.Sprintf("%s%d", base, count+1)
	}
	return base
}

func interactionBaseName(in *check.Interaction) string {
	switch in.Kind {
	case check.Provided:
		if in.TriggerKind == check.FromContext {
			return "On" + in.TriggerCtx.Name
		}
		return "On" + exported(in.TriggerSource.Name) + "From" + in.TriggerDevice.Name
	case check.Periodic:
		return "OnPeriodic" + exported(in.TriggerSource.Name)
	default:
		return "OnRequired"
	}
}

// publishSignature renders the result part of a callback per publish mode.
func publishSignature(ctx *check.Context, in *check.Interaction) string {
	t := goType(ctx.Type)
	switch in.Publish {
	case ast.AlwaysPublish:
		return fmt.Sprintf("(%s, error)", t)
	case ast.MaybePublish:
		return fmt.Sprintf("(%s, bool, error)", t)
	default: // NoPublish
		return "error"
	}
}

func (g *generator) emitContext(ctx *check.Context) error {
	g.pf("// ----- context %s -----\n\n", ctx.Name)

	// Discover objects for interactions with gets.
	for idx, in := range ctx.Interactions {
		if len(in.Gets) > 0 {
			g.emitContextDiscover(ctx, idx, in)
		}
	}

	// MapReduce interface requirement (Figure 10), embedded by Impl.
	if mrIdx := mapReduceIndex(ctx); mrIdx >= 0 {
		in := ctx.Interactions[mrIdx]
		keyT := attrKeyType(in.GroupBy)
		g.pf("// %sMapReduce is the MapReduce contract of %s's `with map as %s\n", ctx.Name, ctx.Name, in.MapType)
		g.pf("// reduce as %s` clause; the runtime parallelizes both phases.\n", in.RedType)
		g.pf("type %sMapReduce interface {\n", ctx.Name)
		g.pf("\tMap(%s %s, value %s, emit func(%s, %s))\n",
			unexported(in.GroupBy.Name), keyT, goType(in.MapType), keyT, goType(in.MapType))
		g.pf("\tReduce(%s %s, values []%s, emit func(%s, %s))\n",
			unexported(in.GroupBy.Name), keyT, goType(in.MapType), keyT, goType(in.RedType))
		g.pf("}\n\n")

		redT := goType(in.RedType)
		g.pf("// %sCombiner is optionally implemented by %sImpl when its Reduce is an\n", ctx.Name, ctx.Name)
		g.pf("// associative, commutative merge of partial aggregates (sum, count, min,\n")
		g.pf("// max, …): Reduce over a value list must equal the Combine-fold of Reduce\n")
		g.pf("// over its single-element sublists. The runtime then folds incremental\n")
		g.pf("// updates in O(1) and federation peers may sync per-group partials\n")
		g.pf("// instead of raw readings.\n")
		g.pf("type %sCombiner interface {\n", ctx.Name)
		g.pf("\tCombine(%s %s, a, b %s) %s\n", unexported(in.GroupBy.Name), keyT, redT, redT)
		g.pf("}\n\n")
		g.pf("// %sUncombiner is optionally implemented by %sCombiner impls whose merge\n", ctx.Name, ctx.Name)
		g.pf("// is invertible (sum, count): Uncombine removes one previously combined\n")
		g.pf("// partial, making updates and removals O(1) too.\n")
		g.pf("type %sUncombiner interface {\n", ctx.Name)
		g.pf("\tUncombine(%s %s, acc, v %s) %s\n", unexported(in.GroupBy.Name), keyT, redT, redT)
		g.pf("}\n\n")
	}

	// The Impl interface.
	g.pf("// %sImpl is implemented by the application logic of the %s context\n", ctx.Name, ctx.Name)
	g.pf("// (design: `context %s as %s`).\n", ctx.Name, ctx.Type)
	g.pf("type %sImpl interface {\n", ctx.Name)
	if mapReduceIndex(ctx) >= 0 {
		g.pf("\t%sMapReduce\n", ctx.Name)
	}
	for idx, in := range ctx.Interactions {
		method := interactionMethod(ctx, idx)
		switch in.Kind {
		case check.Provided:
			g.pf("\t// %s handles `%s`.\n", method, describeInteraction(in))
			g.pf("\t%s(%s) %s\n", method, g.providedParams(ctx, idx, in), publishSignature(ctx, in))
		case check.Periodic:
			g.pf("\t// %s handles `%s`.\n", method, describeInteraction(in))
			g.pf("\t%s(%s) %s\n", method, g.periodicParams(ctx, idx, in), publishSignature(ctx, in))
		case check.Required:
			g.pf("\t// OnRequired serves `get %s` pulls from other contexts.\n", ctx.Name)
			g.pf("\tOnRequired() (%s, error)\n", goType(ctx.Type))
		}
	}
	g.pf("}\n\n")

	// Adapter.
	g.emitContextAdapter(ctx)

	// Bind function.
	g.pf("// Bind%s installs impl as the %s context implementation.\n", ctx.Name, ctx.Name)
	g.pf("func Bind%s(rt *runtime.Runtime, impl %sImpl) error {\n", ctx.Name, ctx.Name)
	if mapReduceIndex(ctx) >= 0 {
		un := unexported(ctx.Name)
		g.pf("\tvar h runtime.ContextHandler = &%sAdapter{impl: impl}\n", un)
		g.pf("\tif c, ok := impl.(%sCombiner); ok {\n", ctx.Name)
		g.pf("\t\tca := %sCombinerAdapter{%sAdapter: %sAdapter{impl: impl}, c: c}\n", un, un, un)
		g.pf("\t\th = &ca\n")
		g.pf("\t\tif u, ok := impl.(%sUncombiner); ok {\n", ctx.Name)
		g.pf("\t\t\th = &%sUncombinerAdapter{%sCombinerAdapter: ca, u: u}\n", un, un)
		g.pf("\t\t}\n\t}\n")
		g.pf("\treturn rt.ImplementContext(%q, h)\n", ctx.Name)
	} else {
		g.pf("\treturn rt.ImplementContext(%q, &%sAdapter{impl: impl})\n", ctx.Name, unexported(ctx.Name))
	}
	g.pf("}\n\n")
	return nil
}

func describeInteraction(in *check.Interaction) string {
	switch in.Kind {
	case check.Provided:
		if in.TriggerKind == check.FromContext {
			return fmt.Sprintf("when provided %s", in.TriggerCtx.Name)
		}
		s := fmt.Sprintf("when provided %s from %s", in.TriggerSource.Name, in.TriggerDevice.Name)
		if in.GroupBy != nil {
			s += " grouped by " + in.GroupBy.Name
		}
		return s
	case check.Periodic:
		s := fmt.Sprintf("when periodic %s from %s <%v>", in.TriggerSource.Name, in.TriggerDevice.Name, in.Period)
		if in.GroupBy != nil {
			s += " grouped by " + in.GroupBy.Name
		}
		if in.Every > 0 {
			s += fmt.Sprintf(" every <%v>", in.Every)
		}
		return s
	default:
		return "when required"
	}
}

func mapReduceIndex(ctx *check.Context) int {
	for i, in := range ctx.Interactions {
		if in.MapType != nil {
			return i
		}
	}
	return -1
}

func (g *generator) providedParams(ctx *check.Context, idx int, in *check.Interaction) string {
	var parts []string
	if in.TriggerKind == check.FromContext {
		parts = append(parts, fmt.Sprintf("value %s", goType(in.TriggerCtx.Type)))
	} else {
		parts = append(parts, fmt.Sprintf("%s %s", unexported(in.TriggerSource.Name), goType(in.TriggerSource.Type)))
		if in.TriggerSource.IndexType != nil {
			parts = append(parts, fmt.Sprintf("%s %s", unexported(in.TriggerSource.IndexName), goType(in.TriggerSource.IndexType)))
		}
		// Grouped device sources additionally receive the continuous
		// aggregate state the triggering event just updated: the whole
		// (small) reduced map for MapReduce interactions, or — for raw
		// grouping, whose per-group value lists scale with the fleet —
		// only the triggering device's group, so one event costs
		// O(group), not O(fleet). Both extras are zero-valued on
		// aggregate-only dispatches (federation partial merges,
		// fleet-change retractions), which carry no triggering reading.
		src := in.TriggerSource
		switch {
		case in.GroupBy == nil:
		case in.MapType != nil:
			parts = append(parts, fmt.Sprintf("%sBy%s map[%s]%s",
				unexported(src.Name), exported(in.GroupBy.Name), attrKeyType(in.GroupBy), goType(in.RedType)))
		default:
			parts = append(parts,
				fmt.Sprintf("%s %s", unexported(in.GroupBy.Name), attrKeyType(in.GroupBy)),
				fmt.Sprintf("%sIn%s []%s",
					unexported(src.Name), exported(in.GroupBy.Name), goType(src.Type)))
		}
	}
	if len(in.Gets) > 0 {
		parts = append(parts, fmt.Sprintf("discover *%s", discoverTypeName(ctx, idx)))
	}
	return strings.Join(parts, ", ")
}

func (g *generator) periodicParams(ctx *check.Context, idx int, in *check.Interaction) string {
	var parts []string
	src := in.TriggerSource
	switch {
	case in.GroupBy == nil:
		parts = append(parts, fmt.Sprintf("values []%s", goType(src.Type)))
	case in.MapType != nil:
		parts = append(parts, fmt.Sprintf("%sBy%s map[%s]%s",
			unexported(src.Name), exported(in.GroupBy.Name), attrKeyType(in.GroupBy), goType(in.RedType)))
	default:
		parts = append(parts, fmt.Sprintf("%sBy%s map[%s][]%s",
			unexported(src.Name), exported(in.GroupBy.Name), attrKeyType(in.GroupBy), goType(src.Type)))
	}
	if len(in.Gets) > 0 {
		parts = append(parts, fmt.Sprintf("discover *%s", discoverTypeName(ctx, idx)))
	}
	return strings.Join(parts, ", ")
}

func discoverTypeName(ctx *check.Context, idx int) string {
	return fmt.Sprintf("%s%sDiscover", ctx.Name, strings.TrimPrefix(interactionMethod(ctx, idx), "On"))
}

func (g *generator) emitContextDiscover(ctx *check.Context, idx int, in *check.Interaction) {
	name := discoverTypeName(ctx, idx)
	g.pf("// %s exposes the `get` pulls declared for %s's\n// `%s` interaction.\n", name, ctx.Name, describeInteraction(in))
	g.pf("type %s struct {\n\tcall *runtime.ContextCall\n}\n\n", name)
	for _, get := range in.Gets {
		if get.Kind == check.FromDeviceSource {
			m := exported(get.Source.Name) + "From" + get.Device.Name
			t := goType(get.Source.Type)
			g.pf("// %s queries the %s source of the single bound %s device.\n", m, get.Source.Name, get.Device.Name)
			g.pf("func (d *%s) %s() (%s, error) {\n", name, m, t)
			g.pf("\tv, err := d.call.QueryDeviceOne(%q, %q)\n", get.Device.Name, get.Source.Name)
			g.pf("\tif err != nil {\n\t\tvar zero %s\n\t\treturn zero, err\n\t}\n", t)
			g.pf("\ttv, ok := v.(%s)\n", t)
			g.pf("\tif !ok {\n\t\tvar zero %s\n\t\treturn zero, fmt_TypeError(%q, v)\n\t}\n", t, get.Device.Name+"."+get.Source.Name)
			g.pf("\treturn tv, nil\n}\n\n")

			g.pf("// %sAll queries the %s source of every bound %s device.\n", m, get.Source.Name, get.Device.Name)
			g.pf("func (d *%s) %sAll() ([]runtime.SourceValue, error) {\n", name, m)
			g.pf("\treturn d.call.QueryDevice(%q, %q)\n", get.Device.Name, get.Source.Name)
			g.pf("}\n\n")
		} else {
			m := get.Context.Name
			t := goType(get.Context.Type)
			g.pf("// %s pulls the current value of the required %s context.\n", m, m)
			g.pf("func (d *%s) %s() (%s, error) {\n", name, m, t)
			g.pf("\tv, err := d.call.QueryContext(%q)\n", m)
			g.pf("\tif err != nil {\n\t\tvar zero %s\n\t\treturn zero, err\n\t}\n", t)
			g.pf("\ttv, ok := v.(%s)\n", t)
			g.pf("\tif !ok {\n\t\tvar zero %s\n\t\treturn zero, fmt_TypeError(%q, v)\n\t}\n", t, m)
			g.pf("\treturn tv, nil\n}\n\n")
		}
	}
}

func (g *generator) emitContextAdapter(ctx *check.Context) {
	ad := unexported(ctx.Name) + "Adapter"
	g.pf("type %s struct {\n\timpl %sImpl\n}\n\n", ad, ctx.Name)

	// OnTrigger dispatch.
	g.pf("func (a *%s) OnTrigger(call *runtime.ContextCall) (any, bool, error) {\n", ad)
	g.pf("\tswitch call.InteractionIndex {\n")
	for idx, in := range ctx.Interactions {
		if in.Kind == check.Required {
			continue
		}
		g.pf("\tcase %d:\n", idx)
		g.pf("\t\treturn a.dispatch%d(call)\n", idx)
	}
	g.pf("\t}\n\treturn nil, false, nil\n}\n\n")

	for idx, in := range ctx.Interactions {
		if in.Kind == check.Required {
			continue
		}
		g.emitContextDispatch(ctx, idx, in)
	}

	// RequiredHandler.
	if ctx.Required {
		g.pf("func (a *%s) OnRequired(*runtime.ContextCall) (any, error) {\n", ad)
		g.pf("\treturn a.impl.OnRequired()\n}\n\n")
	}

	// MapReducer bridging (string/any <-> typed).
	if mrIdx := mapReduceIndex(ctx); mrIdx >= 0 {
		in := ctx.Interactions[mrIdx]
		keyT := attrKeyType(in.GroupBy)
		mapT := goType(in.MapType)
		redT := goType(in.RedType)
		g.pf("func (a *%s) Map(key string, value any, emit func(string, any)) {\n", ad)
		g.pf("\tv, ok := value.(%s)\n\tif !ok {\n\t\treturn\n\t}\n", mapT)
		g.pf("\ta.impl.Map(%s(key), v, func(k %s, out %s) {\n\t\temit(string(k), out)\n\t})\n", keyT, keyT, mapT)
		g.pf("}\n\n")
		g.pf("func (a *%s) Reduce(key string, values []any, emit func(string, any)) {\n", ad)
		g.pf("\ttyped := make([]%s, 0, len(values))\n", mapT)
		g.pf("\tfor _, v := range values {\n\t\tif tv, ok := v.(%s); ok {\n\t\t\ttyped = append(typed, tv)\n\t\t}\n\t}\n", mapT)
		g.pf("\ta.impl.Reduce(%s(key), typed, func(k %s, out %s) {\n\t\temit(string(k), out)\n\t})\n", keyT, keyT, redT)
		g.pf("}\n\n")

		// Combiner bridging: separate adapter types so the installed
		// handler satisfies runtime.Combiner / runtime.Uncombiner exactly
		// when the impl provides the typed methods (Bind picks the
		// widest applicable adapter).
		g.pf("// %sCombinerAdapter bridges %sCombiner to the runtime's untyped contract.\n", unexported(ctx.Name), ctx.Name)
		g.pf("type %sCombinerAdapter struct {\n\t%s\n\tc %sCombiner\n}\n\n", unexported(ctx.Name), ad, ctx.Name)
		g.pf("func (a *%sCombinerAdapter) Combine(key string, p, q any) any {\n", unexported(ctx.Name))
		g.pf("\tpv, pok := p.(%s)\n\tqv, qok := q.(%s)\n", redT, redT)
		g.pf("\tif !pok || !qok {\n\t\tif qok {\n\t\t\treturn q\n\t\t}\n\t\treturn p\n\t}\n")
		g.pf("\treturn a.c.Combine(%s(key), pv, qv)\n}\n\n", keyT)
		g.pf("// %sUncombinerAdapter additionally bridges %sUncombiner.\n", unexported(ctx.Name), ctx.Name)
		g.pf("type %sUncombinerAdapter struct {\n\t%sCombinerAdapter\n\tu %sUncombiner\n}\n\n",
			unexported(ctx.Name), unexported(ctx.Name), ctx.Name)
		g.pf("func (a *%sUncombinerAdapter) Uncombine(key string, acc, v any) any {\n", unexported(ctx.Name))
		g.pf("\tav, aok := acc.(%s)\n\tvv, vok := v.(%s)\n", redT, redT)
		g.pf("\tif !aok || !vok {\n\t\treturn acc\n\t}\n")
		g.pf("\treturn a.u.Uncombine(%s(key), av, vv)\n}\n\n", keyT)
	}
}

// emitGroupedArg renders the typed copy of a grouped delivery — the
// MapReduce output map or the raw per-group value lists — shared by the
// periodic and event-driven grouped dispatch paths. Copying also decouples
// the impl from the runtime's incrementally maintained aggregate, which is
// only valid for the duration of the call.
func (g *generator) emitGroupedArg(in *check.Interaction) {
	src := in.TriggerSource
	keyT := attrKeyType(in.GroupBy)
	if in.MapType != nil {
		g.pf("\tgrouped := make(map[%s]%s, len(call.GroupedReduced))\n", keyT, goType(in.RedType))
		g.pf("\tfor k, v := range call.GroupedReduced {\n")
		g.pf("\t\tif tv, ok := v.(%s); ok {\n\t\t\tgrouped[%s(k)] = tv\n\t\t}\n\t}\n", goType(in.RedType), keyT)
		return
	}
	g.pf("\tgrouped := make(map[%s][]%s, len(call.Grouped))\n", keyT, goType(src.Type))
	g.pf("\tfor k, vs := range call.Grouped {\n")
	g.pf("\t\ttyped := make([]%s, 0, len(vs))\n", goType(src.Type))
	g.pf("\t\tfor _, v := range vs {\n")
	g.pf("\t\t\tif tv, ok := v.(%s); ok {\n\t\t\t\ttyped = append(typed, tv)\n\t\t\t}\n\t\t}\n", goType(src.Type))
	g.pf("\t\tgrouped[%s(k)] = typed\n\t}\n", keyT)
}

// emitReturnPlumbing renders the call into the impl method and the
// conversion of its result to the runtime's (any, bool, error) contract.
func (g *generator) emitReturnPlumbing(ctx *check.Context, in *check.Interaction, callExpr string) {
	switch in.Publish {
	case ast.AlwaysPublish:
		g.pf("\tout, err := %s\n", callExpr)
		g.pf("\treturn out, true, err\n")
	case ast.MaybePublish:
		g.pf("\tout, pub, err := %s\n", callExpr)
		g.pf("\treturn out, pub, err\n")
	default:
		g.pf("\terr := %s\n", callExpr)
		g.pf("\treturn nil, false, err\n")
	}
}

func (g *generator) emitContextDispatch(ctx *check.Context, idx int, in *check.Interaction) {
	ad := unexported(ctx.Name) + "Adapter"
	method := interactionMethod(ctx, idx)
	g.pf("func (a *%s) dispatch%d(call *runtime.ContextCall) (any, bool, error) {\n", ad, idx)

	var args []string
	switch in.Kind {
	case check.Provided:
		if in.TriggerKind == check.FromContext {
			t := goType(in.TriggerCtx.Type)
			g.pf("\tvalue, ok := call.Value.(%s)\n", t)
			g.pf("\tif !ok {\n\t\treturn nil, false, fmt_TypeError(%q, call.Value)\n\t}\n", in.TriggerCtx.Name)
			args = append(args, "value")
		} else if in.GroupBy == nil {
			t := goType(in.TriggerSource.Type)
			g.pf("\tv, ok := call.Reading.Value.(%s)\n", t)
			g.pf("\tif !ok {\n\t\treturn nil, false, fmt_TypeError(%q, call.Reading.Value)\n\t}\n",
				in.TriggerDevice.Name+"."+in.TriggerSource.Name)
			args = append(args, "v")
			if in.TriggerSource.IndexType != nil {
				it := goType(in.TriggerSource.IndexType)
				g.pf("\tidx, _ := call.Reading.Index.(%s)\n", it)
				args = append(args, "idx")
			}
		} else {
			// Grouped device sources can also be triggered by a
			// federation partial-aggregate merge, which carries no
			// triggering reading: the value parameter is then the zero
			// value and only the aggregate is meaningful.
			t := goType(in.TriggerSource.Type)
			g.pf("\tvar v %s\n", t)
			g.pf("\tif call.Reading != nil {\n")
			g.pf("\t\ttv, ok := call.Reading.Value.(%s)\n", t)
			g.pf("\t\tif !ok {\n\t\t\treturn nil, false, fmt_TypeError(%q, call.Reading.Value)\n\t\t}\n",
				in.TriggerDevice.Name+"."+in.TriggerSource.Name)
			g.pf("\t\tv = tv\n\t}\n")
			args = append(args, "v")
			if in.TriggerSource.IndexType != nil {
				it := goType(in.TriggerSource.IndexType)
				g.pf("\tvar idx %s\n", it)
				g.pf("\tif call.Reading != nil {\n\t\tidx, _ = call.Reading.Index.(%s)\n\t}\n", it)
				args = append(args, "idx")
			}
			if in.MapType != nil {
				g.emitGroupedArg(in)
				args = append(args, "grouped")
			} else {
				// Raw grouping: convert only the triggering group's value
				// list — a full-map conversion would cost O(fleet) per
				// event.
				keyT := attrKeyType(in.GroupBy)
				g.pf("\tgroup := %s(call.Group)\n", keyT)
				g.pf("\tsrc := call.Grouped[call.Group]\n")
				g.pf("\tvalues := make([]%s, 0, len(src))\n", t)
				g.pf("\tfor _, gv := range src {\n")
				g.pf("\t\tif tv, ok := gv.(%s); ok {\n\t\t\tvalues = append(values, tv)\n\t\t}\n\t}\n", t)
				args = append(args, "group", "values")
			}
		}
	case check.Periodic:
		src := in.TriggerSource
		if in.GroupBy == nil {
			g.pf("\tvalues := make([]%s, 0, len(call.Readings))\n", goType(src.Type))
			g.pf("\tfor _, r := range call.Readings {\n")
			g.pf("\t\tif tv, ok := r.Value.(%s); ok {\n\t\t\tvalues = append(values, tv)\n\t\t}\n\t}\n", goType(src.Type))
			args = append(args, "values")
		} else {
			g.emitGroupedArg(in)
			args = append(args, "grouped")
		}
	}
	if len(in.Gets) > 0 {
		g.pf("\tdiscover := &%s{call: call}\n", discoverTypeName(ctx, idx))
		args = append(args, "discover")
	}
	g.emitReturnPlumbing(ctx, in, fmt.Sprintf("a.impl.%s(%s)", method, strings.Join(args, ", ")))
	g.pf("}\n\n")
}

// ---- controllers ----

func (g *generator) emitController(ctrl *check.Controller) {
	g.pf("// ----- controller %s -----\n\n", ctrl.Name)

	// Discover type: one per controller, exposing selector methods for
	// every device kind in its do-set.
	g.pf("// %sDiscover exposes the actuation targets declared in %s's design\n", ctrl.Name, ctrl.Name)
	g.pf("// (`do … on …`), as discovery-filtered typed proxies.\n")
	g.pf("type %sDiscover struct {\n\tcall *runtime.ControllerCall\n}\n\n", ctrl.Name)

	kinds := controllerDeviceKinds(ctrl)
	for _, kind := range kinds {
		g.pf("// %ss selects bound %s devices.\n", kind, kind)
		g.pf("func (d *%sDiscover) %ss() *%sSelector {\n", ctrl.Name, kind, kind)
		g.pf("\treturn &%sSelector{call: d.call, where: registry.Attributes{}}\n", kind)
		g.pf("}\n\n")
		g.needsRegistry = true
	}

	// Impl interface: one method per when clause.
	g.pf("// %sImpl is implemented by the application logic of the %s controller.\n", ctrl.Name, ctrl.Name)
	g.pf("type %sImpl interface {\n", ctrl.Name)
	for _, w := range ctrl.Interactions {
		g.pf("\t// On%s handles publications of the %s context.\n", w.Context.Name, w.Context.Name)
		g.pf("\tOn%s(value %s, discover *%sDiscover) error\n", w.Context.Name, goType(w.Context.Type), ctrl.Name)
	}
	g.pf("}\n\n")

	// Adapter.
	ad := unexported(ctrl.Name) + "Adapter"
	g.pf("type %s struct {\n\timpl %sImpl\n}\n\n", ad, ctrl.Name)
	g.pf("func (a *%s) OnContext(call *runtime.ControllerCall) error {\n", ad)
	g.pf("\tswitch call.ContextName {\n")
	for _, w := range ctrl.Interactions {
		g.pf("\tcase %q:\n", w.Context.Name)
		g.pf("\t\tvalue, ok := call.Value.(%s)\n", goType(w.Context.Type))
		g.pf("\t\tif !ok {\n\t\t\treturn fmt_TypeError(%q, call.Value)\n\t\t}\n", w.Context.Name)
		g.pf("\t\treturn a.impl.On%s(value, &%sDiscover{call: call})\n", w.Context.Name, ctrl.Name)
	}
	g.pf("\t}\n\treturn nil\n}\n\n")

	g.pf("// Bind%s installs impl as the %s controller implementation.\n", ctrl.Name, ctrl.Name)
	g.pf("func Bind%s(rt *runtime.Runtime, impl %sImpl) error {\n", ctrl.Name, ctrl.Name)
	g.pf("\treturn rt.ImplementController(%q, &%s{impl: impl})\n", ctrl.Name, ad)
	g.pf("}\n\n")
}

func controllerDeviceKinds(ctrl *check.Controller) []string {
	set := make(map[string]bool)
	for _, w := range ctrl.Interactions {
		for _, a := range w.Actions {
			set[a.Device.Name] = true
		}
	}
	kinds := make([]string, 0, len(set))
	for k := range set {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// ---- device selectors and proxies ----

// emitDeviceProxies renders, for every device kind appearing in a
// controller's do-set, a selector (attribute filter chain) and a typed proxy
// exposing the device's declared actions (paper Figure 11).
func (g *generator) emitDeviceProxies() {
	kinds := make(map[string]*check.Device)
	for _, ctrl := range g.m.Controllers {
		for _, w := range ctrl.Interactions {
			for _, a := range w.Actions {
				kinds[a.Device.Name] = a.Device
			}
		}
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		g.emitSelectorAndProxy(kinds[name])
	}
	if len(names) > 0 {
		g.pf("// fmt_TypeError reports a value that did not match its design-declared type.\n")
		g.pf("type wrongTypeError struct {\n\twhat string\n\tgot  any\n}\n\n")
		g.pf("func (e *wrongTypeError) Error() string {\n")
		g.pf("\treturn \"gen: \" + e.what + \": unexpected value type\"\n}\n\n")
		g.pf("func fmt_TypeError(what string, got any) error {\n")
		g.pf("\treturn &wrongTypeError{what: what, got: got}\n}\n\n")
	} else {
		g.pf("type wrongTypeError struct {\n\twhat string\n\tgot  any\n}\n\n")
		g.pf("func (e *wrongTypeError) Error() string {\n")
		g.pf("\treturn \"gen: \" + e.what + \": unexpected value type\"\n}\n\n")
		g.pf("func fmt_TypeError(what string, got any) error {\n")
		g.pf("\treturn &wrongTypeError{what: what, got: got}\n}\n\n")
	}
}

func (g *generator) emitSelectorAndProxy(dev *check.Device) {
	g.needsRegistry = true
	sel := dev.Name + "Selector"
	g.pf("// %s filters bound %s devices by attribute before actuation.\n", sel, dev.Name)
	g.pf("type %s struct {\n\tcall  *runtime.ControllerCall\n\twhere registry.Attributes\n}\n\n", sel)

	// Where methods for each attribute (paper: whereLocation).
	attrNames := make([]string, 0, len(dev.Attributes))
	for n := range dev.Attributes {
		attrNames = append(attrNames, n)
	}
	sort.Strings(attrNames)
	for _, an := range attrNames {
		a := dev.Attributes[an]
		argT := attrKeyType(a)
		g.pf("// Where%s keeps only devices whose %s attribute equals v.\n", exported(an), an)
		g.pf("func (s *%s) Where%s(v %s) *%s {\n", sel, exported(an), argT, sel)
		g.pf("\ts.where[%q] = string(v)\n\treturn s\n}\n\n", an)
	}

	g.pf("// All resolves the selection to typed proxies.\n")
	g.pf("func (s *%s) All() ([]*%sProxy, error) {\n", sel, dev.Name)
	g.pf("\tdevices, err := s.call.DevicesWhere(%q, s.where)\n", dev.Name)
	g.pf("\tif err != nil {\n\t\treturn nil, err\n\t}\n")
	g.pf("\tout := make([]*%sProxy, len(devices))\n", dev.Name)
	g.pf("\tfor i, d := range devices {\n\t\tout[i] = &%sProxy{p: d}\n\t}\n\treturn out, nil\n}\n\n", dev.Name)

	// Broadcast action methods on the selector (Figure 11 chains the
	// action call directly on the filtered selection).
	actNames := make([]string, 0, len(dev.Actions))
	for n := range dev.Actions {
		actNames = append(actNames, n)
	}
	sort.Strings(actNames)
	for _, an := range actNames {
		a := dev.Actions[an]
		g.pf("// %s invokes %s on every selected device.\n", exported(an), an)
		g.pf("func (s *%s) %s(%s) error {\n", sel, exported(an), paramList(a))
		g.pf("\tdevices, err := s.All()\n")
		g.pf("\tif err != nil {\n\t\treturn err\n\t}\n")
		g.pf("\tfor _, d := range devices {\n")
		g.pf("\t\tif err := d.%s(%s); err != nil {\n\t\t\treturn err\n\t\t}\n\t}\n", exported(an), argList(a))
		g.pf("\treturn nil\n}\n\n")
	}

	// The proxy.
	g.pf("// %sProxy actuates one bound %s device.\n", dev.Name, dev.Name)
	g.pf("type %sProxy struct {\n\tp *runtime.ActuatorProxy\n}\n\n", dev.Name)
	g.pf("// ID returns the device's entity ID.\n")
	g.pf("func (x *%sProxy) ID() string { return x.p.ID() }\n\n", dev.Name)
	for _, an := range attrNames {
		a := dev.Attributes[an]
		retT := attrKeyType(a)
		g.pf("// %s returns the device's %s attribute.\n", exported(an), an)
		g.pf("func (x *%sProxy) %s() %s { return %s(x.p.Attr(%q)) }\n\n", dev.Name, exported(an), retT, retT, an)
	}
	for _, an := range actNames {
		a := dev.Actions[an]
		g.pf("// %s invokes the device's %s action.\n", exported(an), an)
		g.pf("func (x *%sProxy) %s(%s) error {\n", dev.Name, exported(an), paramList(a))
		g.pf("\treturn x.p.Invoke(%q%s)\n", an, invokeArgs(a))
		g.pf("}\n\n")
	}
}

func paramList(a *check.Action) string {
	parts := make([]string, len(a.Params))
	for i, p := range a.Params {
		parts[i] = fmt.Sprintf("%s %s", unexported(p.Name), goType(p.Type))
	}
	return strings.Join(parts, ", ")
}

func argList(a *check.Action) string {
	parts := make([]string, len(a.Params))
	for i, p := range a.Params {
		parts[i] = unexported(p.Name)
	}
	return strings.Join(parts, ", ")
}

func invokeArgs(a *check.Action) string {
	var b strings.Builder
	for _, p := range a.Params {
		fmt.Fprintf(&b, ", %s", unexported(p.Name))
	}
	return b.String()
}
