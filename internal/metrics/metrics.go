// Package metrics renders operations-plane snapshots in the Prometheus
// text exposition format (version 0.0.4) and serves them over HTTP — the
// scrape side of the operations plane. It depends only on the transport
// wire records, so any tier that can produce a transport.FleetStats (a
// multi-tenant Host, a single-tenant Runtime, or a remote admin client
// relaying fleet_stats) can expose metrics without new coupling.
//
// Naming scheme, designed so the docs/OPERATIONS.md catalog maps 1:1 onto
// families:
//
//   - app-scope counters:   diaspec_app_<counter>{app="<id>"}
//   - host-scope counters:  diaspec_host_<counter>
//   - gauge sources:        diaspec_<source>_<counter> (e.g. federation)
//   - peer links:           diaspec_peer_health{peer=...}, diaspec_peer_bytes_{sent,recv}{peer=...}
//   - registry population:  diaspec_registry_entities{kind=...}, diaspec_registry_mirrors{kind=...}
//   - ingestion budgets:    diaspec_budget_{capacity,in_flight,admitted,rejected}{app=...}
//   - drain state:          diaspec_draining
package metrics

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// ContentType is the HTTP Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// gaugeCounters names the per-scope counters that are point-in-time gauges
// rather than cumulative counters; everything else exported through a
// Counters() map is monotonic. Kept in one place so the exposition TYPE
// lines and the docs catalog agree.
var gaugeCounters = map[string]bool{
	"mirrors_live":      true,
	"peers_up":          true,
	"peers_degraded":    true,
	"peers_partitioned": true,
	"exported_hosted":   true,
}

// Table is a counter scope declared by the struct S: each field is a uint64
// tagged `counter:"<wire name>"`, plus ",drop" on the rows of the scope's
// drop ledger (readings accepted and then shed, so delivered + Drops ==
// accepted). Load fills the leading fields from an atomic array whose row
// constants follow field order. Reflection runs only here, on snapshot and
// export, never on a bump.
type Table[S any] struct {
	names []string // wire name per field
	drops []int    // indices of the ,drop fields
}

// NewTable reads S's tags; a field that is not a tagged uint64, or whose
// wire name another field already uses, panics.
func NewTable[S any]() *Table[S] {
	typ := reflect.TypeFor[S]()
	t := &Table[S]{names: make([]string, typ.NumField())}
	for i := range t.names {
		f := typ.Field(i)
		name, opt, _ := strings.Cut(f.Tag.Get("counter"), ",")
		if f.Type.Kind() != reflect.Uint64 || name == "" || (opt != "" && opt != "drop") || slices.Contains(t.names[:i], name) {
			panic(fmt.Sprintf("metrics: %s.%s is not a uniquely tagged uint64 counter", typ, f.Name))
		}
		t.names[i] = name
		if opt == "drop" {
			t.drops = append(t.drops, i)
		}
	}
	return t
}

// Load copies rows into the leading len(rows) fields of *s.
func (t *Table[S]) Load(s *S, rows []atomic.Uint64) {
	v := reflect.ValueOf(s).Elem()
	for i := range rows {
		v.Field(i).SetUint(rows[i].Load())
	}
}

// Map flattens *s into a wire name → value map.
func (t *Table[S]) Map(s *S) map[string]uint64 {
	v := reflect.ValueOf(s).Elem()
	m := make(map[string]uint64, len(t.names))
	for i, name := range t.names {
		m[name] = v.Field(i).Uint()
	}
	return m
}

// Drops sums the drop ledger rows of *s.
func (t *Table[S]) Drops(s *S) uint64 {
	v := reflect.ValueOf(s).Elem()
	var n uint64
	for _, i := range t.drops {
		n += v.Field(i).Uint()
	}
	return n
}

// DropNames lists the wire names of the drop ledger rows.
func (t *Table[S]) DropNames() []string {
	names := make([]string, len(t.drops))
	for k, i := range t.drops {
		names[k] = t.names[i]
	}
	return names
}

// peerHealthValue renders the health ladder as a numeric gauge: 2 = up,
// 1 = degraded, 0 = partitioned (unknown states also read 0, the alarming
// value).
func peerHealthValue(health string) uint64 {
	switch health {
	case "up":
		return 2
	case "degraded":
		return 1
	default:
		return 0
	}
}

// sample is one rendered line of a family: an optional label pair and a
// value.
type sample struct {
	labelKey string // "" = no label
	labelVal string
	value    uint64
}

// family is one metric family: its name, HELP text, TYPE, and samples.
// Families render sorted by name, samples sorted by label value, so the
// exposition is deterministic.
type family struct {
	name    string
	help    string
	typ     string // "counter" or "gauge"
	samples []sample
}

// sanitizeName coerces an arbitrary scope or counter name into a legal
// metric-name fragment: anything outside [a-zA-Z0-9_] becomes '_'.
func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// addScoped folds one scope's counter map into per-counter families named
// prefix_<counter>, labeling each sample with the scope when labelKey is
// non-empty.
func addScoped(fams map[string]*family, prefix, labelKey, labelVal, scopeDesc string, counters map[string]uint64) {
	for name, v := range counters {
		fam := prefix + "_" + sanitizeName(name)
		f := fams[fam]
		if f == nil {
			typ := "counter"
			if gaugeCounters[name] {
				typ = "gauge"
			}
			f = &family{
				name: fam,
				help: scopeDesc + " counter " + name + "; see docs/OPERATIONS.md for semantics.",
				typ:  typ,
			}
			fams[fam] = f
		}
		f.samples = append(f.samples, sample{labelKey: labelKey, labelVal: labelVal, value: v})
	}
}

// Write renders fs in the Prometheus text exposition format. The output is
// deterministic: families sort by name, samples by label value.
func Write(w io.Writer, fs transport.FleetStats) error {
	fams := make(map[string]*family)

	addScoped(fams, "diaspec_host", "", "", "Host substrate", fs.Host.Counters)
	for _, rec := range fs.Apps {
		addScoped(fams, "diaspec_app", "app", rec.App, "Per-app runtime", rec.Counters)
	}
	for _, rec := range fs.Gauges {
		addScoped(fams, "diaspec_"+sanitizeName(rec.App), "", "", "Gauge source "+rec.App, rec.Counters)
	}

	if len(fs.Peers) > 0 {
		health := &family{name: "diaspec_peer_health", typ: "gauge",
			help: "Federation peer link health: 2 = up, 1 = degraded, 0 = partitioned."}
		sent := &family{name: "diaspec_peer_bytes_sent", typ: "counter",
			help: "Cumulative bytes sent to the federation peer."}
		recv := &family{name: "diaspec_peer_bytes_recv", typ: "counter",
			help: "Cumulative bytes received from the federation peer."}
		for _, p := range fs.Peers {
			health.samples = append(health.samples, sample{"peer", p.Name, peerHealthValue(p.Health)})
			sent.samples = append(sent.samples, sample{"peer", p.Name, p.BytesSent})
			recv.samples = append(recv.samples, sample{"peer", p.Name, p.BytesRecv})
		}
		fams[health.name], fams[sent.name], fams[recv.name] = health, sent, recv
	}

	if len(fs.Registry) > 0 {
		ents := &family{name: "diaspec_registry_entities", typ: "gauge",
			help: "Live registry entities per device kind, mirrors included."}
		mirr := &family{name: "diaspec_registry_mirrors", typ: "gauge",
			help: "Federation mirror entities per device kind."}
		for _, kc := range fs.Registry {
			ents.samples = append(ents.samples, sample{"kind", kc.Kind, uint64(kc.Count)})
			mirr.samples = append(mirr.samples, sample{"kind", kc.Kind, uint64(kc.Mirrors)})
		}
		fams[ents.name], fams[mirr.name] = ents, mirr
	}

	if len(fs.Budgets) > 0 {
		capacity := &family{name: "diaspec_budget_capacity", typ: "gauge",
			help: "Configured ingestion admission bound per app (0 = unbounded)."}
		inFlight := &family{name: "diaspec_budget_in_flight", typ: "gauge",
			help: "Readings admitted and not yet delivered to their handler, per app."}
		admitted := &family{name: "diaspec_budget_admitted", typ: "counter",
			help: "Cumulative readings admitted by the app's ingestion budgets."}
		rejected := &family{name: "diaspec_budget_rejected", typ: "counter",
			help: "Cumulative readings refused by the app's ingestion budgets."}
		for _, b := range fs.Budgets {
			capVal := uint64(0)
			if b.Capacity > 0 {
				capVal = uint64(b.Capacity)
			}
			inf := uint64(0)
			if b.InFlight > 0 {
				inf = uint64(b.InFlight)
			}
			capacity.samples = append(capacity.samples, sample{"app", b.App, capVal})
			inFlight.samples = append(inFlight.samples, sample{"app", b.App, inf})
			admitted.samples = append(admitted.samples, sample{"app", b.App, b.Admitted})
			rejected.samples = append(rejected.samples, sample{"app", b.App, b.Rejected})
		}
		fams[capacity.name], fams[inFlight.name] = capacity, inFlight
		fams[admitted.name], fams[rejected.name] = admitted, rejected
	}

	draining := &family{name: "diaspec_draining", typ: "gauge",
		help: "1 while a drain has closed event admission on this host."}
	var dv uint64
	if fs.Draining {
		dv = 1
	}
	draining.samples = append(draining.samples, sample{value: dv})
	fams[draining.name] = draining

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labelVal < f.samples[j].labelVal })
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			var err error
			if s.labelKey == "" {
				_, err = fmt.Fprintf(w, "%s %d\n", f.name, s.value)
			} else {
				_, err = fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", f.name, s.labelKey, escapeLabel(s.labelVal), s.value)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler returns an http.Handler that renders source() on every request —
// mount it wherever an HTTP mux already exists.
func Handler(source func() transport.FleetStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = Write(w, source())
	})
}

// Server is an opt-in HTTP listener serving /metrics (and / as an alias)
// from a snapshot source, and the runtime profiles under /debug/pprof/.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// NewServer starts a metrics endpoint on addr ("127.0.0.1:0" for an
// ephemeral port). Every scrape calls source() for a fresh snapshot. The
// same listener serves net/http/pprof under /debug/pprof/ — on this mux
// only, never on http.DefaultServeMux — so `go tool pprof
// http://ADDR/debug/pprof/profile` works against any process an operator
// already opted into scraping; the listener is off by default, and where it
// is on it should be bound as narrowly as the scrape allows.
func NewServer(addr string, source func() transport.FleetStats) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(source))
	mux.Handle("/", Handler(source))
	mux.HandleFunc("/debug/pprof/", pprof.Index) // also serves the named profiles (heap, goroutine, allocs, ...)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the listener's address — the scrape target.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and any in-flight scrape handlers.
func (s *Server) Close() error { return s.srv.Close() }
