package metrics

import (
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
)

// parseExposition is a strict parser of the Prometheus text exposition
// format (version 0.0.4) covering the subset this package emits: HELP and
// TYPE comments followed by contiguous samples of that family, metric and
// label names from the legal alphabets, integer values, escaped label
// values. It fails the test on the first malformed line, and returns
// sample values keyed by "family{label}" for semantic checks.
func parseExposition(t *testing.T, text string) map[string]uint64 {
	t.Helper()
	var (
		nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
		labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
		// One sample: name, optional {label="value"} with escapes, value.
		sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"\})? ([0-9]+)$`)
	)
	values := make(map[string]uint64)
	types := make(map[string]string)
	helped := make(map[string]bool)
	seen := make(map[string]bool)
	var current string // family of the open HELP/TYPE block
	lines := strings.Split(text, "\n")
	if lines[len(lines)-1] != "" {
		t.Fatal("exposition must end with a newline")
	}
	for i, line := range lines[:len(lines)-1] {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !nameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %s", i+1, name)
			}
			helped[name] = true
			current = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !nameRe.MatchString(fields[0]) {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if fields[1] != "counter" && fields[1] != "gauge" {
				t.Fatalf("line %d: TYPE %s is %q, want counter|gauge", i+1, fields[0], fields[1])
			}
			if _, dup := types[fields[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", i+1, fields[0])
			}
			types[fields[0]] = fields[1]
			current = fields[0]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", i+1, line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", i+1, line)
			}
			name, label, labelVal, valStr := m[1], m[2], m[3], m[4]
			if name != current {
				t.Fatalf("line %d: sample %s outside its HELP/TYPE block (current %s)", i+1, name, current)
			}
			if types[name] == "" || !helped[name] {
				t.Fatalf("line %d: sample %s before TYPE/HELP", i+1, name)
			}
			if label != "" && !labelRe.MatchString(label) {
				t.Fatalf("line %d: bad label name %q", i+1, label)
			}
			v, err := strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q", i+1, valStr)
			}
			key := name + "{" + label + "=" + labelVal + "}"
			if seen[key] {
				t.Fatalf("line %d: duplicate sample %s", i+1, key)
			}
			seen[key] = true
			values[key] = v
		}
	}
	return values
}

func sampleFleet() transport.FleetStats {
	return transport.FleetStats{
		Host: transport.AppStatsRecord{App: "host", Counters: map[string]uint64{
			"bus_published": 10, "bus_delivered": 9, "bus_dropped": 1, "errors": 0,
		}},
		Apps: []transport.AppStatsRecord{
			{App: "a", Counters: map[string]uint64{"ingest_events": 7, "groups_dirty": 2}},
			{App: "b", Counters: map[string]uint64{"ingest_events": 3}},
		},
		Gauges: []transport.AppStatsRecord{
			{App: "federation", Counters: map[string]uint64{"peers_up": 2, "mirrors_live": 40, "events_fwd": 5}},
		},
		Peers: []transport.PeerStatusRecord{
			{Name: "east", Health: "up", BytesSent: 100, BytesRecv: 200},
			{Name: "west", Health: "partitioned", BytesSent: 5, BytesRecv: 6},
			{Name: "mid", Health: "degraded"},
		},
		Registry: []transport.KindCount{{Kind: "Sensor", Count: 12, Mirrors: 4}},
		Budgets:  []transport.BudgetRecord{{App: "a", Capacity: 64, InFlight: 3, Admitted: 9, Rejected: 2}},
		Draining: true,
	}
}

// TestWriteParsesStrictly renders a fully-populated snapshot and runs it
// through the strict parser, then spot-checks the semantic mapping: scope
// labels, health ladder values, gauge typing, drain flag.
func TestWriteParsesStrictly(t *testing.T) {
	var b strings.Builder
	if err := Write(&b, sampleFleet()); err != nil {
		t.Fatal(err)
	}
	vals := parseExposition(t, b.String())

	checks := map[string]uint64{
		`diaspec_app_ingest_events{app=a}`:       7,
		`diaspec_app_ingest_events{app=b}`:       3,
		`diaspec_host_bus_published{=}`:          10,
		`diaspec_federation_peers_up{=}`:         2,
		`diaspec_peer_health{peer=east}`:         2,
		`diaspec_peer_health{peer=mid}`:          1,
		`diaspec_peer_health{peer=west}`:         0,
		`diaspec_peer_bytes_sent{peer=east}`:     100,
		`diaspec_registry_entities{kind=Sensor}`: 12,
		`diaspec_registry_mirrors{kind=Sensor}`:  4,
		`diaspec_budget_capacity{app=a}`:         64,
		`diaspec_budget_in_flight{app=a}`:        3,
		`diaspec_budget_admitted{app=a}`:         9,
		`diaspec_budget_rejected{app=a}`:         2,
		`diaspec_draining{=}`:                    1,
	}
	for key, want := range checks {
		if got, ok := vals[key]; !ok || got != want {
			t.Errorf("%s = %d (present=%v), want %d", key, got, ok, want)
		}
	}
}

// TestWriteTypesGaugesAndCounters checks the TYPE line split: known gauges
// render as gauge, everything else as counter.
func TestWriteTypesGaugesAndCounters(t *testing.T) {
	var b strings.Builder
	if err := Write(&b, sampleFleet()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for line, want := range map[string]bool{
		"# TYPE diaspec_federation_mirrors_live gauge": true,
		"# TYPE diaspec_federation_peers_up gauge":     true,
		"# TYPE diaspec_federation_events_fwd counter": true,
		"# TYPE diaspec_app_ingest_events counter":     true,
		"# TYPE diaspec_peer_health gauge":             true,
		"# TYPE diaspec_peer_bytes_sent counter":       true,
		"# TYPE diaspec_budget_in_flight gauge":        true,
		"# TYPE diaspec_budget_admitted counter":       true,
		"# TYPE diaspec_draining gauge":                true,
	} {
		if strings.Contains(text, line) != want {
			t.Errorf("exposition TYPE mismatch for %q", line)
		}
	}
}

// TestWriteDeterministic renders the same snapshot twice and expects
// byte-identical output — scrapes must diff cleanly.
func TestWriteDeterministic(t *testing.T) {
	var b1, b2 strings.Builder
	fs := sampleFleet()
	if err := Write(&b1, fs); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, fs); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("two renders of one snapshot differ")
	}
}

// TestWriteEscapesAndSanitizes pushes hostile names through: label values
// with quotes/backslashes/newlines must escape, counter names with illegal
// runes must sanitize into the metric-name alphabet. The strict parser
// accepting the output is the assertion.
func TestWriteEscapesAndSanitizes(t *testing.T) {
	fs := transport.FleetStats{
		Apps: []transport.AppStatsRecord{
			{App: `ev"il\app` + "\n", Counters: map[string]uint64{"weird-name.x": 1}},
		},
		Peers: []transport.PeerStatusRecord{{Name: `pe"er`, Health: "up"}},
	}
	var b strings.Builder
	if err := Write(&b, fs); err != nil {
		t.Fatal(err)
	}
	vals := parseExposition(t, b.String())
	if _, ok := vals[`diaspec_app_weird_name_x{app=ev\"il\\app\n}`]; !ok {
		t.Fatalf("sanitized/escaped sample missing in:\n%s", b.String())
	}
}

// TestServerServesMetricsAndPprof starts the opt-in listener and checks both
// of its surfaces: the exposition on /metrics and /, and the runtime
// profiles under /debug/pprof/ (index, a named profile, a short CPU profile).
func TestServerServesMetricsAndPprof(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", sampleFleet)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}
	for _, path := range []string{"/metrics", "/"} {
		code, ctype, body := get(path)
		if code != http.StatusOK || !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
			t.Fatalf("GET %s: status %d, content type %q", path, code, ctype)
		}
		parseExposition(t, body)
	}
	if code, _, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("GET /debug/pprof/: status %d, index does not list the goroutine profile", code)
	}
	if code, _, body := get("/debug/pprof/goroutine?debug=1"); code != http.StatusOK || !strings.Contains(body, "goroutine profile:") {
		t.Fatalf("GET /debug/pprof/goroutine: status %d, body %.60q", code, body)
	}
	if code, ctype, body := get("/debug/pprof/profile?seconds=1"); code != http.StatusOK || ctype != "application/octet-stream" || len(body) == 0 {
		t.Fatalf("GET /debug/pprof/profile: status %d, content type %q, %d bytes", code, ctype, len(body))
	}
}

// tableFixture is a counter scope: two live rows and one field computed at
// snapshot; the last two are drop rows.
type tableFixture struct {
	Sent    uint64 `counter:"sent"`
	Dropped uint64 `counter:"dropped,drop"`
	Lost    uint64 `counter:"lost,drop"`
}

// TestTable checks Load fills the leading fields in row order, Map exports
// each field once under its tag, and Drops/DropNames cover exactly the
// ,drop rows.
func TestTable(t *testing.T) {
	tab := NewTable[tableFixture]()
	var rows [2]atomic.Uint64
	rows[0].Store(1)
	rows[1].Store(2)
	s := tableFixture{Lost: 4}
	tab.Load(&s, rows[:])
	if s != (tableFixture{Sent: 1, Dropped: 2, Lost: 4}) {
		t.Fatalf("Load = %+v", s)
	}
	if m := tab.Map(&s); !reflect.DeepEqual(m, map[string]uint64{"sent": 1, "dropped": 2, "lost": 4}) {
		t.Fatalf("Map = %v", m)
	}
	if d, names := tab.Drops(&s), tab.DropNames(); d != 6 || !reflect.DeepEqual(names, []string{"dropped", "lost"}) {
		t.Fatalf("Drops = %d over %v, want 6 over [dropped lost]", d, names)
	}
}

// TestTableRejectsBadTags checks NewTable panics on an untagged field, an
// unknown tag option and a wire name used twice.
func TestTableRejectsBadTags(t *testing.T) {
	for name, newTable := range map[string]func(){
		"untagged": func() { NewTable[struct{ N uint64 }]() },
		"unknown option": func() {
			NewTable[struct {
				N uint64 `counter:"n,gauge"`
			}]()
		},
		"duplicate name": func() {
			NewTable[struct {
				A, B uint64 `counter:"n"`
			}]()
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewTable did not panic", name)
				}
			}()
			newTable()
		}()
	}
}
