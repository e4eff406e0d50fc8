package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(raw) != len(want) {
		t.Fatalf("BENCHMARK.json has %d keys, want exactly %v", len(raw), want)
	}
	for _, k := range want {
		if _, ok := raw[k]; !ok {
			t.Fatalf("BENCHMARK.json lacks key %q", k)
		}
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json and the tables the program
// prints from must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v", b.Command)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(b.Workloads), len(specs))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, spec is %q", i, w.Name, specs[i].name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, table has %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table says %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %q (%q)", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, table has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table says %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %q (%q)", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload at the small scale, traced, and checks the
// whole output surface: every metric BENCHMARK.json names is printed with
// its unit in the mode that owes it, the outputs check out, no op fails, and
// the span file parses into a tree whose self times are non-negative and
// add up to their parents.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	start := time.Now()
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			res, err := run(sp, runOpts{seed: 7, seconds: 1, trace: true, small: true, tmp: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d", res.correct, res.attempted)
			}
			for _, traced := range []bool{false, true} {
				line := summaryOf(res, traced)
				want := map[string]string{}
				if traced {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics printed, BENCHMARK.json names %d", traced, len(line.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := line.Metrics[name]
					if !ok {
						t.Errorf("traced=%v: metric %s not printed", traced, name)
					} else if got.Unit != unit {
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s is %v", name, got.Value)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never read zero", name, got.Value)
					}
				}
				data, err := json.Marshal(line)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(data, &keys); err != nil || len(keys) != 4 {
					t.Errorf("summary line has keys %v, want exactly correct, attempted, failed, metrics", keys)
				}
			}
			checkSpanFile(t, res.spans, sp.unit)
		})
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke took %v, budget 15s", d)
	}
}

// checkSpanFile round-trips the spans through the file format and checks the
// tree.
func checkSpanFile(t *testing.T, spans []span, unit string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	if len(back) == 0 || len(back) != len(spans) {
		t.Fatalf("span file holds %d spans, run recorded %d", len(back), len(spans))
	}
	byID := map[int]span{}
	names := map[string]int{}
	for _, s := range back {
		byID[s.ID] = s
		names[s.Name]++
		if !nameRE.MatchString(s.Name) {
			t.Errorf("span name %q", s.Name)
		}
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
	}
	for _, want := range []string{"setup", unit, "pipeline.drain"} {
		if names[want] == 0 {
			t.Errorf("no %q span recorded; have %v", want, names)
		}
	}
	self := selfTimes(back)
	kids := map[int][]span{}
	for _, s := range back {
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("span %d %s names missing parent %d", s.ID, s.Name, s.Parent)
				continue
			}
			if s.Op != p.Op {
				t.Errorf("span %d %s has op %d, its parent %s op %d", s.ID, s.Name, s.Op, p.Name, p.Op)
			}
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range back {
		if self[s.ID] < 0 {
			t.Errorf("span %d %s has negative self time %d", s.ID, s.Name, self[s.ID])
		}
		if got := self[s.ID] + covered(s, kids[s.ID]); got != s.End-s.Start {
			t.Errorf("span %d %s: self + children = %d, duration %d", s.ID, s.Name, got, s.End-s.Start)
		}
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "burst", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "b", Start: 30, End: 60, Parent: 1},   // overlaps a
		{ID: 4, Name: "c", Start: 90, End: 130, Parent: 1},  // clipped to the parent
		{ID: 5, Name: "d", Start: 35, End: 38, Parent: 3},   // grandchild
		{ID: 6, Name: "e", Start: 200, End: 210, Parent: 1}, // outside: covers nothing
	}
	self := selfTimes(spans)
	if self[1] != 100-50-10 {
		t.Errorf("burst self time %d, want 40", self[1])
	}
	if self[3] != 27 {
		t.Errorf("b self time %d, want 27", self[3])
	}
	if by := selfByName(spans); by["burst"] != 40 || by["d"] != 3 {
		t.Errorf("selfByName = %v", by)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) -> [1.5, 3.0, 4.5]
	if q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

// TestDoctoredCountFails: the output check must notice one reading too many
// or too few, at the comparison and through a whole world.
func TestDoctoredCountFails(t *testing.T) {
	if err := exact("x", 10, 2, 12); err != nil {
		t.Errorf("exact accounting rejected: %v", err)
	}
	if exact("x", 10, 2, 13) == nil || exact("x", 11, 2, 12) == nil {
		t.Error("a count off by one passed the exactness check")
	}
	sp := findSpec("storm.local")
	e := newEnv(sp, sp.small, 3, nil, t.TempDir())
	w, err := sp.build(e)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	g := &generator{e: e, w: w}
	e.clock.set(time.Now())
	if _, err := w.burst(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.waitAccounted(stallLimit); err != nil {
		t.Fatal(err)
	}
	if err := w.check(); err != nil {
		t.Fatalf("honest run failed its check: %v", err)
	}
	w.(*stormLocal).acc++ // one accepted reading that never arrived
	if err := w.check(); err == nil {
		t.Error("a doctored ground truth passed the output check")
	} else if !strings.Contains(err.Error(), "off by -1") {
		t.Errorf("the check does not name the discrepancy: %v", err)
	}
}

// TestSeedDiscipline: one seed gives one set of inputs — layout, flip order,
// churn picks, tenant assignment, paced op count and the wire bytes of the
// replayed batches — and another seed gives another.
func TestSeedDiscipline(t *testing.T) {
	type inputs struct {
		lots     []string
		order    []int
		owners   []int
		churnIDs map[string]bool
		paced    uint64
		wire     float64
	}
	gather := func(seed int64) inputs {
		var in inputs
		sp := findSpec("storm.fed")
		e := newEnv(sp, sp.small, seed, nil, t.TempDir())
		w, err := sp.build(e)
		if err != nil {
			t.Fatal(err)
		}
		fed := w.(*stormFed)
		in.lots, in.order = fed.swarm.Lots(), fed.order
		m := map[string]float64{}
		if err := fed.layers(m); err != nil {
			t.Fatal(err)
		}
		in.wire = m["transport.wire_bytes_per_event"]
		if m["transport.codec_fallbacks"] != 0 {
			t.Errorf("codec fallbacks: %v", m["transport.codec_fallbacks"])
		}
		w.close()

		sp = findSpec("tenants.hot")
		e = newEnv(sp, sp.small, seed, nil, t.TempDir())
		if w, err = sp.build(e); err != nil {
			t.Fatal(err)
		}
		in.owners = w.(*tenantsHot).owner
		w.close()

		sp = findSpec("churn.durable")
		e = newEnv(sp, sp.small, seed, nil, t.TempDir())
		if w, err = sp.build(e); err != nil {
			t.Fatal(err)
		}
		cd := w.(*churnDurable)
		in.churnIDs = map[string]bool{}
		for _, re := range cd.store.Recovered().Entities {
			in.churnIDs[string(re.Entity.ID)] = true
		}
		w.close()

		res, err := run(findSpec("storm.local"), runOpts{seed: seed, seconds: 0.6, small: true, tmp: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		in.paced = res.detail["paced_ops"].(uint64)
		return in
	}
	a, b, c := gather(11), gather(11), gather(12)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("the same seed gave different inputs:\n%+v\n%+v", a, b)
	}
	if a.wire == 0 {
		t.Error("wire bytes per event not measured")
	}
	if reflect.DeepEqual(a.lots, c.lots) || reflect.DeepEqual(a.order, c.order) ||
		reflect.DeepEqual(a.owners, c.owners) || reflect.DeepEqual(a.churnIDs, c.churnIDs) {
		t.Error("a different seed left the layout, flip order, tenant assignment or churn picks unchanged")
	}
	if a.paced != c.paced {
		t.Errorf("paced op count depends on the seed: %d vs %d", a.paced, c.paced)
	}
}

// TestStampSensorPushContract: the benchmark-owned device honours the
// PushSubscriber contract the runtime relies on.
func TestStampSensorPushContract(t *testing.T) {
	var fleet tenantsHot
	s := &stampSensor{id: "m1", kind: "Meter", attached: &fleet.attached}
	if s.emit(int64(1), time.Now()) {
		t.Error("an unattached sensor reported an accepted reading")
	}
	got := &countSink{}
	cancel, err := s.SubscribePush("stamp", got)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubscribePush("other", got); err == nil {
		t.Error("unknown source accepted")
	}
	if !s.emit(int64(1), time.Now()) || got.n != 1 || fleet.attached.Load() != 1 {
		t.Errorf("emit after attach: n=%d attached=%d", got.n, fleet.attached.Load())
	}
	cancel()
	cancel() // idempotent
	if s.emit(int64(1), time.Now()) || got.n != 1 || fleet.attached.Load() != 0 {
		t.Errorf("emit after cancel: n=%d attached=%d", got.n, fleet.attached.Load())
	}
}

type countSink struct{ n int }

func (c *countSink) Push(device.Reading) { c.n++ }
