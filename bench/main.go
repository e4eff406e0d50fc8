// Command bench is the benchmark of record (BENCHMARK.json): five
// orchestration workloads over the repository's public APIs, each measured
// for capacity (closed loop) and paced latency (open loop, due-time
// stamped), with output checks on every run and — with -trace 1 — an
// outside-in per-layer trace. README.md defines every metric and workload.
//
//	bash bench/run.sh -workload storm.local -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// specs are the workloads, in BENCHMARK.json order. Names are the
// identifiers later issues use. Each paced rate was chosen once, at about a
// third of the capacity this box measured at the commit that added the
// benchmark (README "How rate_hz and the bounds were derived"); it changes
// only through a `benchmark` issue.
var specs = []*spec{
	{
		name: "storm.local", unit: "burst", limit: 50 * time.Millisecond, sampleEvery: 64,
		full:  sizing{fleet: 50000, lots: 100, tick: 5 * time.Millisecond, opsPerTick: 4000},
		small: sizing{fleet: 1000, lots: 10, tick: 5 * time.Millisecond, opsPerTick: 400},
		build: buildStormLocal,
	},
	{
		name: "gather.agg", unit: "round", limit: 100 * time.Millisecond, sampleEvery: 1,
		full:  sizing{fleet: 50000, lots: 100, tick: time.Second / 60, opsPerTick: 50000},
		small: sizing{fleet: 1000, lots: 10, tick: time.Second / 100, opsPerTick: 1000},
		build: buildGatherAgg,
	},
	{
		name: "storm.fed", unit: "burst", limit: 50 * time.Millisecond, sampleEvery: 64,
		full:  sizing{fleet: 25000, lots: 100, tick: 5 * time.Millisecond, opsPerTick: 3250},
		small: sizing{fleet: 1000, lots: 10, tick: 5 * time.Millisecond, opsPerTick: 325},
		build: buildStormFed,
	},
	{
		name: "tenants.hot", unit: "burst", limit: 50 * time.Millisecond, sampleEvery: 64,
		full:  sizing{fleet: 64 * 512, tenants: 64, tick: 5 * time.Millisecond, opsPerTick: 3000},
		small: sizing{fleet: 8 * 128, tenants: 8, tick: 5 * time.Millisecond, opsPerTick: 500},
		build: buildTenantsHot,
	},
	{
		name: "churn.durable", unit: "cycle", limit: 50 * time.Millisecond, sampleEvery: 64,
		full:  sizing{fleet: 50000, lots: 100, tick: 5 * time.Millisecond, opsPerTick: 3500},
		small: sizing{fleet: 1000, lots: 10, tick: 5 * time.Millisecond, opsPerTick: 350},
		build: buildChurnDurable,
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs: layout, flip order, picks, tenant assignment")
	seconds := flag.Float64("seconds", defaultSeconds, "measured time: a third capacity phase, two thirds paced phase")
	trace := flag.Int("trace", 0, "1 = traced run: record spans, run the layer probes, print the per-layer metrics")
	scale := flag.String("scale", "full", "full, or small (about 1k sensors, for smoke tests)")
	aa := flag.Int("aa", 0, "A/A check: run the suite n times in each of two interleaved sets of this binary")
	flag.Parse()
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *scale != "full" && *scale != "small" {
		fatal(fmt.Errorf("unknown -scale %q", *scale))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *aa > 0 {
		if err := runAA(os.Stdout, *aa, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	var todo []*spec
	if *workload == "all" {
		todo = specs
	} else if sp := findSpec(*workload); sp != nil {
		todo = []*spec{sp}
	} else {
		fatal(fmt.Errorf("unknown -workload %q", *workload))
	}
	// Everything a run writes stays under .bench_build in the working
	// directory (the checkout root when started through run.sh).
	scratch := filepath.Join(".bench_build", "tmp")
	for _, sp := range todo {
		opt := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, small: *scale == "small", tmp: scratch}
		res, err := run(sp, opt)
		if res != nil {
			if werr := report(os.Stdout, res, opt); werr != nil {
				fatal(werr)
			}
		}
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// metricValue is the wire form of one metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the last line a run prints: exactly these four keys.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints a run: first a detail line with everything measured (for
// people), last the summary line (for the driver) carrying the end-to-end
// metrics of an untraced run or the per-layer metrics of a traced one. A
// traced run also writes its spans under .bench_build/trace.
func report(out *os.File, res *result, opt runOpts) error {
	detail := res.detail
	all := make(map[string]metricValue)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			all[d.Name] = metricValue{res.metrics[d.Name], d.Unit}
		}
	}
	detail["metrics"] = all
	if opt.trace {
		dir := filepath.Join(".bench_build", "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", res.workload, opt.seed))
		if err := writeSpans(path, res.spans); err != nil {
			return err
		}
		detail["span_file"] = path
		detail["self_ms_by_span"] = selfShare(res.spans)
	}
	if err := json.NewEncoder(out).Encode(detail); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(summaryOf(res, opt.trace))
}

// summaryOf builds the summary line of one run: the end-to-end metrics, or
// with traced the per-layer ones.
func summaryOf(res *result, traced bool) summaryLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := summaryLine{
		Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{res.metrics[d.Name], d.Unit}
	}
	return line
}

// selfShare is the traced run's layer table: self time per span name in
// milliseconds, setup and probes included.
func selfShare(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for name, ns := range selfByName(spans) {
		out[name] = ms(ns)
	}
	return out
}
