package main

import (
	"math"
	"sort"
)

// metricDef is one named metric of the benchmark. The end-to-end and
// per-layer tables below are the single source BENCHMARK.json is checked
// against (TestBenchmarkJSONMatchesTables).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; zero for
	// per-layer metrics, which are diagnostics and carry no bound.
	Bound float64
}

// endToEnd lists what a user of the orchestration platform sees. Every
// workload reports every one, from the untraced run. None can read zero.
var endToEnd = []metricDef{
	{"events_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.20},
}

// perLayer lists the single-layer diagnostics of the traced run, named
// <module>.<metric>. A layer a workload does not exercise reads zero there,
// which is itself the evidence that the workload bypasses it.
var perLayer = []metricDef{
	// Demoted end-to-end metrics: printed on every traced run, ungated
	// (README "Demoted metrics" says why).
	{"latency_p95_ms", "ms", "lower", 0},
	{"latency_p99_ms", "ms", "lower", 0},
	{"fail_ratio", "ratio", "lower", 0},
	{"sustained", "bool", "higher", 0},
	{"actuate_p50_ms", "ms", "lower", 0},
	{"trace_overhead", "ratio", "lower", 0},

	{"runtime.admit_ns_per_event", "ns/event", "lower", 0},
	{"runtime.drain_ms", "ms", "lower", 0},
	{"runtime.batch_size", "events/batch", "higher", 0},
	{"runtime.allocs_per_event", "allocs/event", "lower", 0},
	{"runtime.poll_rebuilds", "count", "lower", 0},
	{"runtime.actuate_ms", "ms", "lower", 0},
	{"eventbus.publish_ns_per_event", "ns/event", "lower", 0},
	{"qos.admit_ratio", "ratio", "higher", 0},
	{"registry.bind_us", "us", "lower", 0},
	{"registry.scan_ms", "ms", "lower", 0},
	{"mapreduce.flush_ms", "ms", "lower", 0},
	{"mapreduce.dirty_ratio", "ratio", "lower", 0},
	{"transport.wire_bytes_per_event", "B/event", "lower", 0},
	{"transport.link_bytes_per_event", "B/event", "lower", 0},
	{"transport.codec_fallbacks", "count", "lower", 0},
	{"transport.rpc_us_per_batch", "us", "lower", 0},
	{"federation.sync_ms", "ms", "lower", 0},
	{"federation.retries", "count", "lower", 0},
	{"federation.spool_drops", "count", "lower", 0},
	{"persist.barrier_ms", "ms", "lower", 0},
	{"persist.snapshot_ms", "ms", "lower", 0},
	{"persist.wal_bytes_per_change", "B/change", "lower", 0},
	{"persist.recover_ms", "ms", "lower", 0},
	{"dsl.deploy_ms", "ms", "lower", 0},
	{"dsl.load_ms", "ms", "lower", 0},
	{"gen.late_p95_ms", "ms", "lower", 0},
	{"gen.busy_share", "ratio", "lower", 0},
}

// quantile returns the q-quantile (0..1) of an ascending-sorted slice by
// linear interpolation; zero for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns Q1, median and Q3 with the method of Python's
// statistics.quantiles(values, n=4) (exclusive), which is what the driver
// applies to the ten runs of a workload.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(2), at(3)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
