package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	stdruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// The run shape is fixed by the benchmark and identical on every commit:
//
//	setup (five times, median reported as setup_s) → warm-up (one burst,
//	discarded) → capacity phase (closed loop, a third of -seconds) →
//	paced phase (open loop at the workload's fixed rate, two thirds)
//	→ drain → output checks.
//
// One goroutine — the caller of run — generates all load.
const (
	setupRepeats = 5
	// drainGrace bounds the wait for outstanding ops after the last paced
	// tick; what is still missing then counts as failed.
	drainGrace = 5 * time.Second
	// stallLimit bounds the wait for one closed-loop burst.
	stallLimit = 30 * time.Second
	// time.Sleep on this kernel wakes about a millisecond late whatever it
	// is asked, so short waits spin on Gosched instead: a wait polls by
	// yielding for its first spinFor, and a paced tick sleeps only until
	// spinFor before its due time.
	pollEvery = 100 * time.Microsecond
	spinFor   = 1200 * time.Microsecond
)

// sleepUntil returns at t, not a timer granule after it.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinFor; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		stdruntime.Gosched()
	}
}

// pause is one step of a polling wait that began at start.
func pause(start time.Time) {
	if time.Since(start) < spinFor {
		stdruntime.Gosched()
	} else {
		time.Sleep(pollEvery)
	}
}

// sizing is one scale of a workload: the world's size and its paced rate.
type sizing struct {
	fleet      int           // sensors in total
	lots       int           // groups the sensors spread over
	tenants    int           // apps (tenants.hot only)
	tick       time.Duration // paced emission interval
	opsPerTick int           // ops emitted per tick: rate_hz = opsPerTick / tick
}

func (s sizing) rateHz() float64 { return float64(s.opsPerTick) / s.tick.Seconds() }

// spec is one workload of the benchmark.
type spec struct {
	name string
	// unit names the span of one closed-loop unit of work: burst, round or
	// cycle.
	unit string
	// limit is the latency beyond which an observed op counts as failed.
	limit time.Duration
	// sampleEvery: latency is sampled on 1 op in sampleEvery, by sequence
	// number at the observing end.
	sampleEvery uint64
	full, small sizing
	build       func(e *env) (world, error)
}

// world is one workload's system under test plus the benchmark-owned ends
// around it (devices, handlers, controllers, actuators).
type world interface {
	// burst emits one closed-loop unit of work stamped with the clock's
	// current time and returns the ops attempted. parent is the enclosing
	// span.
	burst(parent int, op int64) (int, error)
	// tick emits n paced ops stamped with the clock's current (due) time,
	// after whatever periodic duty of the workload has fallen due.
	tick(n int, op int64) (int, error)
	// accepted is the ground truth: ops a device handed to the program.
	accepted() uint64
	// delivered counts ops observed at the far end; cheap enough to poll.
	delivered() uint64
	// dropped sums every drop counter an accepted op may end in.
	dropped() uint64
	// baseline is called once after warm-up: counter deltas start here.
	baseline()
	// check compares the outputs with the ground truth, after the drain.
	check() error
	// layers fills in the world's per-layer metrics: counter deltas and
	// isolated probes replaying the workload's input shape.
	layers(m map[string]float64) error
	close()
}

// drainTracer is implemented by worlds that can place spans of their own
// inside a burst's drain once it is over.
type drainTracer interface {
	drained(parent int, op int64)
}

// dueClock is the benchmark-owned clock handed to device simulators: Now
// returns the time the current tick was due, so every reading is stamped
// with its due time and a stall is charged to the ops behind it.
type dueClock struct {
	simclock.Real
	ns atomic.Int64
}

func (c *dueClock) Now() time.Time  { return time.Unix(0, c.ns.Load()) }
func (c *dueClock) set(t time.Time) { c.ns.Store(t.UnixNano()) }

// sample is one latency observation: when the op was due and how much later
// the far end saw it.
type sample struct{ due, lat int64 }

// recorder collects sampled observations from the benchmark-owned far end
// of a design (context handler, controller or actuator).
type recorder struct {
	every uint64

	mu       sync.Mutex
	sampling bool
	samples  []sample
	first    int64 // first and last observation since resetWindow
	last     int64
}

func newRecorder(every uint64) *recorder {
	return &recorder{every: every, samples: make([]sample, 0, 1<<16)}
}

// observe records one sampled op that was due at the given unix-nanosecond
// time.
func (r *recorder) observe(due int64) {
	now := time.Now().UnixNano()
	r.mu.Lock()
	if r.sampling {
		r.samples = append(r.samples, sample{due, now - due})
	}
	if r.first == 0 {
		r.first = now
	}
	r.last = now
	r.mu.Unlock()
}

func (r *recorder) setSampling(on bool) {
	r.mu.Lock()
	r.sampling = on
	r.mu.Unlock()
}

// window returns the first and last observation times since the previous
// call and starts a new window.
func (r *recorder) window() (first, last int64) {
	r.mu.Lock()
	first, last = r.first, r.last
	r.first, r.last = 0, 0
	r.mu.Unlock()
	return first, last
}

// take returns the samples and forgets them, so they do not count as live
// heap afterwards.
func (r *recorder) take() []sample {
	r.mu.Lock()
	s := r.samples
	r.samples = nil
	r.mu.Unlock()
	return s
}

// env is what a world gets from the harness.
type env struct {
	spec  *spec
	size  sizing
	seed  int64
	rng   *rand.Rand // seeded; drives layout, flip order, picks, assignment
	clock *dueClock
	tr    *tracer
	rec   *recorder // end-to-end latency samples
	act   *recorder // actuator-side samples (storm.local), ungated
	tmp   string    // scratch directory inside the checkout

	setupSpan int   // the enclosing span of the setup in progress,
	setupOp   int64 // and which repeat of the setup it is

	mu       sync.Mutex
	durs     map[string][]float64 // span durations by name, milliseconds
	admitOps uint64               // ops emitted inside runtime.admit spans
}

func newEnv(sp *spec, size sizing, seed int64, tr *tracer, tmp string) *env {
	return &env{
		spec: sp, size: size, seed: seed,
		rng:   rand.New(rand.NewSource(seed)),
		clock: &dueClock{},
		tr:    tr,
		rec:   newRecorder(sp.sampleEvery),
		act:   newRecorder(1),
		tmp:   tmp,
		durs:  make(map[string][]float64),
	}
}

// span notes one interval at a boundary the benchmark owns: its duration
// always (the per-layer medians come from these), and a trace span when the
// run is traced. It returns the span ID for children.
func (e *env) span(name string, parent int, op int64, start, end time.Time) int {
	e.mu.Lock()
	e.durs[name] = append(e.durs[name], ms(end.Sub(start).Nanoseconds()))
	e.mu.Unlock()
	return e.tr.add(name, parent, op, start, end, nil)
}

// admit notes the emission of n ops of a closed-loop burst: the synchronous
// part of ingestion (Sink.Push admission) runs inside this span.
func (e *env) admit(parent int, op int64, start, end time.Time, n int) {
	e.span("runtime.admit", parent, op, start, end)
	e.mu.Lock()
	e.admitOps += uint64(n)
	e.mu.Unlock()
}

// timed runs fn as one span.
func (e *env) timed(name string, parent int, op int64, fn func() error) error {
	start := time.Now()
	err := fn()
	e.span(name, parent, op, start, time.Now())
	return err
}

// setup runs fn as one span of the setup in progress.
func (e *env) setup(name string, fn func() error) error {
	return e.timed(name, e.setupSpan, e.setupOp, fn)
}

func (e *env) medianMs(name string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return median(e.durs[name])
}

// bindUs is the setup's registry.bind span per bound device, in microseconds.
func (e *env) bindUs(devices int) float64 {
	return e.sumMs("registry.bind") * 1e3 / float64(devices)
}

// medians returns the median duration of every span name, for the detail
// line.
func (e *env) medians() map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]float64, len(e.durs))
	for name, d := range e.durs {
		out[name] = median(d)
	}
	return out
}

func (e *env) sumMs(name string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var s float64
	for _, d := range e.durs[name] {
		s += d
	}
	return s
}

// lotNames returns n group names in seed order: sensor i sits in lot
// names[i%n], so the seed decides the sensor→lot layout (and, since swarm
// device IDs embed the lot, every device ID).
func (e *env) lotNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("L%03d", i)
	}
	e.rng.Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// runOpts are the command-line choices of one run.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	small   bool
	tmp     string
}

// result is everything one run measured.
type result struct {
	workload  string
	correct   bool
	attempted uint64
	failed    uint64
	metrics   map[string]float64
	detail    map[string]any
	spans     []span
}

// run executes one workload once.
func run(sp *spec, opt runOpts) (*result, error) {
	size := sp.full
	if opt.small {
		size = sp.small
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	// Setup, several times: the median is steadier than one sample, and
	// work a later change moves into setup shows here.
	var e *env
	var w world
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
			stdruntime.GC()
		}
		e = newEnv(sp, size, opt.seed, tr, opt.tmp)
		start := time.Now()
		root := e.tr.open("setup", 0, int64(i), start)
		e.setupSpan, e.setupOp = root, int64(i)
		var err error
		if w, err = sp.build(e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", sp.name, err)
		}
		end := time.Now()
		e.tr.finish(root, end, nil)
		setups = append(setups, end.Sub(start).Seconds())
	}
	defer w.close()

	g := &generator{e: e, w: w}
	// Warm-up: one full burst, discarded — buffers, pools, snapshots and
	// caches are steady state before anything is timed.
	e.clock.set(time.Now())
	if _, err := w.burst(0, -1); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", sp.name, err)
	}
	if err := g.waitAccounted(stallLimit); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", sp.name, err)
	}
	w.baseline()

	capDur := time.Duration(opt.seconds / 3 * float64(time.Second))
	pacedDur := time.Duration(opt.seconds*float64(time.Second)) - capDur
	if err := g.capacity(capDur); err != nil {
		return nil, fmt.Errorf("%s: capacity phase: %w", sp.name, err)
	}
	if err := g.paced(pacedDur); err != nil {
		return nil, fmt.Errorf("%s: paced phase: %w", sp.name, err)
	}

	res := &result{workload: sp.name, metrics: make(map[string]float64)}
	m := res.metrics
	lat := summarize(e.rec.take(), g.pacedStart, sp.limit)
	actLat := summarize(e.act.take(), g.pacedStart, 0)

	// Live state at the stated fleet size: the benchmark's own samples were
	// taken out of the recorders above and are dead by now.
	stdruntime.GC()
	var mem stdruntime.MemStats
	stdruntime.ReadMemStats(&mem)

	checkErr := w.check()
	dropped := w.dropped()
	refused := g.attempted - (w.accepted() - g.acceptedAtBaseline)
	// The summary line's failed counts hard failures only: ops refused,
	// dropped by any budget, deadline or spool counter, or never accounted.
	// None can happen on a healthy program at the committed rates. An op
	// observed later than limit_ms, or any paced op of an unsustained run,
	// counts in the wider fail_ratio instead, which is printed but gates
	// nothing: a stall of the shared box must not turn into failed ops.
	res.attempted = g.attempted
	res.failed = refused + (dropped - g.droppedAtBaseline) + g.unaccounted
	soft := res.failed + lat.late*sp.sampleEvery
	if !g.sustained && soft < g.pacedOps {
		soft = g.pacedOps
	}
	res.correct = checkErr == nil

	m["events_per_s"] = median(g.burstRates)
	m["latency_p50_ms"] = lat.p50
	m["latency_p95_ms"] = lat.p95
	m["latency_p99_ms"] = lat.p99
	m["setup_s"] = median(setups)
	m["heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	m["fail_ratio"] = float64(soft) / float64(max(res.attempted, 1))
	m["sustained"] = b2f(g.sustained)
	m["actuate_p50_ms"] = actLat.p50
	m["trace_overhead"] = g.traceOverhead()
	m["gen.late_p95_ms"] = quantile(sortedCopy(g.lateMs), 0.95)
	m["gen.busy_share"] = g.busy.Seconds() / pacedDur.Seconds()
	if e.admitOps > 0 {
		m["runtime.admit_ns_per_event"] = e.sumMs("runtime.admit") * 1e6 / float64(e.admitOps)
	}
	if g.capOps > 0 {
		m["runtime.allocs_per_event"] = float64(g.capMallocs) / float64(g.capOps)
	}
	m["runtime.drain_ms"] = e.medianMs("pipeline.drain")
	m["qos.admit_ratio"] = 1 - float64(refused+dropped-g.droppedAtBaseline)/float64(max(res.attempted, 1))
	if opt.trace {
		if err := w.layers(m); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", sp.name, err)
		}
	}
	res.spans = tr.snapshot()
	res.detail = map[string]any{
		"workload": sp.name, "seed": opt.seed, "scale": scaleName(opt.small),
		"gomaxprocs": stdruntime.GOMAXPROCS(0), "go": stdruntime.Version(),
		"fleet": size.fleet, "rate_hz": size.rateHz(), "tick_ms": ms(size.tick.Nanoseconds()),
		"limit_ms": ms(sp.limit.Nanoseconds()), "capacity_s": capDur.Seconds(), "paced_s": pacedDur.Seconds(),
		"bursts": len(g.burstRates), "paced_ops": g.pacedOps, "latency_samples": lat.n,
		"late_samples": lat.late, "refused": refused, "dropped": dropped - g.droppedAtBaseline,
		"unaccounted": g.unaccounted, "sustained": g.sustained,
		"backlog_mid": g.backlogMid, "backlog_end": g.backlogEnd, "setups_s": setups,
		"span_median_ms": e.medians(),
	}
	if checkErr != nil {
		res.detail["check_error"] = checkErr.Error()
		return res, fmt.Errorf("%s: output check: %w", sp.name, checkErr)
	}
	return res, nil
}

func scaleName(small bool) string {
	if small {
		return "small"
	}
	return "full"
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// generator is the single load-generating loop of a run.
type generator struct {
	e *env
	w world

	attempted          uint64 // ops emitted in the capacity and paced phases
	acceptedAtBaseline uint64
	droppedAtBaseline  uint64
	lastDropped        uint64

	burstRates  []float64 // untraced bursts, ops/s
	tracedRates []float64 // bursts run with span recording on
	capOps      uint64
	capMallocs  uint64
	pacedStart  time.Time
	pacedOps    uint64
	lateMs      []float64
	busy        time.Duration
	backlogMid  int64
	backlogEnd  int64
	sustained   bool
	unaccounted uint64
	opSeq       int64
}

var errStalled = errors.New("stalled")

// waitAccounted polls until every accepted op is delivered or counted
// dropped. Drop counters are refreshed only every few milliseconds: on the
// expected path there are none and the cheap delivered count suffices.
func (g *generator) waitAccounted(limit time.Duration) error {
	start := time.Now()
	nextDrops := start.Add(2 * time.Millisecond)
	for {
		want := g.w.accepted()
		got := g.w.delivered() + g.lastDropped
		if got == want {
			return nil
		}
		now := time.Now()
		if got > want || now.After(nextDrops) {
			d := g.w.dropped()
			g.lastDropped = d
			nextDrops = now.Add(2 * time.Millisecond)
			if got = g.w.delivered() + d; got == want {
				return nil
			}
			// Delivered is read before accepted could move (one
			// generator), so overshoot is duplicate or stale delivery.
			if got > want {
				return fmt.Errorf("accounted %d ops, ground truth %d: duplicate or stale delivery", got, want)
			}
		}
		if now.Sub(start) > limit {
			return fmt.Errorf("%w at %d of %d accounted ops after %v", errStalled, got, want, limit)
		}
		pause(start)
	}
}

// capacity is the closed loop: emit one burst, wait until every accepted op
// is accounted, repeat. In a traced run span recording is on for every
// second burst, so the tracing overhead is measured inside the same run.
func (g *generator) capacity(d time.Duration) error {
	g.acceptedAtBaseline = g.w.accepted()
	g.droppedAtBaseline = g.w.dropped()
	g.lastDropped = g.droppedAtBaseline

	var mem stdruntime.MemStats
	stdruntime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	e := g.e
	traced := e.tr != nil
	phaseStart := time.Now()
	for i := 0; time.Since(phaseStart) < d; i++ {
		on := traced && i%2 == 1
		e.tr.setEnabled(on)
		g.opSeq++
		op := g.opSeq
		e.rec.window()
		start := time.Now()
		e.clock.set(start)
		root := e.tr.open(e.spec.unit, 0, op, start)
		ops, err := g.w.burst(root, op)
		if err != nil {
			return err
		}
		emitted := time.Now()
		if err := g.waitAccounted(stallLimit); err != nil {
			return err
		}
		end := time.Now()
		// The far end stamps its sampled observations itself; the last one
		// is within sampleEvery ops of the burst's end and free of this
		// loop's polling granularity, so it ends the burst when every op
		// was delivered (drops are only seen by polling).
		first, last := e.rec.window()
		if last > emitted.UnixNano() && last < end.UnixNano() && g.w.delivered() == g.w.accepted() {
			end = time.Unix(0, last)
		}
		drain := e.span("pipeline.drain", root, op, emitted, end)
		if first != 0 {
			// Clip to the drain: sampled observations made while the
			// burst was still being emitted belong to the emit spans.
			lo, hi := max(first, emitted.UnixNano()), min(max(last, emitted.UnixNano()), end.UnixNano())
			e.tr.add("observe", drain, op, time.Unix(0, lo), time.Unix(0, hi), nil)
		}
		if dt, ok := g.w.(drainTracer); ok {
			dt.drained(drain, op)
		}
		e.tr.finish(root, end, map[string]uint64{"ops": uint64(ops)})
		rate := float64(ops) / end.Sub(start).Seconds()
		if on {
			g.tracedRates = append(g.tracedRates, rate)
		} else {
			g.burstRates = append(g.burstRates, rate)
		}
		g.attempted += uint64(ops)
		g.capOps += uint64(ops)
	}
	e.tr.setEnabled(traced)
	stdruntime.ReadMemStats(&mem)
	g.capMallocs = mem.Mallocs - mallocs
	return nil
}

// traceOverhead is untraced over traced capacity: 1 means recording spans
// cost nothing measurable.
func (g *generator) traceOverhead() float64 {
	if len(g.tracedRates) == 0 {
		return 0
	}
	return median(g.burstRates) / median(g.tracedRates)
}

// paced is the open loop: every tick emits its fixed number of ops at its
// due time whether or not the program has kept up, and stamps them with the
// due time.
func (g *generator) paced(d time.Duration) error {
	e := g.e
	tick := e.size.tick
	ticks := int(d / tick)
	if ticks < 2 {
		return fmt.Errorf("paced phase of %v is shorter than two ticks of %v", d, tick)
	}
	e.rec.setSampling(true)
	e.act.setSampling(true)
	defer e.rec.setSampling(false)
	defer e.act.setSampling(false)
	g.lateMs = make([]float64, 0, ticks)
	backlogs := make([]float64, 0, ticks)
	g.pacedStart = time.Now().Add(time.Millisecond)
	for k := 0; k < ticks; k++ {
		due := g.pacedStart.Add(time.Duration(k) * tick)
		sleepUntil(due)
		start := time.Now()
		g.lateMs = append(g.lateMs, ms(start.Sub(due).Nanoseconds()))
		e.clock.set(due)
		g.opSeq++
		ops, err := g.w.tick(e.size.opsPerTick, g.opSeq)
		if err != nil {
			return err
		}
		g.busy += time.Since(start)
		g.pacedOps += uint64(ops)
		backlogs = append(backlogs, float64(g.backlog()))
	}
	g.attempted += g.pacedOps
	// A backlog that grew by more than one tick between the middle and the
	// end of the phase means the rate is not sustainable; so does a
	// generator that could not keep its own schedule. Each backlog is the
	// median over an eighth of the phase: a single reading taken just after
	// a stall says nothing about growth.
	eighth := max(ticks/8, 1)
	g.backlogMid = int64(median(backlogs[ticks/2-eighth/2 : ticks/2-eighth/2+eighth]))
	g.backlogEnd = int64(median(backlogs[ticks-eighth:]))
	lateP95 := quantile(sortedCopy(g.lateMs), 0.95)
	g.sustained = g.backlogEnd <= g.backlogMid+int64(e.size.opsPerTick) &&
		lateP95 <= ms(tick.Nanoseconds())
	err := g.waitAccounted(drainGrace)
	if errors.Is(err, errStalled) {
		g.unaccounted = g.w.accepted() - g.w.delivered() - g.w.dropped()
		err = nil
	}
	return err
}

// backlog is how many accepted ops are neither delivered nor known dropped.
func (g *generator) backlog() int64 {
	return int64(g.w.accepted()) - int64(g.w.delivered()) - int64(g.lastDropped)
}

// latencySummary is what the paced samples reduce to.
type latencySummary struct {
	n             int
	late          uint64
	p50, p95, p99 float64
}

// summarize reduces latency samples: p50 over all of them; p95 and p99 as
// the median of per-second-window percentiles (windows by due time), which
// is steadier between runs than one tail estimate over the whole phase;
// late counts samples beyond limit (0 = no limit).
func summarize(samples []sample, start time.Time, limit time.Duration) latencySummary {
	out := latencySummary{n: len(samples)}
	if len(samples) == 0 {
		return out
	}
	all := make([]float64, len(samples))
	windows := make(map[int64][]float64)
	for i, s := range samples {
		all[i] = ms(s.lat)
		if limit > 0 && s.lat > limit.Nanoseconds() {
			out.late++
		}
		w := (s.due - start.UnixNano()) / int64(time.Second)
		windows[w] = append(windows[w], all[i])
	}
	sort.Float64s(all)
	out.p50 = quantile(all, 0.5)
	var p95s, p99s []float64
	for _, w := range windows {
		sort.Float64s(w)
		p95s = append(p95s, quantile(w, 0.95))
		p99s = append(p99s, quantile(w, 0.99))
	}
	out.p95 = median(p95s)
	if len(samples) >= 1000 {
		out.p99 = median(p99s)
	}
	return out
}

// tmpDir makes a fresh scratch directory under the run's scratch root.
func (e *env) tmpDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.tmp, prefix)
}
