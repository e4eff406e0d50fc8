package runtime

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/handoff"
	"repro/internal/qos"
	"repro/internal/registry"
)

// This file implements the event-driven ingestion pipeline behind
// `when provided <source> from <Device>` interactions. Instead of one
// forwarding goroutine and queue per device (which makes a 50k-device swarm
// cost 50k goroutines and a scheduler wakeup per event), each interaction
// owns a small set of ingestion shards: devices push readings straight into
// their shard (each shard is the device.Sink its devices are attached to),
// and the interaction's one flush worker coalesces whatever has accumulated
// into pooled columnar device.ReadingBatch payloads, each dispatched to the
// interaction it was wired to — no bus topic sits on that arrow. Admission
// is bounded by a qos.Budget per interaction, held until the handler is
// done, so a storm that outruns the context handler drops at the intake
// (counted in Stats) instead of growing queues without bound.
// Devices are bound to their shard by a registry.Attachments table per
// interaction (the one attachment table the federation exporters use too),
// fed by a registry watcher so a device attaches on bind and detaches on
// unbind.

// IngestConfig shapes the ingestion pipeline of one `when provided`
// device-source interaction.
type IngestConfig struct {
	// Shards is the number of intake lock stripes per interaction; local
	// devices hash to a shard by ID and forwarded chunks to the shard of
	// their sender stream, so concurrent producers rarely share a lock. One
	// flush worker drains all of them. Default 8.
	//
	// The stripes pay off only under concurrent producers. In
	// BenchmarkIngestConcurrentProducers on 2 Xeon cores (Go 1.24, median
	// of 10 alternating runs), against a single intake lock with one flush
	// worker, 8 stripes cost 298 vs 470 ns per reading with 8 producers
	// pushing one reading at a time over 64 devices each, and 310 vs 359
	// with 4. With 2 such producers they cost more, 306 vs 193: each push
	// onto an empty stripe queues that stripe for the flush worker, while
	// one stripe stays queued. One producer costs about the same either
	// way (136 vs 129). Hub connections of one stream each cost 48 vs 86
	// with 8, 49 vs 84 with 4 and 50 vs 81 with 2; a lone connection costs
	// the same either way (88 vs 80, inside both runs' spread): its chunks
	// land whole on one stripe. The storm.fed benchmark forwards one
	// stream per interaction, so only this microbenchmark checks how
	// several streams spread over the stripes.
	Shards int
	// MaxBatch bounds the rows of one dispatched ReadingBatch. Default 256.
	MaxBatch int
	// Budget bounds readings in flight (admitted at a shard, their batch's
	// handler not yet returned) per interaction; beyond it new readings are
	// dropped and counted in Stats.IngestBudgetDrops. Default 65536.
	// Negative means unbounded.
	Budget int
	// MaxAge, when positive, is the deadline policy: readings older than
	// MaxAge at flush time (by the runtime clock) are dropped and counted
	// in Stats.IngestDeadlineDrops. Zero disables the deadline.
	MaxAge time.Duration
}

func (c IngestConfig) withDefaults() IngestConfig {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Budget == 0 {
		c.Budget = 65536
	}
	return c
}

// ingestSeed makes the device→shard hash vary between processes but stay
// consistent within one runtime lifetime.
var ingestSeed = maphash.MakeSeed()

// ingestor is the ingestion pipeline of one device-source interaction: the
// intake shards, the ready queue of shards holding readings, the one flush
// worker draining it (run), and the interaction's admission budget. Readings
// leave as ReadingBatch payloads lent to dispatch on the flush worker, the
// only goroutine running the interaction's call site, and are recycled when
// dispatch returns.
//
// A shard is on the ready queue exactly while it holds readings the worker
// has not yet swapped out. Producers push a shard on its empty → non-empty
// transition while still holding the shard lock, and fill it only if the
// push succeeded: after stop the worker may have exited, and readings in a
// shard it never takes would keep their budget units forever. Only the
// worker empties a shard, after taking it off the queue — so a shard is
// queued at most once (the queue never outgrows its retain bound of
// len(shards)), and a push to a non-empty shard needs no queue operation.
type ingestor struct {
	rt       *Runtime
	dispatch func(*device.ReadingBatch)
	budget   *qos.Budget
	maxBatch int
	maxAge   time.Duration
	shards   []*ingestShard
	mask     uint64
	ready    *handoff.Queue[*ingestShard]

	// draining closes admission without stopping the flush worker: set by
	// the operations plane's drain, it turns every subsequent push into an
	// IngestDrainDrops count while buffered readings keep flowing out.
	draining atomic.Bool
}

func (rt *Runtime) newIngestor(dispatch func(*device.ReadingBatch)) *ingestor {
	cfg := rt.ingestCfg.withDefaults()
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	ing := &ingestor{
		rt:       rt,
		dispatch: dispatch,
		budget:   qos.NewBudget(cfg.Budget),
		maxBatch: cfg.MaxBatch,
		maxAge:   cfg.MaxAge,
		shards:   make([]*ingestShard, n),
		mask:     uint64(n - 1),
		ready:    handoff.New[*ingestShard](n, 0),
	}
	for i := range ing.shards {
		ing.shards[i] = &ingestShard{ing: ing}
	}
	rt.wg.Add(1)
	go ing.run()
	rt.mu.Lock()
	rt.ingestors = append(rt.ingestors, ing)
	rt.mu.Unlock()
	return ing
}

// shardFor returns the stable intake shard of one device, so per-device
// reading order is preserved through the pipeline.
func (ing *ingestor) shardFor(id string) *ingestShard {
	return ing.shards[maphash.String(ingestSeed, id)&ing.mask]
}

// stop closes the ready queue for shutdown. Readings already admitted are
// still dispatched before the worker exits (stopApp waits for it on rt.wg);
// a push that would turn a shard non-empty from now on is refused and its
// budget units returned.
func (ing *ingestor) stop() { ing.ready.Close() }

// ingestShard is one intake lock stripe. Push appends under the shard mutex;
// the ingestor's flush worker swaps the accumulated work out wholesale and
// dispatches it, so per-event synchronization is amortized over the burst on
// both sides.
//
// Readings accumulate into pooled columnar device.ReadingBatch payloads
// sealed at MaxBatch rows, each dispatched whole — no per-reading boxing
// anywhere.
type ingestShard struct {
	ing  *ingestor
	mu   sync.Mutex
	cur  *device.ReadingBatch   // open batch being filled
	full []*device.ReadingBatch // sealed batches awaiting flush
}

// pendingLocked reports whether any intake is waiting; caller holds s.mu.
func (s *ingestShard) pendingLocked() bool {
	return len(s.full) > 0 || (s.cur != nil && s.cur.Len() > 0)
}

// appendLocked adds one admitted reading to the intake; caller holds s.mu.
func (s *ingestShard) appendLocked(r device.Reading) {
	if s.cur == nil {
		s.cur = device.NewReadingBatch()
	}
	s.cur.Append(r)
	if s.cur.Len() >= s.ing.maxBatch {
		s.full = append(s.full, s.cur)
		s.cur = nil
	}
}

// Push implements device.Sink.
func (s *ingestShard) Push(r device.Reading) {
	ing := s.ing
	if ing.draining.Load() {
		ing.rt.stats[statIngestDrainDrops].Add(1)
		return
	}
	if ing.budget.AcquireUpTo(1) == 0 {
		ing.rt.stats[statIngestBudgetDrops].Add(1)
		return
	}
	s.mu.Lock()
	if !s.pendingLocked() && !ing.ready.Push(s) {
		s.mu.Unlock()
		ing.budget.Release(1)
		return
	}
	s.appendLocked(r)
	s.mu.Unlock()
}

// appendAdmitted installs readings whose budget units are already acquired
// into the shard intake, releasing the units if the ingestor has stopped:
// the lower half of the federation remote-ingest path, which applies its own
// admission accounting.
func (s *ingestShard) appendAdmitted(batch []device.Reading) {
	if len(batch) == 0 {
		return
	}
	s.mu.Lock()
	if !s.pendingLocked() && !s.ing.ready.Push(s) {
		s.mu.Unlock()
		s.ing.budget.Release(len(batch))
		return
	}
	for _, r := range batch {
		s.appendLocked(r)
	}
	s.mu.Unlock()
}

// ingestRemote lands one peer-forwarded chunk: admission happens once for
// the whole chunk against the interaction's budget (refusals are the
// caller's to account), and the admitted prefix is appended whole to the
// stream's intake stripe, so a chunk stays one batch. Per-device order
// holds because a registry ID is either local (its pushes go to its own
// stripe) or a mirror, whose readings arrive only on its owner's one stream
// per (kind, source), chunk after chunk in sequence order.
func (ing *ingestor) ingestRemote(stream uint64, readings []device.Reading) int {
	if ing.draining.Load() {
		// Refused whole: the caller accounts the batch as federation drops,
		// exactly as a budget refusal would be.
		return 0
	}
	admitted := ing.budget.AcquireUpTo(len(readings))
	if admitted == 0 {
		return 0
	}
	// Stream IDs end in a per-process counter: the multiply spreads the
	// streams of several peers over the stripes.
	s := ing.shards[(stream*0x9E3779B97F4A7C15>>32)&ing.mask]
	s.appendAdmitted(readings[:admitted])
	return admitted
}

// ingestKey indexes the ingestion pipelines consuming one (kind, source)
// device interaction.
func ingestKey(kind, source string) string { return kind + "\x00" + source }

// consumesIngest reports whether any live interaction of this runtime
// consumes the (kind, source) device interaction. The Host uses it to route
// RemoteIngest only to consuming apps: calling RemoteIngest blindly on every
// app would charge non-consumers a FederationEventDrops for each forwarded
// batch.
func (rt *Runtime) consumesIngest(kind, source string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.ingestByKey[ingestKey(kind, source)]) > 0
}

// RemoteIngest lands a batch of device readings forwarded by a federation
// peer — all of one device kind and source, sent on the peer's stream —
// into every ingestion pipeline consuming that interaction, exactly as if
// the devices had pushed locally. A stream's batches must arrive in its
// order, and a device's readings on one stream only. It returns how many
// readings were admitted by every pipeline (the conservative wire answer
// the sender records as forwarded-and-admitted).
//
// Accounting is per pipeline, so it stays exact for any number of
// consumers: each pipeline's admissions add to Stats.FederationEventsIn and
// each pipeline's refusals add to Stats.FederationEventDrops (a batch no
// interaction consumes is refused whole). For every consuming interaction,
// delivered + deadline drops + its share of FederationEventDrops equals the
// readings accepted at the source — summed over pipelines:
// FederationEventsIn + FederationEventDrops == accepted × pipelines.
func (rt *Runtime) RemoteIngest(kind, source string, stream uint64, readings []device.Reading) int {
	if len(readings) == 0 {
		return 0
	}
	rt.mu.Lock()
	ings := rt.ingestByKey[ingestKey(kind, source)]
	rt.mu.Unlock()
	if len(ings) == 0 {
		rt.stats[statFederationEventDrops].Add(uint64(len(readings)))
		return 0
	}
	minAdmitted := len(readings)
	total := 0
	for _, ing := range ings {
		n := ing.ingestRemote(stream, readings)
		total += n
		if n < minAdmitted {
			minAdmitted = n
		}
	}
	rt.stats[statFederationEventBatchesIn].Add(1)
	rt.stats[statFederationEventsIn].Add(uint64(total))
	if dropped := len(readings)*len(ings) - total; dropped > 0 {
		rt.stats[statFederationEventDrops].Add(uint64(dropped))
	}
	return minAdmitted
}

// run is the interaction's flush worker. It takes the whole ready queue and
// drains the listed shards in FIFO order; with a fixed device → shard hash
// that keeps per-device order into the handler. It exits once the queue is
// closed and drained, which by the ready-queue invariant means every shard
// is empty too.
func (ing *ingestor) run() {
	defer ing.rt.wg.Done()
	var taken []*ingestShard
	var sealed []*device.ReadingBatch
	for {
		var ok bool
		if taken, _, ok = ing.ready.Take(taken); !ok {
			return
		}
		for _, s := range taken {
			s.mu.Lock()
			sealed, s.full = s.full, sealed[:0]
			cur := s.cur
			s.cur = nil
			s.mu.Unlock()
			for i, b := range sealed {
				ing.flush(b)
				sealed[i] = nil // recycled batches must not be pinned by the swap slice
			}
			if cur != nil {
				ing.flush(cur)
			}
		}
	}
}

// flush applies the deadline policy to one sealed batch, dispatches it,
// then recycles it and returns its admitted units to the budget.
func (ing *ingestor) flush(b *device.ReadingBatch) {
	admitted := b.Len()
	if ing.maxAge > 0 {
		cutoff := ing.rt.clock.Now().Add(-ing.maxAge)
		if stale := b.CompactBefore(cutoff); stale > 0 {
			ing.rt.stats[statIngestDeadlineDrops].Add(uint64(stale))
		}
	}
	if n := b.Len(); n > 0 {
		ing.rt.stats[statIngestBatches].Add(1)
		ing.rt.stats[statIngestEvents].Add(uint64(n))
		ing.dispatch(b)
	}
	b.Release()
	ing.budget.Release(admitted)
}

// trackDeviceSource attaches the named source of every present and future
// device of the given kind to the interaction's ingestion pipeline: a
// registry attachment table (registry.Attachments) holds one push-sink
// subscription per device while it is registered and releases it as soon as
// the device unregisters, not at runtime shutdown. The watcher hands a bind
// or churn storm over as one queued batch of deltas; only after lost
// notifications do the tables reconcile against a registry scan. A grouped interaction's aggregate (pa, else nil) follows the same
// watcher through its group table, fed each batch first, so a device's
// group is recorded before its subscription opens. That table is never
// stopped: a stopping app keeps its engine state for the final snapshot.
func (rt *Runtime) trackDeviceSource(kind, source string, ing *ingestor, pa *provAgg) error {
	w, err := rt.reg.Watch(registry.Query{Kind: kind})
	if err != nil {
		return err
	}
	t := rt.newSourceTracker(kind, source, ing)
	rt.mu.Lock()
	rt.watchers = append(rt.watchers, w)
	rt.trackers = append(rt.trackers, t)
	rt.mu.Unlock()

	var groups *registry.Attachments
	if pa != nil {
		groups = pa.seed()
	}
	t.Reconcile()
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		var batch []registry.Change
		for {
			var lost, ok bool
			if batch, lost, ok = w.Next(batch); !ok {
				break
			}
			if pa != nil {
				pa.follow(groups, batch, lost)
			}
			t.Apply(batch)
			if lost {
				rt.reconcileTracker(t)
			}
		}
		t.Stop()
	}()
	return nil
}

// newSourceTracker returns the attachment table of one interaction's device
// source: each device of kind is subscribed into its ingestion shard.
// Federation mirrors get a reservation with nothing behind it: the owning
// node forwards their events in coalesced batches that land in the shards
// through RemoteIngest, and the reservation keeps mirror bookkeeping
// symmetric with local devices (removals and reconciles release it) without
// a per-device cross-node subscription.
func (rt *Runtime) newSourceTracker(kind, source string, ing *ingestor) *registry.Attachments {
	return registry.NewAttachments(rt.reg, registry.Query{Kind: kind}, func(e registry.Entity) (func(), bool) {
		if e.Origin != "" {
			return func() {}, true
		}
		drv, err := rt.driverFor(e)
		if err != nil {
			rt.reportError("bind:"+string(e.ID), err)
			return nil, false
		}
		cancel, err := drv.SubscribePush(source, ing.shardFor(string(e.ID)))
		if err != nil {
			rt.reportError("subscribe:"+string(e.ID), fmt.Errorf("source %s: %w", source, err))
			return nil, false
		}
		return cancel, true
	}, nil)
}

// reconcileTracker repairs a source tracker after its watcher lost
// notifications, counting the repair.
func (rt *Runtime) reconcileTracker(t *registry.Attachments) {
	rt.stats[statTrackerReconciles].Add(1)
	t.Reconcile()
}
