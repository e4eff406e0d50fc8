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
// owns a small set of ingestion shards: devices push readings into their
// shard — directly via device.PushSubscriber when the driver supports it,
// through a per-device channel otherwise — and the interaction's one flush
// worker coalesces whatever has accumulated into pooled columnar
// device.ReadingBatch payloads, each published as one bus event. Admission is
// bounded by a qos.Budget per interaction, so a storm that outruns the
// context handler drops at the intake (counted in Stats) instead of growing
// queues without bound.

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
	// of 10 alternating runs), 8 stripes beat a single intake lock with
	// one flush worker: 78 vs 126 ns per reading with 8 channel-fallback
	// forwarders, 79 vs 98 with 4, and 47 vs 77 with 4 hub connections of
	// one stream each. A lone hub connection costs the same either way (68
	// vs 69): its chunks land whole on one stripe. The storm.fed benchmark
	// forwards one stream per interaction, so only this microbenchmark
	// checks how several streams spread over the stripes.
	Shards int
	// MaxBatch bounds the rows of one published ReadingBatch. Default 256.
	MaxBatch int
	// Budget bounds readings in flight (admitted at a shard but not yet
	// handed to the delivery substrate) per interaction; beyond it new
	// readings are dropped and counted in Stats.IngestBudgetDrops.
	// Default 65536. Negative means unbounded.
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
// leave as ReadingBatch events published on topic.
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
	topic    string
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

func (rt *Runtime) newIngestor(topic string) *ingestor {
	cfg := rt.ingestCfg.withDefaults()
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	ing := &ingestor{
		rt:       rt,
		topic:    topic,
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
// still flushed before the worker exits (the bus closes only after rt.wg
// drains); a push that would turn a shard non-empty from now on is refused
// and its budget units returned.
func (ing *ingestor) stop() { ing.ready.Close() }

// ingestShard is one intake lock stripe. Push appends under the shard mutex;
// the ingestor's flush worker swaps the accumulated work out wholesale and
// publishes it, so per-event synchronization is amortized over the burst on
// both sides (mirroring the bus's ring-buffer subscriptions).
//
// Readings accumulate into pooled columnar device.ReadingBatch payloads
// sealed at MaxBatch rows, each published as a single refcounted bus event —
// no per-reading boxing anywhere.
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

// pushBatch admits a whole burst under one budget check and one lock
// acquisition — the channel-fallback forwarding path drains its device queue
// and hands the burst over in one call. Readings beyond the budget are
// dropped from the tail and counted.
func (s *ingestShard) pushBatch(batch []device.Reading) {
	ing := s.ing
	if ing.draining.Load() {
		ing.rt.stats[statIngestDrainDrops].Add(uint64(len(batch)))
		return
	}
	admitted := ing.budget.AcquireUpTo(len(batch))
	if dropped := len(batch) - admitted; dropped > 0 {
		ing.rt.stats[statIngestBudgetDrops].Add(uint64(dropped))
	}
	s.appendAdmitted(batch[:admitted])
}

// appendAdmitted installs readings whose budget units are already acquired
// into the shard intake, releasing the units if the ingestor has stopped. It
// is the budget-free lower half of pushBatch, shared with the federation
// remote-ingest path (which applies its own admission accounting).
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
// stream's intake stripe, so a chunk stays one bus batch. Per-device order
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
// that keeps per-device order on the bus. It exits once the queue is closed
// and drained, which by the ready-queue invariant means every shard is empty
// too.
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

// flush applies the deadline policy to one sealed batch and publishes
// it as a single refcounted bus event, then returns the admitted units to
// the budget and drops the producer's batch reference — the bus holds one
// reference per subscriber until each delivery completes.
func (ing *ingestor) flush(b *device.ReadingBatch) {
	admitted := b.Len()
	if ing.maxAge > 0 {
		cutoff := ing.rt.clock.Now().Add(-ing.maxAge)
		if stale := b.CompactBefore(cutoff); stale > 0 {
			ing.rt.stats[statIngestDeadlineDrops].Add(uint64(stale))
		}
	}
	if n := b.Len(); n > 0 {
		at := b.TimeAt(n - 1)
		if err := ing.rt.bus.Publish(ing.topic, b, at); err == nil {
			ing.rt.stats[statIngestBatches].Add(1)
			ing.rt.stats[statIngestEvents].Add(uint64(n))
		}
	}
	b.Release()
	ing.budget.Release(admitted)
}

// trackDeviceSource attaches the named source of every present and future
// device of the given kind to the interaction's ingestion pipeline,
// reconciling with the registry when watcher notifications are lost.
func (rt *Runtime) trackDeviceSource(kind, source string, ing *ingestor) error {
	w, err := rt.reg.Watch(registry.Query{Kind: kind})
	if err != nil {
		return err
	}
	t := &sourceTracker{
		rt:     rt,
		kind:   kind,
		source: source,
		ing:    ing,
		subs:   make(map[registry.ID]*trackedDevice),
	}
	rt.mu.Lock()
	rt.watchers = append(rt.watchers, w)
	rt.trackers = append(rt.trackers, t)
	rt.mu.Unlock()

	for _, e := range rt.reg.Discover(registry.Query{Kind: kind}) {
		t.add(e)
	}
	rt.wg.Add(1)
	go t.loop(w)
	return nil
}

// sourceTracker keeps one interaction's device attachments in step with the
// registry: every device of the kind gets exactly one attachment (a push
// sink or a channel subscription) while registered, released as soon as it
// unregisters or its lease expires — not at runtime shutdown. The watcher
// hands a bind or churn storm over as one queued batch of deltas; only when
// the tracker fell past the queue's bound and lost notifications does it
// reconcile its attachment table against a registry scan, so even then it
// neither leaks tracker state nor keeps delivering for departed devices.
type sourceTracker struct {
	rt     *Runtime
	kind   string
	source string
	ing    *ingestor

	mu   sync.Mutex
	subs map[registry.ID]*trackedDevice
}

func (t *sourceTracker) loop(w *registry.Watcher) {
	defer t.rt.wg.Done()
	var batch []registry.Change
	for {
		var lost, ok bool
		if batch, lost, ok = w.Next(batch); !ok {
			break
		}
		for _, c := range batch {
			switch c.Type {
			case registry.Added, registry.Updated:
				t.add(c.Entity)
			case registry.Removed, registry.Expired:
				t.remove(c.Entity.ID)
			}
		}
		if lost {
			t.reconcile()
		}
	}
	t.stopAll()
}

// trackedCount reports the number of devices currently attached (tests and
// diagnostics). Reservations whose subscription is still being set up do
// not count: a device counted here already delivers what it emits.
func (t *sourceTracker) trackedCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, td := range t.subs {
		if td.attached() {
			n++
		}
	}
	return n
}

func (t *sourceTracker) add(e registry.Entity) {
	// Check-and-reserve atomically: the placeholder claims the entity's
	// slot under one lock acquisition, so a concurrent add for the same
	// entity cannot also pass the dup check and leak a second attachment.
	// The (possibly slow) driver resolution and subscription happen
	// outside the lock; attach reconciles with a concurrent remove.
	td := &trackedDevice{}
	t.mu.Lock()
	if _, dup := t.subs[e.ID]; dup {
		t.mu.Unlock()
		return
	}
	t.subs[e.ID] = td
	t.mu.Unlock()

	// Federation mirrors are delivered by the federation tier: the owning
	// node forwards their events in coalesced batches that land in this
	// interaction's shards through RemoteIngest. Keeping the reservation
	// (with no subscription behind it) makes mirror bookkeeping symmetric
	// with local devices — removals and reconciles release it — without a
	// per-device cross-node subscription stream.
	if e.Origin != "" {
		td.attach(func() {})
		return
	}

	release := func() {
		t.mu.Lock()
		if t.subs[e.ID] == td {
			delete(t.subs, e.ID)
		}
		t.mu.Unlock()
	}
	drv, err := t.rt.driverFor(e)
	if err != nil {
		release()
		t.rt.reportError("bind:"+string(e.ID), err)
		return
	}
	shard := t.ing.shardFor(string(e.ID))
	if ps, ok := drv.(device.PushSubscriber); ok {
		cancel, err := ps.SubscribePush(t.source, shard)
		if err != nil {
			release()
			t.rt.reportError("subscribe:"+string(e.ID), fmt.Errorf("source %s: %w", t.source, err))
			return
		}
		td.attach(cancel)
		return
	}
	sub, err := drv.Subscribe(t.source)
	if err != nil {
		release()
		t.rt.reportError("subscribe:"+string(e.ID), fmt.Errorf("source %s: %w", t.source, err))
		return
	}
	if !td.attach(sub.Cancel) {
		// Removed (or tracker stopped) while we were subscribing; the
		// reservation was already discarded and attach cancelled sub.
		return
	}
	t.rt.wg.Add(1)
	go t.forward(sub, shard)
}

// forward drains one channel-subscribed device into its ingestion shard —
// the fallback for drivers without PushSubscriber.
// Each wakeup hands whatever the device already queued to the shard in one
// call, so even the per-device-channel path batches its bus handoff.
func (t *sourceTracker) forward(sub device.Subscription, shard *ingestShard) {
	defer t.rt.wg.Done()
	batch := make([]device.Reading, 0, sourceForwardBatch)
	for r := range sub.C() {
		batch = append(batch[:0], r)
	drain:
		for len(batch) < cap(batch) {
			select {
			case more, ok := <-sub.C():
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		shard.pushBatch(batch)
	}
}

// sourceForwardBatch bounds the per-wakeup fan-in batch of one device
// subscription's forwarding loop.
const sourceForwardBatch = 64

func (t *sourceTracker) remove(id registry.ID) {
	t.mu.Lock()
	td, ok := t.subs[id]
	delete(t.subs, id)
	t.mu.Unlock()
	if ok {
		td.stop()
	}
}

func (t *sourceTracker) stopAll() {
	t.mu.Lock()
	subs := t.subs
	t.subs = make(map[registry.ID]*trackedDevice)
	t.mu.Unlock()
	for _, td := range subs {
		td.stop()
	}
}

// reconcile repairs the attachment table against a registry scan after
// watcher notifications were lost: devices present in the registry but not
// attached are added, attachments whose device is gone are released. The
// scan observes every change committed before it takes each shard lock, and
// any change racing the scan is still queued on the watcher, so the table
// converges once the queue drains.
func (t *sourceTracker) reconcile() {
	t.rt.stats[statTrackerReconciles].Add(1)
	live := make(map[registry.ID]registry.Entity)
	t.rt.reg.Scan(registry.Query{Kind: t.kind}, func(e registry.Entity) bool {
		// Copy the scalar identity fields only; Scan forbids retaining
		// the entity, and add resolves local drivers by ID. Origin must
		// ride along or a reconciled mirror would be re-added as a
		// subscribable device.
		live[e.ID] = registry.Entity{ID: e.ID, Kind: e.Kind, Endpoint: e.Endpoint, Origin: e.Origin}
		return true
	})
	t.mu.Lock()
	var gone []*trackedDevice
	var missing []registry.Entity
	for id, td := range t.subs {
		if _, ok := live[id]; !ok {
			delete(t.subs, id)
			gone = append(gone, td)
		}
	}
	for id, e := range live {
		if _, ok := t.subs[id]; !ok {
			missing = append(missing, e)
		}
	}
	t.mu.Unlock()
	for _, td := range gone {
		td.stop()
	}
	for _, e := range missing {
		t.add(e)
	}
}

// trackedDevice tracks one device attachment from reservation to release.
// It is created as an empty reservation (see sourceTracker.add) and attached
// once the subscription succeeds; stop before attach marks it stopped so
// attach cancels the late-arriving subscription instead of leaking it.
type trackedDevice struct {
	mu      sync.Mutex
	cancel  func()
	stopped bool
}

// attach installs the cancel function and reports whether the attachment is
// live. If stop already ran, cancel is invoked and attach returns false.
func (d *trackedDevice) attach(cancel func()) bool {
	d.mu.Lock()
	d.cancel = cancel
	stopped := d.stopped
	d.mu.Unlock()
	if stopped {
		cancel()
		return false
	}
	return true
}

// attached reports whether the attachment is live (attach ran, stop did not).
func (d *trackedDevice) attached() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel != nil && !d.stopped
}

func (d *trackedDevice) stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	cancel := d.cancel
	d.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}
