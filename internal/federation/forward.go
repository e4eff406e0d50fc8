package federation

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/handoff"
	"repro/internal/registry"
	"repro/internal/transport"
)

// This file implements the outbound half of a federation node: tracking the
// local devices of exported kinds (hosting their drivers on the transport
// server, attaching forwarding sinks to their event sources) and the
// per-peer coalescing buffers that turn individual readings into
// event_batch RPCs. The shape mirrors the runtime's ingestion pipeline: a
// device push costs one buffer append; a single flusher per (peer, kind,
// source) coalesces whatever accumulated into bounded batches; admission is
// bounded by the peer's in-flight qos.Budget so a slow or dead peer drops
// at the sender intake instead of growing queues without bound.

// exporter keeps one Export's device attachments in step with the registry,
// exactly like the runtime's sourceTracker: every local entity of the kind
// is hosted (and, when the export names a source, sink-attached) while
// registered, released on unregister or lease expiry, applying the
// watcher's queued deltas batch by batch and falling back to a reconciling
// scan only when the watcher reports lost notifications.
type exporter struct {
	n      *Node
	kind   string
	source string
	sink   exportSink // nil when the export has no source
	// groupAttr is the Aggregate's grouping attribute; empty for raw
	// forwarding. The exporter resolves it per tracked device so the
	// aggregating sink never touches the registry on the emission path.
	groupAttr string
	w         *registry.Watcher

	mu   sync.Mutex
	subs map[registry.ID]*exportedDevice

	// applied counts the watcher changes the loop has applied, the
	// reconcile after a loss included; caughtUp waits on it.
	applied atomic.Uint64
}

// exporterCatchUp bounds how long one registry sync waits, over all the
// kinds it answers, for exporters to apply the changes it is about to
// advertise.
const exporterCatchUp = time.Second

func (n *Node) startExporter(ex Export) error {
	w, err := n.reg.Watch(registry.Query{Kind: ex.Kind})
	if err != nil {
		return err
	}
	e := &exporter{
		n:      n,
		kind:   ex.Kind,
		source: ex.Source,
		w:      w,
		subs:   make(map[registry.ID]*exportedDevice),
	}
	if ex.Source != "" {
		e.sink = n.sinks[exportKey(ex.Kind, ex.Source)]
	}
	if ex.Aggregate != nil {
		e.groupAttr = ex.Aggregate.GroupAttr
	}
	n.mu.Lock()
	n.watchers = append(n.watchers, w)
	n.exporters = append(n.exporters, e)
	n.mu.Unlock()

	// Collect the current population first, attach after: add hosts
	// drivers and opens subscriptions, which must not run inside the scan
	// callback (Scan holds the shard lock and forbids re-entering the
	// registry).
	var present []registry.Entity
	n.reg.Scan(registry.Query{Kind: ex.Kind}, func(ent registry.Entity) bool {
		present = append(present, e.scanCopy(ent))
		return true
	})
	for _, ent := range present {
		e.add(ent)
	}
	n.wg.Add(1)
	go e.loop()
	return nil
}

func (e *exporter) loop() {
	defer e.n.wg.Done()
	var batch []registry.Change
	for {
		var lost, ok bool
		if batch, lost, ok = e.w.Next(batch); !ok {
			break
		}
		if d := e.n.exporterLag.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		for _, c := range batch {
			switch c.Type {
			case registry.Added, registry.Updated:
				e.add(c.Entity)
			case registry.Removed, registry.Expired:
				e.remove(c.Entity.ID)
			}
		}
		if lost {
			e.reconcile()
		}
		e.applied.Add(uint64(len(batch)))
	}
	e.stopAll()
	e.applied.Store(math.MaxUint64) // a stopped exporter keeps no sync waiting
}

// exporterMark is an exporter and the count of watcher changes its loop
// must have applied: every change queued when the mark was taken.
type exporterMark struct {
	e      *exporter
	target uint64
}

// markExporters appends a mark for every exporter of kind. Taken right
// after a registry scan, a mark covers every local entity the scan saw.
func (n *Node) markExporters(kind string, marks []exporterMark) []exporterMark {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range n.exporters {
		if e.kind == kind {
			marks = append(marks, exporterMark{e: e, target: e.w.Queued()})
		}
	}
	return marks
}

// waitApplied waits until every marked exporter has applied its changes, so
// each scanned entity is hosted (or released again) and a sync never
// advertises a device a peer cannot reach yet, or until deadline passes.
// The wait is rare and short, so it polls.
func waitApplied(marks []exporterMark, deadline time.Time) {
	for _, m := range marks {
		for m.e.applied.Load() < m.target && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// scanCopy captures the identity fields add needs from one scanned entity
// (Scan forbids retaining the entity), including the grouping attribute of
// an aggregating export.
func (e *exporter) scanCopy(ent registry.Entity) registry.Entity {
	c := registry.Entity{ID: ent.ID, Kind: ent.Kind, Origin: ent.Origin}
	if e.groupAttr != "" {
		c.Attrs = registry.Attributes{e.groupAttr: ent.Attrs[e.groupAttr]}
	}
	return c
}

// add hosts (and sink-attaches) one local entity of the exported kind.
// Mirrors are ignored: their owner exports them.
func (e *exporter) add(ent registry.Entity) {
	if ent.Origin != "" {
		return
	}
	ed := &exportedDevice{}
	e.mu.Lock()
	if _, dup := e.subs[ent.ID]; dup {
		e.mu.Unlock()
		// Already attached: a registry Update still refreshes the sink's
		// group mapping so an aggregating export re-homes the device when
		// its grouping attribute changes.
		if e.sink != nil {
			e.sink.deviceAdded(string(ent.ID), ent.Attrs[e.groupAttr])
		}
		return
	}
	e.subs[ent.ID] = ed
	e.mu.Unlock()

	release := func() {
		e.mu.Lock()
		if e.subs[ent.ID] == ed {
			delete(e.subs, ent.ID)
		}
		e.mu.Unlock()
	}
	drv, ok := e.n.rt.LocalDriver(string(ent.ID))
	if !ok {
		// Registered but not locally driven (e.g. an entity added with an
		// explicit remote endpoint): nothing to host or forward.
		release()
		return
	}
	id := string(ent.ID)
	e.n.hostDevice(id, drv)
	unhost := func() { e.n.unhostDevice(id) }
	if e.sink == nil {
		ed.attach(unhost)
		return
	}
	// Register the device with the sink before the subscription opens so
	// an aggregating sink can route its very first reading; detach
	// retracts the registration (and, for aggregates, the contribution).
	e.sink.deviceAdded(id, ent.Attrs[e.groupAttr])
	detachSink := func() { e.sink.deviceRemoved(id) }
	cancel, err := drv.SubscribePush(e.source, e.sink)
	if err != nil {
		detachSink()
		unhost()
		release()
		e.n.rt.ReportError("federation:"+e.n.name, fmt.Errorf("export %s source %s: %w", ent.ID, e.source, err))
		return
	}
	ed.attach(func() { cancel(); detachSink(); unhost() })
}

func (e *exporter) remove(id registry.ID) {
	e.mu.Lock()
	ed, ok := e.subs[id]
	delete(e.subs, id)
	e.mu.Unlock()
	if ok {
		ed.stop()
	}
}

func (e *exporter) stopAll() {
	e.mu.Lock()
	subs := e.subs
	e.subs = make(map[registry.ID]*exportedDevice)
	e.mu.Unlock()
	for _, ed := range subs {
		ed.stop()
	}
}

// reconcile repairs the attachment table against a registry scan after
// watcher notifications were lost, mirroring sourceTracker.reconcile.
func (e *exporter) reconcile() {
	e.n.stats[statExporterReconciles].Add(1)
	live := make(map[registry.ID]registry.Entity)
	e.n.reg.Scan(registry.Query{Kind: e.kind}, func(ent registry.Entity) bool {
		if ent.Origin == "" {
			live[ent.ID] = e.scanCopy(ent)
		}
		return true
	})
	e.mu.Lock()
	var gone []*exportedDevice
	var missing, kept []registry.Entity
	for id, ed := range e.subs {
		if _, ok := live[id]; !ok {
			delete(e.subs, id)
			gone = append(gone, ed)
		}
	}
	for id, ent := range live {
		if _, ok := e.subs[id]; !ok {
			missing = append(missing, ent)
		} else {
			kept = append(kept, ent)
		}
	}
	e.mu.Unlock()
	for _, ed := range gone {
		ed.stop()
	}
	for _, ent := range missing {
		e.add(ent)
	}
	// Refresh the sink's group mapping of the devices that stayed: a
	// dropped Update notification may have re-homed one.
	if e.sink != nil {
		for _, ent := range kept {
			e.sink.deviceAdded(string(ent.ID), ent.Attrs[e.groupAttr])
		}
	}
}

// exportedDevice tracks one exported device from reservation to release,
// with the same stop-before-attach reconciliation as the runtime's
// trackedDevice.
type exportedDevice struct {
	mu      sync.Mutex
	cancel  func()
	stopped bool
}

func (d *exportedDevice) attach(cancel func()) {
	d.mu.Lock()
	d.cancel = cancel
	stopped := d.stopped
	d.mu.Unlock()
	if stopped {
		cancel()
	}
}

func (d *exportedDevice) stop() {
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

// fwdSink is the fan-out point of one exported (kind, source): devices push
// readings into it and it lands them in every event-forwarding peer's
// coalescing buffer. The buffer list is copy-on-write so the emission hot
// path costs one atomic load plus one append per peer.
type fwdSink struct {
	n       *Node
	kind    string
	source  string
	buffers atomic.Pointer[[]*fwdBuffer]
}

var _ exportSink = (*fwdSink)(nil)

// deviceAdded implements exportSink; raw forwarding needs no population
// bookkeeping.
func (s *fwdSink) deviceAdded(string, string) {}

// deviceRemoved implements exportSink.
func (s *fwdSink) deviceRemoved(string) {}

func newFwdSink(n *Node, kind, source string) *fwdSink {
	s := &fwdSink{n: n, kind: kind, source: source}
	empty := []*fwdBuffer{}
	s.buffers.Store(&empty)
	return s
}

// addBuffer installs one peer's coalescing buffer; called under the node's
// AddPeer path only.
func (s *fwdSink) addBuffer(b *fwdBuffer) {
	for {
		cur := s.buffers.Load()
		next := make([]*fwdBuffer, len(*cur)+1)
		copy(next, *cur)
		next[len(*cur)] = b
		if s.buffers.CompareAndSwap(cur, &next) {
			return
		}
	}
}

// Push implements device.Sink: the device emission path of event
// forwarding. Admission is per peer; a reading refused by one peer's budget
// still reaches the others.
func (s *fwdSink) Push(r device.Reading) {
	bufs := *s.buffers.Load()
	if len(bufs) == 0 {
		s.n.stats[statForwardUnrouted].Add(1)
		return
	}
	for _, b := range bufs {
		b.push(r)
	}
}

// bufferFor returns (creating on first use) the peer's coalescing buffer
// for one exported (kind, source), with its flusher running.
func (p *peer) bufferFor(kind, source string) *fwdBuffer {
	key := exportKey(kind, source)
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.buffers[key]; ok {
		return b
	}
	b := &fwdBuffer{p: p, kind: kind, source: source, stream: newStreamID(),
		queue: handoff.New[device.Reading](swapRetainWindows*forwardWindow*p.cfg.MaxBatch, 0)}
	p.buffers[key] = b
	if p.stopped {
		// The node is closing: create the buffer already closed with no
		// flusher, so pushes drain as accounted drops instead of leaking
		// a goroutine past Close's wait.
		b.queue.Close()
		return b
	}
	p.n.wg.Add(1)
	go b.run()
	return b
}

// stopBuffers wakes every flusher for shutdown; buffered readings and
// dirty aggregate groups are still sent before the flushers exit.
func (p *peer) stopBuffers() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	for _, b := range p.buffers {
		b.queue.Close()
	}
	for _, b := range p.aggBuffers {
		b.mu.Lock()
		b.stopped = true
		b.notEmpty.Signal()
		b.mu.Unlock()
	}
}

// forwardWindow is how many event_batch chunks one stream keeps on the wire
// before it waits for the oldest answer — and therefore how many admission
// counts the receiver remembers per stream (streamState.ring), so that every
// chunk of a severed window can be answered from cache when it is replayed.
// One constant, because the two must agree. It replaces stop-and-wait
// forwarding (one round trip per chunk). 8 is the knee of a sweep on
// storm.fed (CHANGES.md, PR 20): capacity grows with every doubling up to 8
// and is flat within run-to-run noise at 16 and 32, while a cut replays, and
// a receiver remembers, a whole window — so the smallest value on the
// plateau. 8 chunks of the default MaxBatch keep 2,048 readings in flight, a
// small share of any forward budget.
const forwardWindow = 8

// swapRetainWindows is a forward queue's retain bound, in windows
// (forwardWindow × MaxBatch readings each). 32 windows (65,536 readings at
// the default MaxBatch, 4.7 MB a slice) clear the capacity append settles on
// for a 25k-reading burst; at 16 every burst regrew its slice from nothing.
const swapRetainWindows = 32

// fwdBuffer is one (peer, kind, source) coalescing buffer plus its flusher.
// push queues one reading; the flusher takes the queue wholesale and ships
// it in MaxBatch-sized event_batch RPCs, a window of them in flight at a
// time, so per-event synchronization, per-RPC overhead and the round trip
// itself are all amortized over the burst.
type fwdBuffer struct {
	p      *peer
	kind   string
	source string

	// stream identifies this buffer's ordered chunk sequence to the
	// receiver's replay-protection cache; seq (flusher-owned) numbers the
	// chunks. A chunk retried after a mid-RPC connection loss replays
	// under its original (stream, seq), so the receiver can answer from
	// cache instead of ingesting twice.
	stream uint64
	seq    uint64

	queue *handoff.Queue[device.Reading] // closed by stopBuffers
}

// streamSeq disambiguates buffer streams created close together in time.
var streamSeq atomic.Uint64

// newStreamID returns a process-lifetime-unique stream identity: a counter
// in the low bits (unique within the process, so two buffers created in the
// same instant never collide) under a wall-clock stamp in the high bits (so
// a restarted sender process is never mistaken for the dead one's stream).
func newStreamID() uint64 {
	return uint64(time.Now().UnixNano())<<20 | (streamSeq.Add(1) & 0xFFFFF)
}

// push admits one reading against the peer's in-flight budget.
func (b *fwdBuffer) push(r device.Reading) {
	p := b.p
	if p.budget.AcquireUpTo(1) == 0 {
		p.n.stats[statForwardBudgetDrops].Add(1)
		return
	}
	if !b.queue.Push(r) {
		p.budget.Release(1)
		p.n.stats[statForwardSendDrops].Add(1)
	}
}

// run is the flusher: it ships every burst until the queue closes empty.
func (b *fwdBuffer) run() {
	defer b.p.n.wg.Done()
	var batch []device.Reading
	for {
		var ok bool
		if batch, _, ok = b.queue.Take(batch); !ok {
			return
		}
		b.flush(batch)
	}
}

// flush ships one swapped-out burst in MaxBatch chunks, up to forwardWindow
// of them on the wire at once, and returns the admitted units to the peer
// budget. Chunk i of the burst travels as sequence number base+1+i on every
// attempt. Answers are settled oldest first. When a chunk dies on a
// connection-level failure it is spooled together with everything younger:
// the flusher collects what is left of the window, parks on the managed
// client's UpChan, and replays from that chunk on, in order, under the
// original (stream, seq) — the receiver answers the ones it had already
// ingested from its per-stream ring, so edge forwarded == hub admitted stays
// exact. The readings keep their budget units the whole time — the in-flight
// budget IS the retry-queue bound, so a long partition fills it and new
// readings drop (accounted) at the intake while nothing already admitted is
// lost. Application-level RPC errors keep the old semantics: the chunk is
// dropped and counted, accounting stays exact.
func (b *fwdBuffer) flush(batch []device.Reading) {
	p := b.p
	n := p.n
	size := p.cfg.MaxBatch
	chunks := (len(batch) + size - 1) / size
	chunk := func(i int) []device.Reading { return batch[i*size : min((i+1)*size, len(batch))] }
	base := b.seq
	b.seq += uint64(chunks)

	var window [forwardWindow]transport.EventBatchCall
	// Chunks below acked are settled; [acked, sent) are on the wire.
	acked, sent := 0, 0
	// sendErr is why filling stopped. Once a send failed nothing younger is
	// started until the window is collected: chunk i+1 must never reach the
	// receiver on a connection that did not carry chunk i first, or the
	// receiver would take the late chunk i for a replay.
	var sendErr error
	for acked < chunks {
		for sendErr == nil && sent < chunks && sent-acked < forwardWindow {
			window[sent%forwardWindow], sendErr = p.client.StartEventBatch(
				b.kind, b.source, b.stream, base+1+uint64(sent), chunk(sent))
			n.stats[statEventBatchesSent].Add(1)
			if sendErr == nil {
				sent++
			}
		}
		// Settle the oldest chunk: by its answer when it was sent, by the
		// send failure otherwise.
		accepted, err := 0, sendErr
		if acked < sent {
			accepted, err = window[acked%forwardWindow].Wait()
		}
		if err == nil {
			n.stats[statEventsForwarded].Add(uint64(accepted))
			acked++
			continue
		}
		if transport.IsConnFailure(err) && b.awaitHeal() {
			// Link healed: replay from this chunk. The younger chunks'
			// answers are collected and discarded — whichever of them the
			// receiver ingested, the replay is answered the same count.
			for i := acked + 1; i < sent; i++ {
				_, _ = window[i%forwardWindow].Wait()
			}
			sent, sendErr = acked, nil
			continue
		}
		// An application-level error, or closing with no heal coming: the
		// chunk is dropped and counted. Younger chunks still on the wire
		// settle by their own answers.
		n.stats[statForwardSendDrops].Add(uint64(len(chunk(acked))))
		acked++
		if sent < acked {
			sent, sendErr = acked, nil
		}
	}
	p.budget.Release(len(batch))
}

// awaitHeal parks the flusher after a connection-level failure until the
// peer link is up again (true), or reports false when the node is closing
// and no heal is coming.
func (b *fwdBuffer) awaitHeal() bool {
	n := b.p.n
	select {
	case <-n.stopCh:
		return false
	default:
	}
	n.stats[statForwardRetries].Add(1)
	select {
	case <-b.p.client.UpChan():
		return true
	case <-n.stopCh:
		return false
	}
}
