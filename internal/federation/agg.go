package federation

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/mapreduce"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// This file implements partial-aggregate forwarding: when an Export
// declares an Aggregate, the node no longer ships raw readings of that
// (kind, source) to its peers. Instead it folds every local reading into a
// node-local incremental aggregate (the same engine the consuming runtime
// uses) and syncs only the dirty groups' partials in agg_sync RPCs — the
// orchestrating node merges partials per group (runtime.RemoteAggregate),
// so cross-node bytes per round are O(dirty groups) instead of O(changed
// devices), and a full-fleet round costs O(groups) on the wire regardless
// of fleet size. The protocol is idempotent (each sync replaces the
// sender's previous partials group by group), so a failed RPC is repaired
// by re-marking its groups dirty and retrying.

// Aggregate configures node-local partial aggregation for one exported
// (kind, source). Handler supplies the Map/Reduce phases and must implement
// runtime.Combiner (and should implement runtime.Uncombiner when the merge
// is invertible) — normally it is the same implementation installed for the
// consuming context on the orchestrating node, which keeps the edge fold
// and the hub merge one definition.
type Aggregate struct {
	// GroupAttr is the device attribute whose value keys the groups (the
	// consuming design's `grouped by` attribute).
	GroupAttr string
	// Handler folds readings: Map filters/transforms, Reduce lifts, and
	// its Combine merges partials. Required, must implement
	// runtime.Combiner.
	Handler runtime.MapReducer
}

// exportSink is the device-emission endpoint of one exported
// (kind, source): raw forwarding (fwdSink) or partial aggregation
// (aggSink). The exporter keeps it informed of the tracked population so
// an aggregating sink can resolve readings to groups without touching the
// registry per event.
type exportSink interface {
	device.Sink
	// deviceAdded / deviceRemoved bracket one local device's attachment;
	// group is its GroupAttr value (empty for non-aggregating sinks).
	deviceAdded(id, group string)
	deviceRemoved(id string)
}

// aggSink folds one exported (kind, source)'s readings into a node-local
// incremental aggregate and fans dirty-group notifications to the per-peer
// sync buffers.
type aggSink struct {
	n         *Node
	kind      string
	source    string
	groupAttr string

	mu       sync.Mutex
	eng      *mapreduce.Incremental[string, any]
	groupOf  map[string]string
	dirtyBuf []string

	buffers atomic.Pointer[[]*aggBuffer]
}

var _ exportSink = (*aggSink)(nil)

func newAggSink(n *Node, kind, source string, agg *Aggregate) *aggSink {
	h := agg.Handler
	combine := h.(runtime.Combiner).Combine // validated in New
	var uncombine mapreduce.UncombineFunc[string, any]
	if u, ok := h.(runtime.Uncombiner); ok {
		uncombine = u.Uncombine
	}
	s := &aggSink{
		n:         n,
		kind:      kind,
		source:    source,
		groupAttr: agg.GroupAttr,
		groupOf:   make(map[string]string),
		eng: mapreduce.NewIncremental[string, any](
			func(k string, v any, emit func(string, any)) { h.Map(k, v, emit) },
			func(k string, vs []any, emit func(string, any)) { h.Reduce(k, vs, emit) },
			combine, uncombine),
	}
	empty := []*aggBuffer{}
	s.buffers.Store(&empty)
	return s
}

// Push implements device.Sink: one local reading folds into the aggregate
// (O(1) with a combinable handler) and its group is marked dirty toward
// every syncing peer.
func (s *aggSink) Push(r device.Reading) {
	s.mu.Lock()
	group, ok := s.groupOf[r.DeviceID]
	if !ok {
		// Already detached (or never tracked): its contribution must not
		// resurrect.
		s.mu.Unlock()
		s.n.stats[statForwardUnrouted].Add(1)
		return
	}
	s.eng.Upsert(r.DeviceID, group, r.Value)
	s.flushLocked()
	s.mu.Unlock()
}

// flushLocked re-reduces dirty groups and notifies the peer buffers;
// callers hold s.mu.
func (s *aggSink) flushLocked() {
	_, dirty := s.eng.Flush(s.dirtyBuf[:0])
	s.dirtyBuf = dirty
	if len(dirty) == 0 {
		return
	}
	for _, b := range *s.buffers.Load() {
		b.markDirty(dirty)
	}
}

// deviceAdded implements exportSink. Re-announcing a tracked device with a
// different group (its grouping attribute changed in the registry) retracts
// its contribution from the old group — it re-enters the aggregate under
// the new group with its next reading, mirroring the consuming runtime's
// reconcile semantics.
func (s *aggSink) deviceAdded(id, group string) {
	s.mu.Lock()
	if old, tracked := s.groupOf[id]; tracked && old != group {
		s.eng.Remove(id)
		s.flushLocked()
	}
	s.groupOf[id] = group
	s.mu.Unlock()
}

// deviceRemoved implements exportSink: the device's contribution leaves
// the aggregate and the change syncs like any other delta.
func (s *aggSink) deviceRemoved(id string) {
	s.mu.Lock()
	if _, ok := s.groupOf[id]; ok {
		delete(s.groupOf, id)
		s.eng.Remove(id)
		s.flushLocked()
	}
	s.mu.Unlock()
}

// partials materializes the current partial (or a removal marker) for each
// key — the payload of one agg_sync.
func (s *aggSink) partials(keys []string) []transport.GroupPartial {
	out := make([]transport.GroupPartial, 0, len(keys))
	s.mu.Lock()
	state := s.eng.Output()
	for _, k := range keys {
		if v, ok := state[k]; ok {
			out = append(out, transport.GroupPartial{Group: k, Value: v})
		} else {
			out = append(out, transport.GroupPartial{Group: k, Removed: true})
		}
	}
	s.mu.Unlock()
	return out
}

// addBuffer installs one peer's sync buffer (called under the node's
// AddPeer path only) and seeds it with every group the aggregate already
// holds: a peer that joins after readings have been folded must receive
// the current partials, not just future deltas — a steady group would
// otherwise stay missing on the receiver forever (dirty marks fire on
// change only).
func (s *aggSink) addBuffer(b *aggBuffer) {
	for {
		cur := s.buffers.Load()
		next := make([]*aggBuffer, len(*cur)+1)
		copy(next, *cur)
		next[len(*cur)] = b
		if s.buffers.CompareAndSwap(cur, &next) {
			break
		}
	}
	s.seed(b)
}

// seed marks every group the aggregate currently holds dirty toward one
// peer buffer: the full-state replay used when a peer joins late and when a
// link heals (the peer may have restarted and lost this node's partials —
// re-sending them is idempotent either way).
func (s *aggSink) seed(b *aggBuffer) {
	s.mu.Lock()
	state := s.eng.Output()
	seed := make([]string, 0, len(state))
	for k := range state {
		seed = append(seed, k)
	}
	s.mu.Unlock()
	if len(seed) > 0 {
		b.markDirty(seed)
	}
}

// aggBuffer is one (peer, kind, source) dirty-group set plus its flusher:
// pushes mark groups dirty, the flusher coalesces whatever accumulated
// into one agg_sync RPC carrying the groups' current partials. A failed
// RPC re-marks its groups and retries after a short backoff — the payload
// is idempotent, so retry is always safe. It is a set, not a handoff.Queue:
// a queue would grow with every aggregate update for as long as a partition
// lasts, where the set holds each dirty group once.
type aggBuffer struct {
	p    *peer
	sink *aggSink

	mu       sync.Mutex
	notEmpty sync.Cond
	dirty    map[string]struct{}
	stopped  bool
}

// aggRetryBackoff bounds the retry spin against an unreachable peer.
const aggRetryBackoff = 200 * time.Millisecond

// markDirty queues groups for the next sync.
func (b *aggBuffer) markDirty(keys []string) {
	b.mu.Lock()
	wasEmpty := len(b.dirty) == 0
	for _, k := range keys {
		b.dirty[k] = struct{}{}
	}
	if wasEmpty && len(b.dirty) > 0 {
		b.notEmpty.Signal()
	}
	b.mu.Unlock()
}

func (b *aggBuffer) run() {
	n := b.p.n
	defer n.wg.Done()
	var keys []string
	// One timer serves every retry wait and is stopped on exit: an
	// abandoned time.After stays armed until it fires.
	retry := time.NewTimer(time.Hour)
	retry.Stop()
	defer retry.Stop()
	for {
		b.mu.Lock()
		for len(b.dirty) == 0 && !b.stopped {
			b.notEmpty.Wait()
		}
		if len(b.dirty) == 0 {
			b.mu.Unlock()
			return // stopped and fully synced
		}
		stopped := b.stopped
		keys = keys[:0]
		for k := range b.dirty {
			keys = append(keys, k)
			delete(b.dirty, k)
		}
		b.mu.Unlock()

		groups := b.sink.partials(keys)
		merged, err := b.p.client.PublishAggSync(b.sink.kind, b.sink.source, n.name, groups)
		if err != nil {
			n.stats[statAggSyncErrors].Add(1)
			if stopped {
				return // closing: don't spin on a dead peer
			}
			b.markDirty(keys)
			if transport.IsConnFailure(err) {
				// The link is down: park until it heals instead of
				// burning a fast-fail every backoff tick. The groups stay
				// dirty, so the first sync after heal carries the whole
				// catch-up delta in one idempotent RPC.
				select {
				case <-n.stopCh:
				case <-b.p.client.UpChan():
				}
			} else {
				retry.Reset(aggRetryBackoff)
				select {
				case <-n.stopCh:
					if !retry.Stop() {
						<-retry.C // fired meanwhile: empty it for the next Reset
					}
				case <-retry.C:
				}
			}
			continue
		}
		n.stats[statAggSyncsSent].Add(1)
		n.stats[statAggGroupsSent].Add(uint64(len(groups)))
		if merged == 0 {
			n.stats[statAggSyncsUnrouted].Add(1)
		}
	}
}

// aggBufferFor returns (creating on first use) the peer's sync buffer for
// one aggregated export, with its flusher running.
func (p *peer) aggBufferFor(s *aggSink) *aggBuffer {
	key := exportKey(s.kind, s.source)
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.aggBuffers[key]; ok {
		return b
	}
	b := &aggBuffer{p: p, sink: s, dirty: make(map[string]struct{})}
	b.notEmpty.L = &b.mu
	if p.stopped {
		b.stopped = true
		p.aggBuffers[key] = b
		return b
	}
	p.aggBuffers[key] = b
	p.n.wg.Add(1)
	go b.run()
	return b
}
