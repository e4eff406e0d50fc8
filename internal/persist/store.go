package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/registry"
)

// Errors returned by Store operations.
var (
	// ErrCrashed is returned after Crash: the store is detached from the
	// disk and refuses every further write AND every durability promise
	// (Barrier fails too, so a crashed node cannot advertise generations
	// its log no longer holds).
	ErrCrashed = errors.New("persist: store crashed")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("persist: store closed")
	// ErrOldFormat is returned by Open for a directory written in format 1,
	// whose records carried registration leases.
	ErrOldFormat = errors.New("this build reads format 2 only")
)

// Options tunes a Store. The zero value selects every default.
type Options struct {
	// SegmentBytes rotates the WAL once a segment exceeds this size.
	// Default 4 MiB.
	SegmentBytes int64
	// FlushInterval is the cadence of the background flush+fsync of
	// buffered WAL records — the bound on how much journaled (but not yet
	// barriered) state a crash can lose. Default 25ms.
	FlushInterval time.Duration
	// SyncEvery fsyncs after every WAL append. Orders of magnitude slower;
	// meant for tests that need record-level durability boundaries.
	SyncEvery bool
	// Retain is how many snapshots (and the WAL segments they replay from)
	// are kept; older ones are pruned after each successful snapshot.
	// Default 2, so a torn newest snapshot always has a fallback.
	Retain int
	// OnError receives journal-append and background flush failures.
	// Default: drop.
	OnError func(error)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = defSegSize
	}
	if out.FlushInterval <= 0 {
		out.FlushInterval = 25 * time.Millisecond
	}
	if out.Retain <= 0 {
		out.Retain = 2
	}
	return out
}

// RecoveredEntity is one registration recovered from disk.
type RecoveredEntity struct {
	Entity registry.Entity
}

// Recovered is the node state rebuilt by Open from the latest valid
// snapshot plus the WAL tail. It is read-only shared state: callers must
// not mutate it.
type Recovered struct {
	// Boot is the transport boot epoch of the previous incarnation (0 if
	// it never registered one). Re-using it on restart makes federation
	// peers treat the reborn node as the same incarnation.
	Boot uint64
	// GenAll and Gens are the recovered registry generation sums, installed
	// as the new registry's generation base.
	GenAll uint64
	Gens   map[string]uint64
	// Entities is the recovered registry population, sorted by ID.
	Entities []RecoveredEntity
	// Peers maps federation peer names to their recovered sync cursors.
	Peers map[string]PeerState
	// Aggs maps aggregate checkpoint keys to opaque engine blobs
	// (mapreduce.Incremental.Checkpoint output).
	Aggs map[string][]byte
}

// Store is one node's durability backend. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex // guards the WAL writer, cursors and lifecycle flags
	w       *walWriter
	crashed bool
	closed  bool
	peers   map[string]PeerState
	boot    uint64
	encBuf  enc // journal scratch, reused under mu

	// baseAll/baseKinds are the generation sums this incarnation recovered;
	// constant after Open (snapshots embed them).
	baseAll   uint64
	baseKinds map[string]uint64

	snapMu  sync.Mutex // serializes whole snapshot captures
	snapSeq uint64     // guarded by snapMu

	regMu   sync.Mutex
	reg     *registry.Registry
	sources []func(add func(key string, blob []byte))

	rec *Recovered

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Open attaches to (creating if needed) a persistence directory, recovers
// the state of the previous incarnation — latest valid snapshot, then the
// WAL tail up to its last consistent record — repairs any torn tail in
// place, and starts a fresh WAL segment for this incarnation. Recovered
// returns nil only for a brand-new directory.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		opts:  opts.withDefaults(),
		peers: make(map[string]PeerState),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if err := refuseFormat1(dir); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	go s.background()
	return s, nil
}

// refuseFormat1 fails on a format-1 segment or snapshot before recover reads
// the directory: recover would take the old WAL magic for a torn segment and
// truncate it, and skip the old snapshot, quietly emptying the store.
func refuseFormat1(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		path := filepath.Join(dir, ent.Name())
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		head := make([]byte, len(walMagic))
		n, _ := io.ReadFull(f, head)
		f.Close()
		if m := string(head[:n]); m == "DSPWAL1\n" || m == "DSPSNP1\n" {
			return fmt.Errorf("persist: %s is format 1 (registration leases); %w", path, ErrOldFormat)
		}
	}
	return nil
}

// Recovered returns the state rebuilt at Open, nil for a fresh directory.
// The returned value is shared and read-only.
func (s *Store) Recovered() *Recovered { return s.rec }

// Dir returns the persistence directory.
func (s *Store) Dir() string { return s.dir }

// SetRegistry attaches the registry whose shards snapshots capture. Install
// it (and the journal, registry.SetJournal) before mutations start.
func (s *Store) SetRegistry(reg *registry.Registry) {
	s.regMu.Lock()
	s.reg = reg
	s.regMu.Unlock()
}

// AddSource registers a snapshot contributor: at capture time fn is invoked
// and adds opaque checkpoint blobs (e.g. incremental-aggregation engines)
// under stable keys. Blobs are restored via Recovered.Aggs after a restart.
func (s *Store) AddSource(fn func(add func(key string, blob []byte))) {
	s.regMu.Lock()
	s.sources = append(s.sources, fn)
	s.regMu.Unlock()
}

// Journal returns the mutation hook to install with registry.SetJournal:
// every committed registry mutation is framed into the WAL before its
// generation counters become observable. Append failures surface through
// Options.OnError; after Crash or Close the hook is a no-op.
func (s *Store) Journal() registry.Journal {
	return func(m registry.Mutation) {
		s.mu.Lock()
		if s.crashed || s.closed {
			s.mu.Unlock()
			return
		}
		s.encBuf.b = s.encBuf.b[:0]
		encodeMutation(&s.encBuf, &m)
		err := s.w.append(recMutation, s.encBuf.b)
		s.mu.Unlock()
		if err != nil {
			s.report(fmt.Errorf("persist: journal append: %w", err))
		}
	}
}

// SetBoot durably records the node's transport boot epoch. Called once,
// right after the federation server allocates it; the synchronous barrier
// makes the epoch crash-proof before any peer can observe it.
func (s *Store) SetBoot(boot uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	s.boot = boot
	s.encBuf.b = s.encBuf.b[:0]
	encodeBoot(&s.encBuf, boot)
	if err := s.w.append(recBoot, s.encBuf.b); err != nil {
		return err
	}
	return s.w.barrier()
}

// Boot returns the recorded boot epoch (0 when none).
func (s *Store) Boot() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.boot
}

// SavePeer journals one federation peer's sync cursor after a successfully
// applied delta. Flushed on the background cadence: losing the tail only
// costs the restarted node a slightly staler cursor, i.e. a slightly wider
// (still gap-proportional) rescan.
func (s *Store) SavePeer(name string, ps PeerState) {
	gens := make(map[string]uint64, len(ps.Gens))
	for k, v := range ps.Gens {
		gens[k] = v
	}
	ps.Gens = gens
	s.mu.Lock()
	if s.crashed || s.closed {
		s.mu.Unlock()
		return
	}
	s.peers[name] = ps
	s.encBuf.b = s.encBuf.b[:0]
	encodePeer(&s.encBuf, name, ps)
	err := s.w.append(recPeer, s.encBuf.b)
	s.mu.Unlock()
	if err != nil {
		s.report(fmt.Errorf("persist: peer cursor append: %w", err))
	}
}

// Barrier flushes and fsyncs every journaled record. The federation server
// calls it before answering a registry sync, making every advertised
// generation durable — the invariant that lets a restarted node re-advertise
// its recovered generations as exactly the ones peers cached.
func (s *Store) Barrier() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	return s.w.barrier()
}

func (s *Store) writableLocked() error {
	if s.crashed {
		return ErrCrashed
	}
	if s.closed {
		return ErrClosed
	}
	return nil
}

// Crash simulates a SIGKILL for tests and chaos harnesses: buffered,
// un-fsynced WAL records are discarded, the store detaches from the disk,
// and every further operation fails or no-ops — so the process teardown
// that follows (registry close, mirror removal) leaves the directory
// exactly as the crash instant left it.
func (s *Store) Crash() {
	s.mu.Lock()
	if s.crashed || s.closed {
		s.mu.Unlock()
		return
	}
	s.crashed = true
	s.w.close(true)
	s.mu.Unlock()
	s.stopBackground()
}

// Close shuts the store down cleanly: a final snapshot (capturing the
// attached registry and sources), then a sealed WAL. After Crash, Close
// only reclaims in-process resources.
func (s *Store) Close() error {
	s.stopBackground()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if s.crashed {
		s.closed = true
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	snapErr := s.Snapshot()
	s.mu.Lock()
	s.closed = true
	err := s.w.close(false)
	s.mu.Unlock()
	if snapErr != nil {
		return snapErr
	}
	return err
}

func (s *Store) stopBackground() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

func (s *Store) report(err error) {
	if f := s.opts.OnError; f != nil {
		f(err)
	}
}

// background flushes the WAL on FlushInterval until the store stops.
func (s *Store) background() {
	defer close(s.done)
	flush := time.NewTicker(s.opts.FlushInterval)
	defer flush.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-flush.C:
			if err := s.Barrier(); err != nil && !errors.Is(err, ErrCrashed) && !errors.Is(err, ErrClosed) {
				s.report(fmt.Errorf("persist: background flush: %w", err))
			}
		}
	}
}

// Snapshot atomically persists the current node state: the WAL is rotated
// (so the snapshot names the exact segment its tail replay starts from),
// the attached registry is captured shard by shard under each shard's own
// lock, sources contribute their checkpoint blobs, and the result is
// written via temp-file + rename. Old snapshots and the WAL segments only
// they needed are pruned afterwards.
//
// Mutations racing the capture are safe either way: a mutation journaled
// before the rotation point commits under its shard lock before the shard
// is captured (it is IN the snapshot), and one journaled after lands in a
// replayed segment (replay is idempotent per entity, and generation merge
// is per-shard max).
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	s.mu.Lock()
	if err := s.writableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if _, err := s.w.rotate(); err != nil {
		s.mu.Unlock()
		return err
	}
	state := &snapState{
		firstSeg:  s.w.seg,
		boot:      s.boot,
		baseAll:   s.baseAll,
		baseKinds: s.baseKinds,
		peers:     make(map[string]PeerState, len(s.peers)),
		aggs:      make(map[string][]byte),
	}
	for name, ps := range s.peers {
		gens := make(map[string]uint64, len(ps.Gens))
		for k, v := range ps.Gens {
			gens[k] = v
		}
		state.peers[name] = PeerState{Boot: ps.Boot, Gens: gens}
	}
	s.mu.Unlock()

	s.regMu.Lock()
	reg := s.reg
	sources := s.sources
	s.regMu.Unlock()
	if reg != nil {
		reg.CaptureState(
			func(idx int, genAll uint64, kinds map[string]uint64) {
				state.shards = append(state.shards, shardGens{idx: idx, genAll: genAll, kinds: kinds})
			},
			func(e registry.Entity) { state.entities = append(state.entities, e) },
		)
	}
	for _, src := range sources {
		src(func(key string, blob []byte) { state.aggs[key] = blob })
	}

	// A crash hook may have fired during the capture; write nothing then.
	s.mu.Lock()
	dead := s.crashed || s.closed
	s.mu.Unlock()
	if dead {
		return ErrCrashed
	}

	seq := s.snapSeq + 1
	if err := writeSnapshot(s.dir, seq, state); err != nil {
		return err
	}
	s.snapSeq = seq
	s.prune()
	return nil
}

// prune removes snapshots beyond the retention window and WAL segments that
// no retained snapshot replays from. Failures are reported, not fatal: a
// failed prune only leaves extra files behind.
func (s *Store) prune() {
	snaps, err := listSnapshots(s.dir)
	if err != nil {
		s.report(fmt.Errorf("persist: prune: %w", err))
		return
	}
	keep := s.opts.Retain
	if len(snaps) > keep {
		for _, sn := range snaps[:len(snaps)-keep] {
			os.Remove(filepath.Join(s.dir, snapName(sn.seq, sn.firstSeg)))
		}
		snaps = snaps[len(snaps)-keep:]
	}
	if len(snaps) == 0 {
		return
	}
	minSeg := snaps[0].firstSeg
	for _, sn := range snaps {
		if sn.firstSeg < minSeg {
			minSeg = sn.firstSeg
		}
	}
	segs, err := listSegments(s.dir)
	if err != nil {
		s.report(fmt.Errorf("persist: prune: %w", err))
		return
	}
	for _, seg := range segs {
		if seg < minSeg {
			os.Remove(filepath.Join(s.dir, segName(seg)))
		}
	}
}

// recover rebuilds the previous incarnation's state and prepares this one's
// WAL: load the newest valid snapshot (falling back on damage), replay the
// consistent WAL prefix from the snapshot's segment, repair any torn tail
// in place, then open a fresh segment and stamp it with an incarnation
// marker carrying the recovered generation sums.
func (s *Store) recover() error {
	snaps, err := listSnapshots(s.dir)
	if err != nil {
		return err
	}
	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}

	var snap *snapState
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := loadSnapshot(filepath.Join(s.dir, snapName(snaps[i].seq, snaps[i].firstSeg)))
		if err == nil {
			snap = st
			s.snapSeq = snaps[i].seq
			break
		}
		// Torn or corrupt snapshot: fall back to the previous one and
		// replay a longer WAL suffix instead.
	}
	if len(snaps) > 0 && s.snapSeq == 0 {
		// Every snapshot file was corrupt; replay the whole WAL and keep
		// numbering past the dead files.
		s.snapSeq = snaps[len(snaps)-1].seq
	}

	fresh := snap == nil && len(segs) == 0
	r := newReplayState(snap)

	// Replay the contiguous run of segments starting at the snapshot's
	// firstSeg (or the oldest segment on disk without one). A numbering gap
	// or an unclean record ends the consistent prefix: the torn segment is
	// truncated to its valid bytes and everything after it removed, so the
	// next incarnation's records can never land behind garbage.
	firstSeg := r.firstSeg
	if snap == nil && len(segs) > 0 {
		firstSeg = segs[0]
	}
	lastGood, truncAt, truncTo := uint64(0), uint64(0), int64(-1)
	expect := firstSeg
	for _, seg := range segs {
		if seg < firstSeg {
			lastGood = seg // retained for an older snapshot's replay
			continue
		}
		if seg != expect {
			break
		}
		clean, validLen, err := replaySegment(filepath.Join(s.dir, segName(seg)), r.apply)
		if err != nil && !errors.Is(err, errCorrupt) {
			return err
		}
		if !clean || err != nil {
			truncAt, truncTo = seg, validLen
			lastGood = seg
			break
		}
		lastGood = seg
		expect = seg + 1
	}
	if truncTo >= 0 {
		if err := os.Truncate(filepath.Join(s.dir, segName(truncAt)), truncTo); err != nil {
			return err
		}
	}
	for _, seg := range segs {
		if seg > lastGood && seg >= firstSeg {
			os.Remove(filepath.Join(s.dir, segName(seg)))
		}
	}

	s.baseAll, s.baseKinds = r.genSums()
	s.boot = r.boot
	s.peers = r.peers
	if !fresh {
		rec := &Recovered{
			Boot:   r.boot,
			GenAll: s.baseAll,
			Gens:   s.baseKinds,
			Peers:  make(map[string]PeerState, len(r.peers)),
			Aggs:   r.aggs,
		}
		for name, ps := range r.peers {
			rec.Peers[name] = ps
		}
		rec.Entities = make([]RecoveredEntity, 0, len(r.entities))
		for _, e := range r.entities {
			rec.Entities = append(rec.Entities, RecoveredEntity{Entity: e})
		}
		sort.Slice(rec.Entities, func(i, j int) bool {
			return rec.Entities[i].Entity.ID < rec.Entities[j].Entity.ID
		})
		s.rec = rec
	}

	// Open this incarnation's first segment and stamp it with the marker:
	// replay resets per-shard counter tracking there and adopts these sums
	// as the base, because shard-local counters do not compare across
	// incarnations (the ID→shard hash is reseeded per process).
	nextSeg := lastGood + 1
	if len(segs) > 0 && segs[len(segs)-1] > lastGood {
		// Pre-firstSeg stragglers can't exceed lastGood; this only guards
		// remove failures above.
		nextSeg = segs[len(segs)-1] + 1
	}
	if nextSeg == 0 {
		nextSeg = 1
	}
	s.w = &walWriter{dir: s.dir, segBytes: s.opts.SegmentBytes, syncEvery: s.opts.SyncEvery}
	if err := s.w.openSegment(nextSeg); err != nil {
		return err
	}
	s.encBuf.b = s.encBuf.b[:0]
	encodeMarker(&s.encBuf, marker{baseAll: s.baseAll, baseKinds: s.baseKinds, boot: s.boot})
	if err := s.w.append(recMarker, s.encBuf.b); err != nil {
		return err
	}
	return s.w.barrier()
}

// replayState folds snapshot state and WAL records into the recovered node
// state. Generation merging is per-(shard, kind) last-value within one
// incarnation, summed over shards on top of the incarnation's base; markers
// switch incarnations.
type replayState struct {
	firstSeg  uint64
	boot      uint64
	baseAll   uint64
	baseKinds map[string]uint64
	shardAll  map[int]uint64
	shardKind map[int]map[string]uint64
	entities  map[registry.ID]registry.Entity
	peers     map[string]PeerState
	aggs      map[string][]byte
}

func newReplayState(snap *snapState) *replayState {
	r := &replayState{
		baseKinds: map[string]uint64{},
		shardAll:  map[int]uint64{},
		shardKind: map[int]map[string]uint64{},
		entities:  map[registry.ID]registry.Entity{},
		peers:     map[string]PeerState{},
		aggs:      map[string][]byte{},
	}
	if snap == nil {
		return r
	}
	r.firstSeg = snap.firstSeg
	r.boot = snap.boot
	r.baseAll = snap.baseAll
	for k, v := range snap.baseKinds {
		r.baseKinds[k] = v
	}
	for _, sg := range snap.shards {
		r.shardAll[sg.idx] = sg.genAll
		kinds := make(map[string]uint64, len(sg.kinds))
		for k, v := range sg.kinds {
			kinds[k] = v
		}
		r.shardKind[sg.idx] = kinds
	}
	for _, e := range snap.entities {
		r.entities[e.ID] = e
	}
	for name, ps := range snap.peers {
		r.peers[name] = ps
	}
	for k, v := range snap.aggs {
		r.aggs[k] = v
	}
	return r
}

// apply folds one WAL record. A decode failure returns errCorrupt, which
// recovery treats exactly like a CRC failure at that offset.
func (r *replayState) apply(typ byte, payload []byte) error {
	switch typ {
	case recMutation:
		m, err := decodeMutation(payload)
		if err != nil {
			return err
		}
		switch m.typ {
		case registry.Added, registry.Updated:
			r.entities[m.entity.ID] = m.entity
		case registry.Removed:
			delete(r.entities, m.entity.ID)
		}
		if m.genAll > r.shardAll[m.shard] {
			r.shardAll[m.shard] = m.genAll
		}
		kinds := r.shardKind[m.shard]
		if kinds == nil {
			kinds = map[string]uint64{}
			r.shardKind[m.shard] = kinds
		}
		for _, kg := range m.kindGens {
			if kg.Gen > kinds[kg.Kind] {
				kinds[kg.Kind] = kg.Gen
			}
		}
	case recPeer:
		name, ps, err := decodePeer(payload)
		if err != nil {
			return err
		}
		r.peers[name] = ps
	case recMarker:
		m, err := decodeMarker(payload)
		if err != nil {
			return err
		}
		r.baseAll = m.baseAll
		r.baseKinds = map[string]uint64{}
		for k, v := range m.baseKinds {
			r.baseKinds[k] = v
		}
		r.shardAll = map[int]uint64{}
		r.shardKind = map[int]map[string]uint64{}
		if m.boot != 0 {
			r.boot = m.boot
		}
	case recBoot:
		b, err := decodeBoot(payload)
		if err != nil {
			return err
		}
		r.boot = b
	default:
		return errCorrupt
	}
	return nil
}

// genSums flattens the per-shard counters onto the incarnation base.
func (r *replayState) genSums() (all uint64, kinds map[string]uint64) {
	all = r.baseAll
	kinds = make(map[string]uint64, len(r.baseKinds))
	for k, v := range r.baseKinds {
		kinds[k] = v
	}
	for _, v := range r.shardAll {
		all += v
	}
	for _, shard := range r.shardKind {
		for k, v := range shard {
			kinds[k] += v
		}
	}
	return all, kinds
}
