// Package registry implements entity binding and discovery, the first of the
// paper's four orchestration activities. Entities (devices or services) are
// registered with a kind (their device taxonomy type, including ancestors for
// DiaSpec's `extends` hierarchies), a set of attribute values (e.g.
// parkingLot=A22) and an optional network endpoint. Applications discover
// entities at runtime with attribute-filtered queries — the mechanism behind
// the generated `discover.parkingEntrancePanels().whereLocation(...)` chain
// in the paper's Figure 11.
//
// An entity stays registered until it is unregistered; watchers receive
// change notifications, which the runtime uses for runtime-time binding (the
// paper's fourth binding time).
//
// The directory is sharded by entity-ID hash: registrations and lookups on
// distinct entities proceed without contention, and Scan visits
// large populations one shard at a time so a 50k-device periodic gather
// never holds a registry-wide lock. Per-kind generation counters
// (Generation) let periodic pollers detect membership change without
// scanning, so an unchanged fleet is never rescanned at all.
package registry

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/handoff"
)

// ID uniquely identifies a registered entity.
type ID string

// Attributes is the attribute set of an entity. Keys are attribute names
// from the device declaration; values are their rendered form.
type Attributes map[string]string

// Clone returns an independent copy of a.
func (a Attributes) Clone() Attributes {
	if a == nil {
		return nil
	}
	out := make(Attributes, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// BindingTime identifies when an entity was bound, per the paper §IV:
// "entity binding can occur at configuration time, deployment time, launch
// time, or runtime".
type BindingTime int

// Binding times, in the paper's order.
const (
	BindConfiguration BindingTime = iota + 1
	BindDeployment
	BindLaunch
	BindRuntime
)

// String implements fmt.Stringer.
func (b BindingTime) String() string {
	switch b {
	case BindConfiguration:
		return "configuration"
	case BindDeployment:
		return "deployment"
	case BindLaunch:
		return "launch"
	case BindRuntime:
		return "runtime"
	default:
		return fmt.Sprintf("BindingTime(%d)", int(b))
	}
}

// Entity describes a registered thing.
type Entity struct {
	// ID is the unique entity identifier.
	ID ID
	// Kind is the entity's concrete device type, e.g. "ParkingEntrancePanel".
	Kind string
	// Kinds lists Kind plus every taxonomy ancestor (DiaSpec `extends`),
	// e.g. ["ParkingEntrancePanel", "DisplayPanel"]. Discover queries
	// match against this set. If empty, it is derived as [Kind].
	Kinds []string
	// Attrs holds the entity's attribute values.
	Attrs Attributes
	// Endpoint is the transport address serving this entity; empty for
	// in-process entities.
	Endpoint string
	// Origin names the federation node that owns this entity when the
	// local record is a mirror of a remote registry; empty for entities
	// owned by this process. Mirrors are discoverable like any entity but
	// are never re-exported to further peers, and the runtime binds their
	// event delivery to the federation tier instead of per-device
	// subscriptions.
	Origin string
	// Bound records when in the lifecycle the entity was bound.
	Bound BindingTime
}

// Query selects entities by kind and attribute equality.
type Query struct {
	// Kind restricts matches to entities of this kind or its subtypes.
	// Empty matches all kinds.
	Kind string
	// Where requires each listed attribute to equal the given value.
	Where Attributes
	// Limit bounds the number of results; 0 means unlimited.
	Limit int
}

// ChangeType classifies a watch notification.
type ChangeType int

// Watch notification kinds.
const (
	Added ChangeType = iota + 1
	Updated
	Removed
)

// String implements fmt.Stringer.
func (c ChangeType) String() string {
	switch c {
	case Added:
		return "added"
	case Updated:
		return "updated"
	case Removed:
		return "removed"
	default:
		return fmt.Sprintf("ChangeType(%d)", int(c))
	}
}

// Change is a single registry mutation observed by a watcher.
type Change struct {
	Type   ChangeType
	Entity Entity
}

// Errors returned by Registry operations.
var (
	ErrNotFound  = errors.New("registry: entity not found")
	ErrDuplicate = errors.New("registry: entity already registered")
	ErrClosed    = errors.New("registry: closed")

	errEmptyID   = errors.New("registry: empty entity ID")
	errEmptyKind = errors.New("registry: empty entity kind")
)

// record is one registration: everything but its ID and endpoint lives in
// its shape, shared with every record of the shard that has equal content
// (see shape.go). slot is the record's index in its shape's members. A
// record fits the 48 B size class.
type record struct {
	id       ID
	endpoint string
	shape    *shape
	slot     int
}

// entity assembles the record's Entity. Kinds and Attrs are the shape's:
// read-only, like everything Scan hands out.
func (rec *record) entity() Entity {
	s := rec.shape
	return Entity{
		ID:       rec.id,
		Kind:     s.kind,
		Kinds:    s.kinds,
		Attrs:    s.attrs,
		Endpoint: rec.endpoint,
		Origin:   s.origin,
		Bound:    s.bound,
	}
}

// DefaultShards is the shard count used when WithShards is not given.
const DefaultShards = 16

// idSeed makes the ID→shard hash vary between processes but stay consistent
// within one registry lifetime.
var idSeed = maphash.MakeSeed()

// Registry is a concurrency-safe entity directory with attribute indexes and
// watchers, sharded by entity-ID hash. Use New.
type Registry struct {
	shards []regShard
	mask   uint64
	closed atomic.Bool

	// watchers holds the watchers by their query's kind, "" for those of
	// every kind, so a change visits only the watchers of its taxonomy.
	watchMu    sync.Mutex
	watchers   map[string]map[*Watcher]struct{}
	watchCount atomic.Int64 // number of watchers, readable without watchMu

	// journal streams committed mutations to a write-ahead log and base is
	// the generation floor restored after a crash; see persist.go.
	journal atomic.Pointer[Journal]
	base    atomic.Pointer[genBase]
}

// regShard is one independent lock domain holding a subset of the entities
// plus the kind and attribute indexes for exactly that subset. The indexes
// post shapes, not entities: a shape with members is posted under each of
// its kinds and attributes.
type regShard struct {
	idx      int // position in Registry.shards, stamped at construction
	mu       sync.Mutex
	entities map[ID]*record
	byKind   map[string]shapeSet
	byAttr   map[string]shapeSet // "key\x00value" -> shapes

	// shapes interns the distinct contents of the shard's records by
	// canonical key (see shape.go). keyBuf and names are the scratch space
	// a lookup encodes the key in; lastKinds is the kinds slice of the
	// newest shape, reused by the next one with equal kinds.
	shapes    map[string]*shape
	keyBuf    []byte
	names     []string
	lastKinds []string

	// journalEnt holds the Entity a journal call points at, so journaling
	// allocates no Entity per mutation; cleared after each call.
	journalEnt Entity

	// genAll and gens are the shard's membership-change counters, bumped
	// (under mu) on every register/update/unregister, per kind in
	// the entity's taxonomy. Readers sum them across shards lock-free, so
	// a poller can detect fleet change without scanning.
	genAll atomic.Uint64
	gens   sync.Map // kind -> *atomic.Uint64

	_ [32]byte // keep neighbouring shard locks off one cache line
}

// bumpLocked records a membership/attribute change for rec's kinds. Callers
// hold sh.mu.
func (sh *regShard) bumpLocked(rec *record) {
	sh.genAll.Add(1)
	for _, k := range rec.shape.kinds {
		sh.kindGen(k).Add(1)
	}
}

func (sh *regShard) kindGen(kind string) *atomic.Uint64 {
	if v, ok := sh.gens.Load(kind); ok {
		return v.(*atomic.Uint64)
	}
	v, _ := sh.gens.LoadOrStore(kind, new(atomic.Uint64))
	return v.(*atomic.Uint64)
}

// Option configures a Registry.
type Option func(*Registry)

// WithShards sets the number of lock domains. n is rounded up to a power of
// two; values below 1 select one shard.
func WithShards(n int) Option {
	return func(r *Registry) {
		count := 1
		for count < n {
			count <<= 1
		}
		r.shards = make([]regShard, count)
		r.mask = uint64(count - 1)
	}
}

// New returns an empty registry.
func New(opts ...Option) *Registry {
	r := &Registry{
		shards:   make([]regShard, DefaultShards),
		mask:     DefaultShards - 1,
		watchers: make(map[string]map[*Watcher]struct{}),
	}
	for _, o := range opts {
		o(r)
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.idx = i
		sh.entities = make(map[ID]*record)
		sh.byKind = make(map[string]shapeSet)
		sh.byAttr = make(map[string]shapeSet)
		sh.shapes = make(map[string]*shape)
	}
	return r
}

func (r *Registry) shard(id ID) *regShard {
	return &r.shards[maphash.String(idSeed, string(id))&r.mask]
}

// Register adds e to the registry. It fails with ErrDuplicate if the ID is
// already present. The registry keeps neither e.Kinds nor e.Attrs: it points
// the record at the shard's shape of equal content, copying them only when
// the shard holds no such shape yet, so the caller may reuse or mutate both
// afterwards.
func (r *Registry) Register(e Entity) error {
	if err := normalizeEntity(&e); err != nil {
		return err
	}
	sh := r.shard(e.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	if _, ok := sh.entities[e.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, e.ID)
	}
	rec := &record{}
	sh.entities[e.ID] = rec
	sh.indexLocked(rec, &e)
	r.journalLocked(sh, Added, rec)
	sh.bumpLocked(rec)
	r.notify(Change{Type: Added, Entity: rec.entity()})
	return nil
}

// Update replaces the attributes and endpoint of an existing entity. The
// kind is unchanged. Like Register, it keeps no reference to attrs.
func (r *Registry) Update(id ID, attrs Attributes, endpoint string) error {
	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	rec, ok := sh.entities[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	e := rec.entity()
	e.Attrs, e.Endpoint = attrs, endpoint
	sh.unindexLocked(rec)
	sh.indexLocked(rec, &e)
	r.journalLocked(sh, Updated, rec)
	sh.bumpLocked(rec)
	r.notify(Change{Type: Updated, Entity: rec.entity()})
	return nil
}

// Unregister removes id from the registry.
func (r *Registry) Unregister(id ID) error {
	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	rec, ok := sh.entities[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(sh.entities, rec.id)
	sh.unindexLocked(rec)
	r.journalLocked(sh, Removed, rec)
	sh.bumpLocked(rec)
	r.notify(Change{Type: Removed, Entity: rec.entity()})
	return nil
}

// Get returns the entity registered under id.
func (r *Registry) Get(id ID) (Entity, bool) {
	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.entities[id]
	if !ok {
		return Entity{}, false
	}
	return cloneEntity(rec.entity()), true
}

// Discover returns entities matching q, sorted by ID for determinism. Each
// shard is visited independently, so concurrent mutations of other shards
// are never blocked by a discovery in flight.
func (r *Registry) Discover(q Query) []Entity {
	var out []Entity
	for i := range r.shards {
		r.scanShard(&r.shards[i], q, func(rec *record) bool {
			out = append(out, cloneEntity(rec.entity()))
			return true
		})
	}

	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// Scan visits every entity matching q without copying it, one shard at a
// time; return false from fn to stop early. It is the allocation-free
// snapshot iteration behind large periodic gathers: scanning 50k devices
// holds only one shard lock at a time and clones nothing.
//
// The Entity passed to fn shares the registry's internal maps and slices:
// its Kinds and Attrs are the shard's shape, shared by every entity of equal
// content. A shape is immutable, so fn may retain the Entity and its fields
// read-only past the call (a fleet snapshot keeps its Attrs), but must
// never mutate Kinds or Attrs — copy them to change them — and must not
// call back into the Registry. Visit order is unspecified; q.Limit bounds
// the number of visits.
func (r *Registry) Scan(q Query, fn func(Entity) bool) {
	visited := 0
	for i := range r.shards {
		more := r.scanShard(&r.shards[i], q, func(rec *record) bool {
			visited++
			return fn(rec.entity()) && (q.Limit <= 0 || visited < q.Limit)
		})
		if !more {
			return
		}
	}
}

// scanShard visits one shard's entities matching q under the shard lock.
// The lock is released even if visit panics: Scan runs the caller's function
// there, and a shard left locked would wedge every later mutation of it and
// Close.
func (r *Registry) scanShard(sh *regShard, q Query, visit func(*record) bool) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.scanLocked(q, visit)
}

// Count reports the number of registrations.
func (r *Registry) Count() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += len(sh.entities)
		sh.mu.Unlock()
	}
	return n
}

// Generation returns a counter that changes whenever the membership,
// attributes or endpoint of entities of the given kind (or any taxonomy
// descendant) change — register, update and unregister bump it, each under
// its shard lock. kind "" covers every entity. Two equal reads with no
// mutation committed in between guarantee an unchanged population, so
// periodic pollers can reuse a cached fleet snapshot instead of rescanning
// 50k entities per tick. The read takes no lock.
func (r *Registry) Generation(kind string) uint64 {
	// Start from the restored floor (zero unless RestoreGenerations ran) so
	// generations stay monotonic across a crash and restart.
	sum := r.baseFor(kind)
	for i := range r.shards {
		sh := &r.shards[i]
		if kind == "" {
			sum += sh.genAll.Load()
		} else if v, ok := sh.gens.Load(kind); ok {
			sum += v.(*atomic.Uint64).Load()
		}
	}
	return sum
}

// ScanIfChanged is the delta-since-generation scan behind federation
// registry sync: it reports the current generation for kind and, only when
// it differs from since, visits every entity of the kind exactly like Scan
// (same sharing and re-entrancy rules). An unchanged population costs one
// lock-free generation read and no iteration at all, which is what makes a
// steady-state cross-node sync tick independent of fleet size.
func (r *Registry) ScanIfChanged(kind string, since uint64, fn func(Entity) bool) (gen uint64, changed bool) {
	gen = r.Generation(kind)
	if gen == since {
		return gen, false
	}
	r.Scan(Query{Kind: kind}, fn)
	return gen, true
}

// Watch registers a watcher that queues every change matching q, in commit
// order, until its consumer takes them with Next. The queue holds more than a
// fleet-sized burst (watchQueueBound changes): only a consumer that far
// behind loses notifications, and Next then reports the loss once so the
// consumer can repair its state against a Scan. Close the watcher with its
// Cancel method.
func (r *Registry) Watch(q Query) (*Watcher, error) {
	w := &Watcher{
		reg:   r,
		q:     q,
		queue: handoff.New[Change](watchRetain, watchQueueBound),
	}
	r.watchMu.Lock()
	defer r.watchMu.Unlock()
	if r.closed.Load() {
		return nil, ErrClosed
	}
	set := r.watchers[q.Kind]
	if set == nil {
		set = make(map[*Watcher]struct{})
		r.watchers[q.Kind] = set
	}
	set[w] = struct{}{}
	r.watchCount.Add(1)
	return w, nil
}

// Close shuts down the registry: every watcher is closed (its Next hands over
// what is still queued, then reports the end) and further mutations fail
// with ErrClosed. Mutators re-check the closed flag under their shard lock,
// so taking every shard lock once here is a barrier guaranteeing no mutation
// (or watcher notification) commits after Close returns.
func (r *Registry) Close() {
	if r.closed.Swap(true) {
		return
	}
	for i := range r.shards {
		r.shards[i].mu.Lock()
	}
	for i := range r.shards {
		r.shards[i].mu.Unlock()
	}
	r.watchMu.Lock()
	defer r.watchMu.Unlock()
	for _, set := range r.watchers {
		for w := range set {
			w.queue.Close()
		}
	}
	clear(r.watchers)
	r.watchCount.Store(0)
}

// scanLocked calls fn for each record matching q and reports false as soon
// as fn does. It tests each candidate shape once and walks the members of
// those that match. Callers hold sh.mu.
func (sh *regShard) scanLocked(q Query, fn func(*record) bool) bool {
	visit := func(s *shape) bool {
		if !matchesQuery(s, q) {
			return true
		}
		for _, rec := range s.members {
			if !fn(rec) {
				return false
			}
		}
		return true
	}
	if q.Kind == "" && len(q.Where) == 0 {
		for _, s := range sh.shapes {
			if !visit(s) {
				return false
			}
		}
		return true
	}
	for s := range sh.candidatesLocked(q) {
		if !visit(s) {
			return false
		}
	}
	return true
}

// candidatesLocked returns the smallest posting that holds every shape
// matching q, which names a kind or an attribute: the shapes of q's kind or
// of one of its attribute values. A shard with no posting for one of them
// holds no match, and the (nil) set is the answer.
func (sh *regShard) candidatesLocked(q Query) shapeSet {
	var best shapeSet
	if q.Kind != "" {
		if best = sh.byKind[q.Kind]; best == nil {
			return nil
		}
	}
	for k, v := range q.Where {
		set := sh.byAttr[attrKey(k, v)]
		if set == nil {
			return nil
		}
		if best == nil || len(set) < len(best) {
			best = set
		}
	}
	return best
}

func matchesQuery(s *shape, q Query) bool {
	if q.Kind != "" && !slices.Contains(s.kinds, q.Kind) {
		return false
	}
	return matchesWhere(s.attrs, q.Where)
}

// indexLocked installs e as rec's content: it makes the record a member of
// the shard's shape for e — whose Kinds and Attrs may belong to the caller —
// and posts the shape when the record is its first member. Every install
// (Register, Update, Reclaim, RestoreEntity) passes here.
func (sh *regShard) indexLocked(rec *record, e *Entity) {
	s := sh.internLocked(e)
	rec.id, rec.endpoint, rec.shape = e.ID, e.Endpoint, s
	if s.add(rec) {
		sh.postLocked(s, addPosting)
	}
}

// unindexLocked takes rec out of its shape's members; a shape left with none
// is withdrawn from its postings and the shard's table. The record keeps its
// shape pointer: a shape's content is never mutated, so the removal's journal
// entry and notification still read it.
func (sh *regShard) unindexLocked(rec *record) {
	if s := rec.shape; s.remove(rec) {
		sh.postLocked(s, dropPosting)
		delete(sh.shapes, s.key)
	}
}

// postLocked applies op to each posting of s: under each of its kinds in
// byKind and each of its attributes in byAttr.
func (sh *regShard) postLocked(s *shape, op func(map[string]shapeSet, string, *shape)) {
	for _, k := range s.kinds {
		op(sh.byKind, k, s)
	}
	for p := int(s.attrsAt); p < len(s.key); {
		var key string
		_, _, key, p = s.attr(p)
		op(sh.byAttr, key, s)
	}
}

func addPosting(index map[string]shapeSet, key string, s *shape) {
	set := index[key]
	if set == nil {
		set = make(shapeSet)
		index[key] = set
	}
	set[s] = struct{}{}
}

func dropPosting(index map[string]shapeSet, key string, s *shape) {
	if set := index[key]; set != nil {
		delete(set, s)
		if len(set) == 0 {
			delete(index, key)
		}
	}
}

// notify queues a change on every matching watcher: those of every kind and
// those of each kind in the entity's taxonomy, never the others. Callers
// hold the mutated entity's shard lock; watchMu nests inside shard locks and
// each watcher's queue lock inside watchMu, so a change pushed here is
// ordered before any Cancel or Close of the watcher. With no watchers
// registered (the common swarm-bind case) it returns without touching the
// global lock, keeping shard writes independent.
func (r *Registry) notify(c Change) {
	if r.watchCount.Load() == 0 {
		return
	}
	r.watchMu.Lock()
	defer r.watchMu.Unlock()
	r.notifyKindLocked("", c)
	for i, k := range c.Entity.Kinds {
		if !slices.Contains(c.Entity.Kinds[:i], k) {
			r.notifyKindLocked(k, c)
		}
	}
}

// notifyKindLocked queues c, as a private copy, on each watcher of kind
// whose attribute filter it matches. Callers hold watchMu.
func (r *Registry) notifyKindLocked(kind string, c Change) {
	for w := range r.watchers[kind] {
		if matchesWhere(c.Entity.Attrs, w.q.Where) {
			ev := c
			ev.Entity = cloneEntity(c.Entity)
			w.queue.Push(ev)
		}
	}
}

// watchQueueBound is the number of changes a watcher queues for a consumer
// that has not called Next; past it changes are dropped and Next reports the
// loss. It sits above a 50k-device bind burst, so a healthy consumer never
// reaches it: a fleet-sized bind storm is handed over as queued deltas, not
// answered with repeated full-fleet repairs.
const watchQueueBound = 1 << 16

// watchRetain is a watcher queue's retain bound: a quiet watcher holds at
// most two buffers of this size (about 28 KB each), not its worst burst — a
// host runs one watcher per tracked kind per app.
const watchRetain = 256

// Watcher queues registry change notifications for one consumer.
type Watcher struct {
	reg   *Registry
	q     Query
	queue *handoff.Queue[Change]
}

// Next blocks until changes are queued and returns all of them, oldest
// first. lost reports, once, that changes were dropped since the previous
// call because the queue passed its bound: the consumer must then repair its
// state against a Scan. ok is false once the watcher is cancelled or the
// registry closed and every queued change has been handed over.
//
// dst is the batch returned by the previous call, given back for reuse as in
// handoff.Queue.Take: it is cleared, so it pins no Entity. The returned batch
// is the caller's until its next call to Next. Next must not be called
// concurrently with itself.
func (w *Watcher) Next(dst []Change) (batch []Change, lost, ok bool) {
	return w.queue.Take(dst)
}

// Queued reports how many changes the watcher has queued since Watch, those
// dropped past its bound not counted. A change is queued before its mutation
// releases its shard lock, so every change a Scan that returned before the
// call observed is counted.
func (w *Watcher) Queued() uint64 { return w.queue.Queued() }

// Cancel detaches the watcher and wakes its consumer; Next still hands over
// the changes queued before the cancel. Idempotent.
func (w *Watcher) Cancel() {
	w.reg.watchMu.Lock()
	defer w.reg.watchMu.Unlock()
	set := w.reg.watchers[w.q.Kind]
	if _, ok := set[w]; ok {
		delete(set, w)
		if len(set) == 0 {
			delete(w.reg.watchers, w.q.Kind)
		}
		w.reg.watchCount.Add(-1)
		w.queue.Close()
	}
}

func matchesWhere(attrs, where Attributes) bool {
	for k, v := range where {
		if attrs[k] != v {
			return false
		}
	}
	return true
}

func attrKey(k, v string) string { return k + "\x00" + v }

func cloneEntity(e Entity) Entity {
	e.Attrs = e.Attrs.Clone()
	e.Kinds = append([]string(nil), e.Kinds...)
	return e
}
