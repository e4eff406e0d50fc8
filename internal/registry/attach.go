package registry

import "sync"

// Attachments keeps one attachment per entity matching a query: the
// binding of every discovered device to something that consumes it (a
// runtime interaction's ingestion shard, a federation export sink). Its
// owner feeds it the changes of a Watcher on the same query and calls
// Reconcile when the watcher reports lost notifications; Attachments
// itself runs no goroutine.
//
// An entity's slot is reserved under the table lock and attached outside
// it, so a slow attach (a driver dial, a subscription) never blocks the
// rest of the table. A reservation removed or stopped while its attach is
// in flight is not lost: the late attach finds its slot gone and runs its
// own detach, so every detach runs exactly once.
type Attachments struct {
	reg     *Registry
	q       Query
	attach  func(Entity) (detach func(), ok bool)
	refresh func(Entity)

	mu       sync.Mutex
	slots    map[ID]slot
	seq      uint64 // identifies reservations across a remove and re-add
	attached int
	stopped  bool
}

// slot is one entity's reservation; detach is nil until its attach lands.
type slot struct {
	seq    uint64
	detach func()
}

// NewAttachments returns an empty table over the entities of reg matching q.
// attach binds one entity and returns the (non-nil) function that unbinds
// it, or ok false to leave the entity unattached (it is offered again by
// the next Added or Updated change, or the next Reconcile). refresh, when
// non-nil, is called for an Added or Updated change of an entity that
// already holds a slot, and for every entity a Reconcile finds still
// attached, so the owner can follow attribute changes without
// re-attaching. attach and refresh run outside the table lock and must not
// block on the table.
func NewAttachments(reg *Registry, q Query, attach func(Entity) (detach func(), ok bool), refresh func(Entity)) *Attachments {
	return &Attachments{reg: reg, q: q, attach: attach, refresh: refresh, slots: make(map[ID]slot)}
}

// Apply applies one batch of watcher changes: Added and Updated attach an
// entity not yet attached (or refresh one that is), Removed detaches it.
func (a *Attachments) Apply(changes []Change) {
	for i := range changes {
		switch c := &changes[i]; c.Type {
		case Added, Updated:
			a.Add(c.Entity)
		case Removed:
			a.Remove(c.Entity.ID)
		}
	}
}

// Add attaches e unless it already holds a slot, in which case it is
// refreshed. A stopped table attaches nothing.
func (a *Attachments) Add(e Entity) {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	if _, dup := a.slots[e.ID]; dup {
		a.mu.Unlock()
		if a.refresh != nil {
			a.refresh(e)
		}
		return
	}
	a.seq++
	seq := a.seq
	a.slots[e.ID] = slot{seq: seq}
	a.mu.Unlock()

	detach, ok := a.attach(e)
	a.mu.Lock()
	s, held := a.slots[e.ID]
	held = held && s.seq == seq
	switch {
	case held && ok:
		s.detach = detach
		a.slots[e.ID] = s
		a.attached++
	case held:
		delete(a.slots, e.ID)
	}
	a.mu.Unlock()
	// Removed (or the table stopped) while attach ran: the reservation is
	// gone, so nobody else will detach what attach just bound.
	if !held && ok {
		detach()
	}
}

// Remove detaches id. A reservation whose attach is still in flight is
// discarded here and detached by that attach when it returns.
func (a *Attachments) Remove(id ID) {
	a.mu.Lock()
	s, ok := a.slots[id]
	if ok {
		delete(a.slots, id)
		if s.detach != nil {
			a.attached--
		}
	}
	a.mu.Unlock()
	if s.detach != nil {
		s.detach()
	}
}

// Stop detaches every entity and makes later Adds no-ops. Idempotent.
func (a *Attachments) Stop() {
	a.mu.Lock()
	slots := a.slots
	a.slots = make(map[ID]slot)
	a.attached = 0
	a.stopped = true
	a.mu.Unlock()
	for _, s := range slots {
		if s.detach != nil {
			s.detach()
		}
	}
}

// Reconcile repairs the table against one registry scan: entities matching
// the query but holding no slot are attached, slots whose entity is gone
// are detached and the entities that stayed are refreshed. An owner calls
// it to take its initial population and after its watcher reports lost
// notifications. The scan observes every change committed before it takes
// each shard lock, and a change racing the scan is still queued on the
// owner's watcher, so the table converges once that queue drains.
func (a *Attachments) Reconcile() {
	// Scan's entities may be kept read-only (shapes are immutable) but
	// the registry must not be re-entered from the callback: collect
	// first, attach after.
	live := make(map[ID]Entity)
	a.reg.Scan(a.q, func(e Entity) bool {
		live[e.ID] = e
		return true
	})
	var gone []func()
	var missing, kept []Entity
	a.mu.Lock()
	for id, s := range a.slots {
		if _, ok := live[id]; !ok {
			delete(a.slots, id)
			if s.detach != nil {
				a.attached--
				gone = append(gone, s.detach)
			}
		}
	}
	for id, e := range live {
		if _, ok := a.slots[id]; !ok {
			missing = append(missing, e)
		} else if a.refresh != nil {
			kept = append(kept, e)
		}
	}
	a.mu.Unlock()
	for _, detach := range gone {
		detach()
	}
	for _, e := range missing {
		a.Add(e)
	}
	for _, e := range kept {
		a.refresh(e)
	}
}

// Len reports how many entities are attached. A reservation whose attach is
// still in flight does not count: an entity counted here is bound.
func (a *Attachments) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.attached
}
