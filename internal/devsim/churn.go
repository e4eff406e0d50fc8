package devsim

import (
	"errors"
	"sync"
)

// ChurnHooks connects a ChurnSwarm to the hosting runtime without coupling
// devsim to it: Bind and Unbind wire to the runtime's BindDevice and
// UnbindDevice.
type ChurnHooks struct {
	Bind   func(*SwarmSensor) error
	Unbind func(id string) error
}

// ChurnSwarm drives fleet churn over a Swarm while keeping the ground truth
// an event-storm scenario needs: which sensors are intended to be live, how
// many emitted readings were accepted by an attached consumer (and so must
// be delivered exactly once), and whether the hosting runtime has settled
// its attachments to match the intended fleet.
//
// Churn rotates deterministically: ChurnOut detaches the longest-live
// sensors, ChurnIn revives the longest-dead ones, so over time every sensor
// cycles through registration, traffic and departure.
type ChurnSwarm struct {
	swarm *Swarm
	hooks ChurnHooks

	mu         sync.Mutex
	live       []bool
	liveIdx    []int // live sensor indexes, oldest bind first
	deadIdx    []int // dead sensor indexes, oldest death first
	stormPos   int
	expected   uint64 // accepted readings from intended-live sensors
	forbidden  uint64 // accepted readings from intended-dead sensors
	churnedIn  uint64
	churnedOut uint64
}

// NewChurnSwarm wraps s. No sensor is bound yet; call BindAll (or ChurnIn)
// to populate the fleet.
func NewChurnSwarm(s *Swarm, hooks ChurnHooks) (*ChurnSwarm, error) {
	if hooks.Bind == nil || hooks.Unbind == nil {
		return nil, errors.New("devsim: churn swarm needs Bind and Unbind hooks")
	}
	c := &ChurnSwarm{
		swarm: s,
		hooks: hooks,
		live:  make([]bool, s.Size()),
	}
	c.deadIdx = make([]int, s.Size())
	for i := range c.deadIdx {
		c.deadIdx[i] = i
	}
	return c, nil
}

// Swarm returns the underlying population.
func (c *ChurnSwarm) Swarm() *Swarm { return c.swarm }

// BindAll binds every sensor of the population.
func (c *ChurnSwarm) BindAll() error {
	return c.ChurnIn(c.swarm.Size())
}

// AdoptAll marks every sensor as intended-live without binding it — for
// populations the caller already bound to the runtime before wrapping them
// in a ChurnSwarm.
func (c *ChurnSwarm) AdoptAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, idx := range c.deadIdx {
		c.live[idx] = true
		c.liveIdx = append(c.liveIdx, idx)
	}
	c.deadIdx = c.deadIdx[:0]
}

// RebindMatching binds exactly the sensors keep selects and marks the rest
// dead — the restart path: a reborn node re-binds the registrations its
// durable state says were live, through a Bind hook that reclaims rather
// than re-registers. It applies only to an unpopulated swarm (nothing live
// yet); the previous incarnation's bind order is not preserved — sensors
// rebind in population order.
func (c *ChurnSwarm) RebindMatching(keep func(*SwarmSensor) bool) error {
	c.mu.Lock()
	if len(c.liveIdx) != 0 {
		c.mu.Unlock()
		return errors.New("devsim: RebindMatching on a populated churn swarm")
	}
	c.deadIdx = c.deadIdx[:0]
	var bind []int
	for idx := range c.live {
		if keep(c.swarm.sensors[idx]) {
			c.live[idx] = true
			c.liveIdx = append(c.liveIdx, idx)
			c.churnedIn++
			bind = append(bind, idx)
		} else {
			c.live[idx] = false
			c.deadIdx = append(c.deadIdx, idx)
		}
	}
	c.mu.Unlock()
	for _, idx := range bind {
		if err := c.hooks.Bind(c.swarm.sensors[idx]); err != nil {
			return err
		}
	}
	return nil
}

// ChurnIn binds up to n currently-dead sensors (oldest death first) and
// returns how many were bound.
func (c *ChurnSwarm) ChurnIn(n int) error {
	for i := 0; i < n; i++ {
		c.mu.Lock()
		if len(c.deadIdx) == 0 {
			c.mu.Unlock()
			return nil
		}
		idx := c.deadIdx[0]
		c.deadIdx = c.deadIdx[1:]
		c.live[idx] = true
		c.liveIdx = append(c.liveIdx, idx)
		c.churnedIn++
		c.mu.Unlock()
		if err := c.hooks.Bind(c.swarm.sensors[idx]); err != nil {
			return err
		}
	}
	return nil
}

// ChurnOut unbinds up to n live sensors (oldest bind first).
func (c *ChurnSwarm) ChurnOut(n int) error {
	for i := 0; i < n; i++ {
		c.mu.Lock()
		if len(c.liveIdx) == 0 {
			c.mu.Unlock()
			return nil
		}
		idx := c.liveIdx[0]
		c.liveIdx = c.liveIdx[1:]
		c.live[idx] = false
		c.deadIdx = append(c.deadIdx, idx)
		c.churnedOut++
		c.mu.Unlock()
		if err := c.hooks.Unbind(c.swarm.sensors[idx].ID()); err != nil {
			return err
		}
	}
	return nil
}

// Churn rotates n sensors out (oldest first) and n back in, keeping the
// population size constant — one churn step of the storm workload. Sensors
// leave by unbind only: a registration has no lease to lapse, so viaLease
// true is refused.
func (c *ChurnSwarm) Churn(n int, viaLease bool) error {
	if viaLease {
		return errors.New("devsim: churn via lease lapse is not supported; sensors leave by unbind")
	}
	if err := c.ChurnOut(n); err != nil {
		return err
	}
	return c.ChurnIn(n)
}

// StormLive flips n intended-live sensors round-robin. Readings accepted by
// an attached consumer are added to the expected-delivery ground truth.
func (c *ChurnSwarm) StormLive(n int) int {
	now := c.swarm.clock.Now()
	accepted := 0
	for i := 0; i < n; i++ {
		c.mu.Lock()
		if len(c.liveIdx) == 0 {
			c.mu.Unlock()
			break
		}
		idx := c.liveIdx[c.stormPos%len(c.liveIdx)]
		c.stormPos++
		c.mu.Unlock()
		if c.swarm.flipAt(idx, now) {
			accepted++
		}
	}
	c.mu.Lock()
	c.expected += uint64(accepted)
	c.mu.Unlock()
	return accepted
}

// StormDead flips up to n intended-dead sensors. Once the runtime has
// settled, none of these readings may be accepted: any acceptance means a
// stale attachment survived the sensor's departure. Accepted readings are
// recorded as forbidden and returned.
func (c *ChurnSwarm) StormDead(n int) int {
	now := c.swarm.clock.Now()
	c.mu.Lock()
	idxs := make([]int, 0, n)
	for i := 0; i < len(c.deadIdx) && len(idxs) < n; i++ {
		idxs = append(idxs, c.deadIdx[i])
	}
	c.mu.Unlock()
	accepted := 0
	for _, idx := range idxs {
		if c.swarm.flipAt(idx, now) {
			accepted++
		}
	}
	if accepted > 0 {
		c.mu.Lock()
		c.forbidden += uint64(accepted)
		c.mu.Unlock()
	}
	return accepted
}

// Settled reports whether the hosting runtime's attachments match the
// intended fleet: every live sensor attached, every dead one detached.
func (c *ChurnSwarm) Settled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for idx, want := range c.live {
		if c.swarm.Attached(idx) != want {
			return false
		}
	}
	return true
}

// LiveCount reports the intended-live population size.
func (c *ChurnSwarm) LiveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.liveIdx)
}

// Expected returns the ground-truth delivery count: readings accepted from
// intended-live sensors, each of which must reach the context exactly once
// (given lossless bus policies and an unexhausted ingestion budget).
func (c *ChurnSwarm) Expected() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.expected
}

// Forbidden returns how many readings were accepted from intended-dead
// sensors — nonzero after settling indicates a stale attachment leak.
func (c *ChurnSwarm) Forbidden() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.forbidden
}

// Churned reports the total sensors churned in and out so far.
func (c *ChurnSwarm) Churned() (in, out uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.churnedIn, c.churnedOut
}
