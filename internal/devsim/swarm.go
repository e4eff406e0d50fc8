package devsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/registry"
	"repro/internal/simclock"
)

// SwarmConfig shapes a large-scale simulated sensor population — the
// paper's "large populations of devices" taken to its DiaSwarm scale
// (tens of thousands of presence sensors reporting into one city-wide
// computation).
type SwarmConfig struct {
	// Sensors is the total population size.
	Sensors int
	// Lots lists the group-attribute values; sensors spread round-robin.
	Lots []string
	// Kind is the device taxonomy type. Default "PresenceSensor".
	Kind string
	// Source is the boolean occupancy source name. Default "presence".
	Source string
	// GroupAttr is the grouping attribute name. Default "parkingLot".
	GroupAttr string
	// BaseOccupancy is the overnight occupancy fraction in [0, 1].
	// Default 0.20.
	BaseOccupancy float64
	// PeakOccupancy is the midday occupancy fraction in [0, 1].
	// Default 0.85.
	PeakOccupancy float64
	// TurnoverRate is the per-hour probability that an individual space
	// changes state toward the target occupancy. Default 0.6.
	TurnoverRate float64
	// Seed makes the swarm deterministic.
	Seed int64
}

func (c SwarmConfig) withDefaults() SwarmConfig {
	if c.Kind == "" {
		c.Kind = "PresenceSensor"
	}
	if c.Source == "" {
		c.Source = "presence"
	}
	if c.GroupAttr == "" {
		c.GroupAttr = "parkingLot"
	}
	if c.BaseOccupancy == 0 {
		c.BaseOccupancy = 0.20
	}
	if c.PeakOccupancy == 0 {
		c.PeakOccupancy = 0.85
	}
	if c.TurnoverRate == 0 {
		c.TurnoverRate = 0.6
	}
	return c
}

// Swarm is a fleet of simulated occupancy sensors sized for scale
// experiments: per-sensor state lives in one shared table instead of one
// device.Base (map + mutex) per sensor, so 50k sensors cost a few MB and
// binding them stays fast. Sensors implement device.Driver and serve all
// three delivery modes; state only changes when Step is called, keeping
// virtual-time experiments reproducible.
type Swarm struct {
	cfg   SwarmConfig
	clock simclock.Clock

	// mu guards the model state (rng, lastStep, flipCursor). Per-space
	// occupancy is atomic so the periodic-gather hot path — 50k queries
	// per round — never touches a shared lock.
	mu          sync.Mutex
	rng         *rand.Rand
	occupied    []atomic.Bool
	lastStep    time.Time
	flipCursor  int
	deltaCursor int // lot-major cursor of DeltaRound

	// subMu guards the push-sink COW updates and the attachment counters.
	// The emission hot path reads push sinks through an atomic pointer and
	// never takes subMu, so an event storm takes no swarm-wide lock per
	// event.
	subMu        sync.Mutex
	pushSinks    []atomic.Pointer[[]*swarmPushEntry]
	attachCounts []atomic.Int32
	attached     atomic.Int64 // sensors with >=1 consumer attached

	sensors []*SwarmSensor
}

// NewSwarm builds the population. Sensors are initialized at the model's
// base occupancy.
func NewSwarm(cfg SwarmConfig, clock simclock.Clock) *Swarm {
	cfg = cfg.withDefaults()
	if len(cfg.Lots) == 0 {
		cfg.Lots = []string{"L00"}
	}
	s := &Swarm{
		cfg:          cfg,
		clock:        clock,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		occupied:     make([]atomic.Bool, cfg.Sensors),
		lastStep:     clock.Now(),
		pushSinks:    make([]atomic.Pointer[[]*swarmPushEntry], cfg.Sensors),
		attachCounts: make([]atomic.Int32, cfg.Sensors),
		sensors:      make([]*SwarmSensor, cfg.Sensors),
	}
	for i := 0; i < cfg.Sensors; i++ {
		lot := cfg.Lots[i%len(cfg.Lots)]
		s.sensors[i] = &SwarmSensor{
			swarm: s,
			idx:   i,
			id:    fmt.Sprintf("sw-%s-%06d", lot, i),
			lot:   lot,
		}
		s.occupied[i].Store(s.rng.Float64() < cfg.BaseOccupancy)
	}
	return s
}

// Sensors returns the population's drivers for binding.
func (s *Swarm) Sensors() []*SwarmSensor { return s.sensors }

// Size returns the number of sensors.
func (s *Swarm) Size() int { return len(s.sensors) }

// Lots returns the configured group-attribute values.
func (s *Swarm) Lots() []string { return append([]string(nil), s.cfg.Lots...) }

// targetOccupancy returns the diurnal occupancy target for a wall-clock
// hour, peaking at 13:00 (same model as ParkingFleet).
func (s *Swarm) targetOccupancy(at time.Time) float64 {
	h := float64(at.Hour()) + float64(at.Minute())/60
	phase := (h - 13) / 12 * math.Pi
	day := math.Max(0, math.Cos(phase))
	return s.cfg.BaseOccupancy + (s.cfg.PeakOccupancy-s.cfg.BaseOccupancy)*day
}

// Step advances the occupancy model to the clock's current time: each space
// flips toward the diurnal target with probability proportional to the
// elapsed time and the turnover rate. Sensors with event-driven subscribers
// emit a reading when their state changes.
func (s *Swarm) Step() {
	now := s.clock.Now()
	s.mu.Lock()
	elapsed := now.Sub(s.lastStep)
	if elapsed <= 0 {
		s.mu.Unlock()
		return
	}
	s.lastStep = now
	target := s.targetOccupancy(now)
	pFlip := s.cfg.TurnoverRate * elapsed.Hours()
	if pFlip > 1 {
		pFlip = 1
	}
	type change struct {
		idx int
		now bool
	}
	var changes []change
	for i := range s.occupied {
		if s.rng.Float64() > pFlip {
			continue
		}
		next := s.rng.Float64() < target
		if next != s.occupied[i].Load() {
			changes = append(changes, change{idx: i, now: next})
		}
		s.occupied[i].Store(next)
	}
	s.mu.Unlock()
	for _, c := range changes {
		s.emit(c.idx, c.now, now)
	}
}

// VacantPerLot reports the current number of free spaces per lot — the
// ground truth a vacancy context over the swarm should reproduce.
func (s *Swarm) VacantPerLot() map[string]int {
	out := make(map[string]int, len(s.cfg.Lots))
	for _, lot := range s.cfg.Lots {
		out[lot] = 0
	}
	for i := range s.occupied {
		if !s.occupied[i].Load() {
			out[s.cfg.Lots[i%len(s.cfg.Lots)]]++
		}
	}
	return out
}

// SetOccupied overrides one sensor's state; for tests that need exact
// scenarios.
func (s *Swarm) SetOccupied(sensorIdx int, occupied bool) {
	s.occupied[sensorIdx].Store(occupied)
}

// emit delivers one state-change reading to the sensor's attached sinks and
// reports whether at least one accepted it. Sinks are read through an atomic
// pointer (no lock).
func (s *Swarm) emit(idx int, value bool, at time.Time) bool {
	entries := s.pushSinks[idx].Load()
	if entries == nil || len(*entries) == 0 {
		return false
	}
	r := device.Reading{
		DeviceID: s.sensors[idx].id,
		Source:   s.cfg.Source,
		Value:    value,
		Time:     at,
	}
	for _, e := range *entries {
		e.sink.Push(r)
	}
	return true
}

// Flip toggles one sensor's occupancy and emits the change, reporting
// whether an attached consumer accepted the reading — the unit step of
// event-storm and churn workloads, whose ground truth is the sum of
// accepted readings.
func (s *Swarm) Flip(idx int) bool {
	return s.flipAt(idx, s.clock.Now())
}

func (s *Swarm) flipAt(idx int, at time.Time) bool {
	next := !s.occupied[idx].Load()
	s.occupied[idx].Store(next)
	return s.emit(idx, next, at)
}

// DeltaRound is the delta-generating swarm mode behind incremental
// aggregation experiments: it flips exactly ⌈fraction·population⌉ sensors
// and returns how many changed, so a periodic poller over the swarm
// observes exactly that fraction of readings changed per round — the knob
// BenchmarkSwarm_IncrementalAgg turns from 1% to 100% (the gather.agg
// benchmark workload runs it at 10%). Unlike FlipBurst's round-robin (which spreads a burst over every
// lot), DeltaRound walks the fleet lot-major from a persistent cursor:
// successive rounds churn through whole lots one after another, the
// spatially clustered change pattern (a district fills up while others
// stand still) that grouped delta processing exists for — at a 1% change
// rate only ~1% of groups go dirty.
func (s *Swarm) DeltaRound(fraction float64) int {
	if fraction <= 0 || len(s.sensors) == 0 {
		return 0
	}
	n := int(math.Ceil(fraction * float64(len(s.sensors))))
	if n > len(s.sensors) {
		n = len(s.sensors)
	}
	total := len(s.sensors)
	lots := len(s.cfg.Lots)
	perLot := (total + lots - 1) / lots
	grid := perLot * lots
	// Select the indices under the cursor lock, advancing the cursor by
	// every position consumed — including skipped ragged-tail positions of
	// a population not divisible by the lot count — so successive rounds
	// stay disjoint; flips run outside the lock.
	s.mu.Lock()
	p := s.deltaCursor
	idxs := make([]int, 0, n)
	for len(idxs) < n {
		pos := p % grid
		// Lot-major enumeration: all of lot 0's sensors first, then lot
		// 1's, … Sensor idx belongs to lot idx%lots, so lot l's k-th
		// sensor sits at k*lots+l.
		idx := (pos%perLot)*lots + pos/perLot
		if idx < total {
			idxs = append(idxs, idx)
		}
		p++
	}
	s.deltaCursor = p % grid
	s.mu.Unlock()
	now := s.clock.Now()
	for _, idx := range idxs {
		s.flipAt(idx, now)
	}
	return len(idxs)
}

// FlipBurst toggles n sensors round-robin across the whole population and
// returns how many of the emitted readings were accepted by an attached
// consumer.
func (s *Swarm) FlipBurst(n int) int {
	if len(s.sensors) == 0 {
		return 0
	}
	s.mu.Lock()
	start := s.flipCursor
	s.flipCursor = (s.flipCursor + n) % len(s.sensors)
	s.mu.Unlock()
	now := s.clock.Now()
	accepted := 0
	for i := 0; i < n; i++ {
		if s.flipAt((start+i)%len(s.sensors), now) {
			accepted++
		}
	}
	return accepted
}

// Attached reports whether the sensor currently has at least one attached
// sink.
func (s *Swarm) Attached(idx int) bool { return s.attachCounts[idx].Load() > 0 }

// AttachedCount reports how many sensors currently have at least one
// attached consumer — the settling signal for churn scenarios (a churned-in
// sensor is live once attached, a churned-out one quiesced once detached).
func (s *Swarm) AttachedCount() int { return int(s.attached.Load()) }

// noteAttachLocked adjusts the attachment counters; callers hold subMu.
func (s *Swarm) noteAttachLocked(idx int, delta int32) {
	if n := s.attachCounts[idx].Add(delta); n == 0 && delta < 0 {
		s.attached.Add(-1)
	} else if n == delta && delta > 0 {
		s.attached.Add(1)
	}
}

// swarmPushEntry is one push-sink attachment of one sensor; entries are
// stored in copy-on-write slices so emission reads them lock-free.
type swarmPushEntry struct {
	sink device.Sink
}

// SwarmSensor is one simulated occupancy sensor. It implements
// device.Driver against the swarm's shared state table.
type SwarmSensor struct {
	swarm *Swarm
	idx   int
	id    string
	lot   string
}

// ID implements device.Driver.
func (d *SwarmSensor) ID() string { return d.id }

// Kind implements device.Driver.
func (d *SwarmSensor) Kind() string { return d.swarm.cfg.Kind }

// Kinds implements device.Driver.
func (d *SwarmSensor) Kinds() []string { return []string{d.swarm.cfg.Kind} }

// Attributes implements device.Driver.
func (d *SwarmSensor) Attributes() registry.Attributes {
	return registry.Attributes{d.swarm.cfg.GroupAttr: d.lot}
}

// Query implements device.Driver (query-driven and periodic delivery).
func (d *SwarmSensor) Query(source string) (any, error) {
	if source != d.swarm.cfg.Source {
		return nil, fmt.Errorf("%w: %s.%s", device.ErrUnknownSource, d.id, source)
	}
	return d.swarm.occupied[d.idx].Load(), nil
}

// Querier implements device.SnapshotQuerier: the returned function reads the
// sensor's occupancy slot directly, so a snapshot-cached poller skips the
// per-call source check entirely.
func (d *SwarmSensor) Querier(source string) (device.QueryFunc, error) {
	if source != d.swarm.cfg.Source {
		return nil, fmt.Errorf("%w: %s.%s", device.ErrUnknownSource, d.id, source)
	}
	slot := &d.swarm.occupied[d.idx]
	return func() (any, error) { return slot.Load(), nil }, nil
}

// SubscribePush implements device.Driver (event-driven delivery): state
// changes are pushed straight into the sink as Step or a flip advances the
// model, with no per-sensor channel or goroutine. The returned cancel is
// idempotent; an emission concurrently in flight on another goroutine may
// still complete after cancel returns (the emitter observed the sink
// attached and its reading counts as accepted), but no new push begins.
func (d *SwarmSensor) SubscribePush(source string, sink device.Sink) (func(), error) {
	if source != d.swarm.cfg.Source {
		return nil, fmt.Errorf("%w: %s.%s", device.ErrUnknownSource, d.id, source)
	}
	s := d.swarm
	entry := &swarmPushEntry{sink: sink}
	s.subMu.Lock()
	var next []*swarmPushEntry
	if cur := s.pushSinks[d.idx].Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, entry)
	s.pushSinks[d.idx].Store(&next)
	s.noteAttachLocked(d.idx, 1)
	s.subMu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			s.subMu.Lock()
			defer s.subMu.Unlock()
			cur := s.pushSinks[d.idx].Load()
			if cur == nil {
				return
			}
			kept := make([]*swarmPushEntry, 0, len(*cur)-1)
			for _, e := range *cur {
				if e != entry {
					kept = append(kept, e)
				}
			}
			if len(kept) == 0 {
				s.pushSinks[d.idx].Store(nil)
			} else {
				s.pushSinks[d.idx].Store(&kept)
			}
			s.noteAttachLocked(d.idx, -1)
		})
	}
	return cancel, nil
}

// Invoke implements device.Driver; sensors have no actions.
func (d *SwarmSensor) Invoke(action string, args ...any) error {
	return fmt.Errorf("%w: %s.%s", device.ErrUnknownAction, d.id, action)
}
