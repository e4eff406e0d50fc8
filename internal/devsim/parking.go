package devsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/registry"
	"repro/internal/simclock"
)

// ParkingModelConfig shapes the synthetic city parking workload.
type ParkingModelConfig struct {
	// Lots lists the parking lot identifiers (the paper's
	// ParkingLotEnum values).
	Lots []string
	// SpacesPerLot is the sensor count per lot.
	SpacesPerLot int
	// BaseOccupancy is the overnight occupancy fraction in [0, 1].
	BaseOccupancy float64
	// PeakOccupancy is the midday occupancy fraction in [0, 1].
	PeakOccupancy float64
	// TurnoverRate is the per-hour probability that an individual space
	// changes state toward the target occupancy.
	TurnoverRate float64
	// Seed makes the fleet deterministic.
	Seed int64
}

// DefaultParkingModel returns the configuration used across examples and
// benches: five lots, diurnal 20%→85% occupancy swing.
func DefaultParkingModel(lots []string, spacesPerLot int, seed int64) ParkingModelConfig {
	return ParkingModelConfig{
		Lots:          lots,
		SpacesPerLot:  spacesPerLot,
		BaseOccupancy: 0.20,
		PeakOccupancy: 0.85,
		TurnoverRate:  0.6,
		Seed:          seed,
	}
}

// ParkingFleet is a fleet of simulated presence sensors following a diurnal
// occupancy model. State only changes when Step is called, so virtual-time
// experiments are perfectly reproducible.
type ParkingFleet struct {
	cfg   ParkingModelConfig
	clock simclock.Clock

	mu       sync.Mutex
	rng      *rand.Rand
	sensors  []*device.Base
	occupied []bool
	lastStep time.Time
}

// NewParkingFleet builds the sensor fleet. Sensors are initialized at the
// model's base occupancy.
func NewParkingFleet(cfg ParkingModelConfig, clock simclock.Clock) *ParkingFleet {
	f := &ParkingFleet{
		cfg:      cfg,
		clock:    clock,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		lastStep: clock.Now(),
	}
	n := len(cfg.Lots) * cfg.SpacesPerLot
	f.sensors = make([]*device.Base, 0, n)
	f.occupied = make([]bool, n)
	i := 0
	for _, lot := range cfg.Lots {
		for s := 0; s < cfg.SpacesPerLot; s++ {
			idx := i
			id := fmt.Sprintf("ps-%s-%04d", lot, s)
			b := device.NewBase(id, "PresenceSensor", nil,
				registry.Attributes{"parkingLot": lot}, clock.Now)
			b.OnQuery("presence", func() (any, error) {
				f.mu.Lock()
				defer f.mu.Unlock()
				return f.occupied[idx], nil
			})
			f.sensors = append(f.sensors, b)
			f.occupied[idx] = f.rng.Float64() < cfg.BaseOccupancy
			i++
		}
	}
	return f
}

// Sensors returns the fleet's drivers for binding.
func (f *ParkingFleet) Sensors() []*device.Base { return f.sensors }

// Size returns the number of sensors.
func (f *ParkingFleet) Size() int { return len(f.sensors) }

// targetOccupancy returns the diurnal occupancy target for a wall-clock
// hour, peaking at 13:00.
func (f *ParkingFleet) targetOccupancy(at time.Time) float64 {
	h := float64(at.Hour()) + float64(at.Minute())/60
	// Cosine bump centred on 13:00 with a 12-hour half-width.
	phase := (h - 13) / 12 * math.Pi
	day := math.Max(0, math.Cos(phase))
	return f.cfg.BaseOccupancy + (f.cfg.PeakOccupancy-f.cfg.BaseOccupancy)*day
}

// Step advances the occupancy model to the clock's current time: each space
// flips toward the diurnal target with probability proportional to the
// elapsed time and the turnover rate. Sensors whose state changed emit an
// event-driven `presence` reading, so fleets serve all three delivery modes
// (paper §III).
func (f *ParkingFleet) Step() {
	now := f.clock.Now()
	f.mu.Lock()
	elapsed := now.Sub(f.lastStep)
	if elapsed <= 0 {
		f.mu.Unlock()
		return
	}
	f.lastStep = now
	target := f.targetOccupancy(now)
	pFlip := f.cfg.TurnoverRate * elapsed.Hours()
	if pFlip > 1 {
		pFlip = 1
	}
	type change struct {
		idx int
		now bool
	}
	var changes []change
	for i := range f.occupied {
		if f.rng.Float64() > pFlip {
			continue
		}
		// Move toward the target: occupy with probability target.
		next := f.rng.Float64() < target
		if next != f.occupied[i] {
			changes = append(changes, change{idx: i, now: next})
		}
		f.occupied[i] = next
	}
	f.mu.Unlock()
	// Emit outside the lock: Emit pushes into the attached sinks.
	for _, c := range changes {
		f.sensors[c.idx].Emit("presence", c.now)
	}
}

// Occupancy reports the current occupied fraction per lot.
func (f *ParkingFleet) Occupancy() map[string]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	counts := make(map[string]int)
	occ := make(map[string]int)
	i := 0
	for _, lot := range f.cfg.Lots {
		for s := 0; s < f.cfg.SpacesPerLot; s++ {
			counts[lot]++
			if f.occupied[i] {
				occ[lot]++
			}
			i++
		}
	}
	out := make(map[string]float64, len(counts))
	for lot, n := range counts {
		out[lot] = float64(occ[lot]) / float64(n)
	}
	return out
}

// VacantPerLot reports the current number of free spaces per lot — the
// ground truth the ParkingAvailability context should reproduce.
func (f *ParkingFleet) VacantPerLot() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.cfg.Lots))
	i := 0
	for _, lot := range f.cfg.Lots {
		free := 0
		for s := 0; s < f.cfg.SpacesPerLot; s++ {
			if !f.occupied[i] {
				free++
			}
			i++
		}
		out[lot] = free
	}
	return out
}

// SetOccupied overrides one sensor's state; for tests that need exact
// scenarios.
func (f *ParkingFleet) SetOccupied(sensorIdx int, occupied bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.occupied[sensorIdx] = occupied
}
