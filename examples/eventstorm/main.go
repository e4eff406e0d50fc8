// Command eventstorm is the push-path counterpart of examples/swarm: a
// large population of presence sensors delivering event-driven readings
// (`when provided`) through the sharded ingestion pipeline while a churn
// loop rotates a fraction of the fleet out and back in every round.
//
// The scenario cross-checks delivered counts against the swarm's ground
// truth: every reading accepted from an intended-live sensor must either
// reach the context exactly once or be accounted for by the ingestion
// pipeline's drop counters (delivered + budget drops + deadline drops ==
// accepted, exactly), and — once attachments have settled after a churn
// step — readings emitted by churned-out sensors must not be accepted at
// all (a nonzero count means a stale attachment survived the departure).
//
// Run it with:
//
//	go run ./examples/eventstorm -sensors 50000 -churn 0.10 -rounds 5
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// design is the storm application: one context consuming every presence
// change event-driven; the context keeps internal state only (`no publish`),
// so the measured path is exactly device → ingestion → bus → handler.
const design = `
device PresenceSensor {
	attribute lot as String;
	source presence as Boolean;
}

context OccupancyChange as Boolean {
	when provided presence from PresenceSensor
	no publish;
}
`

// counter counts deliveries; the cross-check compares it to the swarm's
// accepted-reading ground truth.
type counter struct {
	n atomic.Uint64
}

func (c *counter) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	c.n.Add(1)
	return nil, false, nil
}

func main() {
	sensors := flag.Int("sensors", 50000, "population size")
	lots := flag.Int("lots", 100, "number of parking lots")
	churn := flag.Float64("churn", 0.10, "fraction of the fleet churned per round")
	rounds := flag.Int("rounds", 5, "storm+churn rounds to run")
	burst := flag.Int("burst", 2, "event bursts (one per live sensor) per round")
	flag.Parse()
	if err := run(*sensors, *lots, *churn, *rounds, *burst); err != nil {
		fmt.Fprintln(os.Stderr, "eventstorm:", err)
		os.Exit(1)
	}
}

func run(sensors, lots int, churnFrac float64, rounds, burst int) error {
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC))
	model, err := dsl.Load(design)
	if err != nil {
		return err
	}
	rt := runtime.New(model, runtime.WithClock(vc))
	defer rt.Stop()

	lotNames := make([]string, lots)
	for i := range lotNames {
		lotNames[i] = fmt.Sprintf("L%03d", i)
	}
	swarm := devsim.NewSwarm(devsim.SwarmConfig{
		Sensors:   sensors,
		Lots:      lotNames,
		GroupAttr: "lot",
		Seed:      7,
	}, vc)
	cs, err := devsim.NewChurnSwarm(swarm, devsim.ChurnHooks{
		Bind:   func(s *devsim.SwarmSensor) error { return rt.BindDevice(s) },
		Unbind: rt.UnbindDevice,
	})
	if err != nil {
		return err
	}

	delivered := &counter{}
	if err := rt.ImplementContext("OccupancyChange", delivered); err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}

	bindStart := time.Now()
	if err := cs.BindAll(); err != nil {
		return err
	}
	if err := settle(cs); err != nil {
		return err
	}
	fmt.Printf("bound and attached %d sensors in %v\n",
		swarm.Size(), time.Since(bindStart).Round(time.Millisecond))

	for r := 1; r <= rounds; r++ {
		wall := time.Now()
		accepted := 0
		for b := 0; b < burst; b++ {
			accepted += cs.StormLive(cs.LiveCount())
		}
		if err := waitDelivered(rt, delivered, cs.Expected()); err != nil {
			return err
		}
		elapsed := time.Since(wall)
		fmt.Printf("round %d: %d events delivered in %v (%.0f events/sec)\n",
			r, accepted, elapsed.Round(time.Millisecond),
			float64(accepted)/elapsed.Seconds())

		// Churn a fraction of the fleet, wait for attachments to settle,
		// then prove the departed sensors are really detached: their
		// emissions must not be accepted anywhere.
		n := int(churnFrac * float64(cs.LiveCount()))
		if err := cs.Churn(n, false); err != nil {
			return err
		}
		if err := settle(cs); err != nil {
			return err
		}
		if stale := cs.StormDead(n); stale != 0 {
			return fmt.Errorf("round %d: %d readings accepted from churned-out sensors (stale attachments)", r, stale)
		}
	}

	// Final cross-check: ground truth vs handler count plus accounted
	// drops, exactly.
	if err := waitDelivered(rt, delivered, cs.Expected()); err != nil {
		return err
	}
	st := rt.Stats()
	got, want := delivered.n.Load(), cs.Expected()
	accounted := got + st.Drops()
	ok := "OK"
	if accounted != want || cs.Forbidden() != 0 {
		ok = "MISMATCH"
	}
	in, out := cs.Churned()
	fmt.Printf("cross-check %s: delivered %d + dropped %d = %d, ground truth %d, forbidden %d (churned in %d / out %d)\n",
		ok, got, st.Drops(), accounted, want, cs.Forbidden(), in, out)
	fmt.Printf("ingest: %d events in %d batches (%.1f events/batch), %d budget drops, %d deadline drops, %d reconciles\n",
		st.IngestEvents, st.IngestBatches,
		float64(st.IngestEvents)/float64(max64(st.IngestBatches, 1)),
		st.IngestBudgetDrops, st.IngestDeadlineDrops, st.TrackerReconciles)
	if ok != "OK" {
		return fmt.Errorf("delivered counts diverged from ground truth")
	}
	return nil
}

// settle waits until the runtime's attachments match the intended fleet.
func settle(cs *devsim.ChurnSwarm) error {
	deadline := time.Now().Add(30 * time.Second)
	for !cs.Settled() {
		if time.Now().After(deadline) {
			return fmt.Errorf("attachments did not settle within 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// waitDelivered waits until every accepted reading is accounted for:
// delivered plus the app's drop ledger must reach want, and reaching
// past it means duplicated or stale delivery, which fails immediately.
func waitDelivered(rt *runtime.Runtime, c *counter, want uint64) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := rt.Stats()
		got := c.n.Load()
		accounted := got + st.Drops()
		if accounted == want {
			return nil
		}
		if accounted > want {
			return fmt.Errorf("accounted for %d readings (%d delivered), ground truth %d (duplicate or stale delivery)", accounted, got, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stalled at %d/%d accounted deliveries (budget drops %d)", accounted, want, st.IngestBudgetDrops)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
