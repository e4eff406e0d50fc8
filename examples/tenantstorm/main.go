// Command tenantstorm is the multi-tenant host's storm scenario: N
// independent DiaSpec apps deployed onto one runtime.Host, sharing one
// registry, bus and device fleet, each with its own per-tenant ingestion
// budget and stats namespace. The storm proves the isolation contract:
//
//   - per-tenant exactness — every tenant's delivered + dropped counts
//     equal its swarm's accepted-reading ground truth, exactly;
//   - noisy-neighbor containment — one tenant saturating its (tiny)
//     ingest budget drops only its own events, while every other tenant
//     delivers everything with zero drops;
//   - hot deploy — an observer app deployed mid-storm onto tenant 0's
//     device kind starts receiving from the already-bound shared fleet,
//     and neither its arrival nor its later undeploy costs any
//     pre-existing tenant a single event;
//   - churn safety — sensors churned out of the shared fleet detach from
//     every tenant (no stale deliveries after settling).
//
// Run it with:
//
//	go run ./examples/tenantstorm -apps 1000 -devices-per 50 -rounds 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/devsim"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// tenantDesign is one tenant's app over its own slice of the shared
// fleet: an event-driven context with internal state only (`no publish`),
// so the measured path is device → shared ingestion substrate → per-app
// bus topics → handler.
func tenantDesign(kind string) string {
	return fmt.Sprintf(`
device %[1]s {
	attribute lot as String;
	source presence as Boolean;
}

context Occupancy as Boolean {
	when provided presence from %[1]s
	no publish;
}
`, kind)
}

// observerDesign rides on tenant 0's device kind: hot-deploying it proves
// a second app can consume the same already-bound devices.
func observerDesign(kind string) string {
	return fmt.Sprintf(`
device %[1]s {
	attribute lot as String;
	source presence as Boolean;
}

context Watch as Boolean {
	when provided presence from %[1]s
	no publish;
}
`, kind)
}

// counter counts deliveries; busy additionally burns time per event to
// keep the saturated tenant's pipeline backed up against its budget.
type counter struct {
	n    atomic.Uint64
	busy time.Duration
}

func (c *counter) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	if c.busy > 0 {
		time.Sleep(c.busy)
	}
	c.n.Add(1)
	return nil, false, nil
}

// tenant is one deployed app plus its slice of the shared fleet.
type tenant struct {
	id        string
	kind      string
	rt        *runtime.Runtime
	delivered *counter
	cs        *devsim.ChurnSwarm
	saturated bool
}

func main() {
	apps := flag.Int("apps", 1000, "number of tenant apps")
	devicesPer := flag.Int("devices-per", 50, "devices bound per tenant")
	rounds := flag.Int("rounds", 3, "storm rounds")
	burst := flag.Int("burst", 1, "event bursts (one per live sensor) per round")
	satBurst := flag.Int("sat-burst", 30, "extra bursts aimed at the saturated tenant per round")
	metricsAddr := flag.String("metrics", "", "Prometheus /metrics listen address (empty = disabled)")
	flag.Parse()
	if err := run(*apps, *devicesPer, *rounds, *burst, *satBurst, *metricsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "tenantstorm:", err)
		os.Exit(1)
	}
}

func run(apps, devicesPer, rounds, burst, satBurst int, metricsAddr string) error {
	if apps < 1 || devicesPer < 1 || rounds < 1 {
		return errors.New("need at least one app, one device and one round")
	}
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC))
	host, err := runtime.NewHost(runtime.SubstrateConfig{Clock: vc, MetricsAddr: metricsAddr})
	if err != nil {
		return err
	}
	defer host.Close()
	if ma := host.MetricsAddr(); ma != "" {
		fmt.Printf("metrics on http://%s/metrics\n", ma)
	}

	// The saturated tenant (index 1 when present) gets a deliberately tiny
	// ingest budget and a slow handler: its drops are the point.
	satIdx := -1
	if apps >= 2 {
		satIdx = 1
	}
	deployStart := time.Now()
	tenants := make([]*tenant, apps)
	for i := range tenants {
		tn := &tenant{
			id:        fmt.Sprintf("t%d", i),
			kind:      fmt.Sprintf("PresenceSensor_t%d", i),
			delivered: &counter{},
			saturated: i == satIdx,
		}
		cfg := runtime.AppConfig{
			Contexts: map[string]runtime.ContextHandler{"Occupancy": tn.delivered},
			Ingest:   runtime.IngestConfig{Shards: 2},
		}
		if tn.saturated {
			tn.delivered.busy = 50 * time.Microsecond
			cfg.Ingest = runtime.IngestConfig{Shards: 1, Budget: 64, MaxBatch: 16}
		}
		rt, err := host.DeploySource(tn.id, tenantDesign(tn.kind), cfg)
		if err != nil {
			return err
		}
		tn.rt = rt
		tenants[i] = tn
	}
	fmt.Printf("deployed %d apps in %v\n", apps, time.Since(deployStart).Round(time.Millisecond))

	// Bind each tenant's slice of the shared fleet through the host.
	bindStart := time.Now()
	for i, tn := range tenants {
		swarm := devsim.NewSwarm(devsim.SwarmConfig{
			Sensors:   devicesPer,
			Lots:      []string{fmt.Sprintf("%s-L0", tn.id), fmt.Sprintf("%s-L1", tn.id)},
			Kind:      tn.kind,
			GroupAttr: "lot",
			Seed:      int64(i + 1),
		}, vc)
		cs, err := devsim.NewChurnSwarm(swarm, devsim.ChurnHooks{
			Bind:   func(s *devsim.SwarmSensor) error { return host.BindDevice(s) },
			Unbind: host.UnbindDevice,
		})
		if err != nil {
			return err
		}
		if err := cs.BindAll(); err != nil {
			return err
		}
		tn.cs = cs
	}
	for _, tn := range tenants {
		if err := settle(tn.cs); err != nil {
			return fmt.Errorf("tenant %s: %w", tn.id, err)
		}
	}
	fmt.Printf("bound and attached %d devices (%d tenants x %d) in %v\n",
		apps*devicesPer, apps, devicesPer, time.Since(bindStart).Round(time.Millisecond))

	// The churn tenant (last app, when distinct from the special ones)
	// rotates part of its fleet out and back every round.
	churnIdx := -1
	if apps >= 4 {
		churnIdx = apps - 1
	}

	observer := &counter{}
	observerUp := false
	for r := 1; r <= rounds; r++ {
		wall := time.Now()

		// Hot deploy mid-storm: the observer arrives on tenant 0's kind
		// before round 2's storm (and, given enough rounds, leaves before
		// the final one). Waiting for its attachments makes the "observer
		// received events" check deterministic: tenant 0's sensors each
		// carry a second attachment once the observer's tracker lands.
		if r == 2 || (r == 1 && rounds == 1) {
			if _, err := host.DeploySource("observer", observerDesign(tenants[0].kind), runtime.AppConfig{
				Contexts: map[string]runtime.ContextHandler{"Watch": observer},
				Ingest:   runtime.IngestConfig{Shards: 2},
			}); err != nil {
				return err
			}
			if _, err := host.DeploySource(tenants[0].id, tenantDesign(tenants[0].kind), runtime.AppConfig{AutoImplement: true}); !errors.Is(err, runtime.ErrAppExists) {
				return fmt.Errorf("duplicate deploy of %s: got %v, want ErrAppExists", tenants[0].id, err)
			}
			// The observer's tracker attaches asynchronously; probe
			// tenant 0 until the first event lands. Probe flips are
			// ordinary accepted readings, so they stay inside tenant 0's
			// exact ground truth.
			if err := settleObserver(tenants[0].cs, observer); err != nil {
				return err
			}
			observerUp = true
		}
		if r == rounds && r > 2 && observerUp {
			if err := host.Undeploy("observer"); err != nil {
				return err
			}
			observerUp = false
		}

		accepted := 0
		for b := 0; b < burst; b++ {
			for _, tn := range tenants {
				accepted += tn.cs.StormLive(tn.cs.LiveCount())
			}
		}
		// Hammer the saturated tenant far past its budget while everyone
		// else runs at the normal rate: its slow handler backs the shared
		// bus subscription up, its tiny budget overflows, and its drops
		// must stay its own.
		if satIdx >= 0 {
			sat := tenants[satIdx]
			for b := 0; b < satBurst; b++ {
				accepted += sat.cs.StormLive(sat.cs.LiveCount())
			}
		}

		if churnIdx >= 0 {
			tn := tenants[churnIdx]
			n := tn.cs.LiveCount() / 5
			if n > 0 {
				if err := tn.cs.Churn(n, false); err != nil {
					return err
				}
				if err := settle(tn.cs); err != nil {
					return err
				}
				if stale := tn.cs.StormDead(n); stale != 0 {
					return fmt.Errorf("round %d: %d readings accepted from churned-out sensors", r, stale)
				}
			}
		}

		fmt.Printf("round %d: %d events accepted across %d tenants in %v (observer %s)\n",
			r, accepted, apps, time.Since(wall).Round(time.Millisecond), observerState(observerUp))
	}

	// Hot undeploy after the storm when the observer is still up (short
	// runs): the drain must not disturb anyone's accounting either.
	if observerUp {
		if err := host.Undeploy("observer"); err != nil {
			return err
		}
	}

	// Final cross-check: every tenant accounts exactly for its ground
	// truth, and only the saturated tenant is allowed (expected!) to drop.
	var delivered, dropped, truth uint64
	var satDrops uint64
	for _, tn := range tenants {
		want := tn.cs.Expected()
		if err := waitTenant(tn, want); err != nil {
			return err
		}
		drops := tn.rt.Stats().Drops()
		if !tn.saturated && drops != 0 {
			return fmt.Errorf("tenant %s dropped %d events without saturation", tn.id, drops)
		}
		if tn.cs.Forbidden() != 0 {
			return fmt.Errorf("tenant %s accepted %d readings from churned-out sensors", tn.id, tn.cs.Forbidden())
		}
		if tn.saturated {
			satDrops = drops
		}
		delivered += tn.delivered.n.Load()
		dropped += drops
		truth += want
	}
	ok := "OK"
	if delivered+dropped != truth {
		ok = "MISMATCH"
	}
	fmt.Printf("cross-check %s: delivered %d + dropped %d = %d, ground truth %d across %d tenants\n",
		ok, delivered, dropped, delivered+dropped, truth, apps)
	if satIdx >= 0 {
		fmt.Printf("saturated tenant %s: %d budget drops contained (no other tenant dropped)\n",
			tenants[satIdx].id, satDrops)
	}
	fmt.Printf("hot deploy: observer received %d events from tenant %s's shared devices\n",
		observer.n.Load(), tenants[0].id)
	hs := host.Stats()
	fmt.Printf("host: %d apps, bus published %d / delivered %d, unrouted federation drops %d\n",
		len(hs.Apps), hs.Bus.Published, hs.Bus.Delivered, hs.UnroutedFederationDrops)
	if ok != "OK" {
		return errors.New("per-tenant accounting diverged from ground truth")
	}
	if observer.n.Load() == 0 {
		return errors.New("hot-deployed observer never received an event from the shared fleet")
	}
	return nil
}

func observerState(up bool) string {
	if up {
		return "up"
	}
	return "down"
}

// settleObserver probes the observed tenant's swarm until the freshly
// deployed observer app receives its first event, proving its tracker
// attached to the shared, already-bound devices.
func settleObserver(cs *devsim.ChurnSwarm, observer *counter) error {
	deadline := time.Now().Add(60 * time.Second)
	for observer.n.Load() == 0 {
		if time.Now().After(deadline) {
			return errors.New("observer attachments did not settle within 60s")
		}
		cs.StormLive(cs.LiveCount())
		time.Sleep(time.Millisecond)
	}
	return nil
}

// settle waits until a tenant's attachments match its intended fleet.
func settle(cs *devsim.ChurnSwarm) error {
	deadline := time.Now().Add(60 * time.Second)
	for !cs.Settled() {
		if time.Now().After(deadline) {
			return errors.New("attachments did not settle within 60s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// waitTenant waits until one tenant's accounting is exact: delivered plus
// its own drop ledger reach the tenant's ground truth — overshoot means
// duplicated or cross-tenant delivery and fails immediately.
func waitTenant(tn *tenant, want uint64) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		got := tn.delivered.n.Load()
		accounted := got + tn.rt.Stats().Drops()
		if accounted == want {
			return nil
		}
		if accounted > want {
			return fmt.Errorf("tenant %s accounted for %d readings (%d delivered), ground truth %d (duplicate or cross-tenant delivery)",
				tn.id, accounted, got, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tenant %s stalled at %d/%d accounted deliveries", tn.id, accounted, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
