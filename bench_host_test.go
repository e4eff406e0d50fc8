package repro_test

import (
	"fmt"
	stdruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/devsim"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// hostTenantDesign is one tenant app of the multi-tenant benchmark: an
// event-driven context over the tenant's own device kind, internal state
// only, so the measured path is shared fleet → per-tenant ingestion →
// shared bus → handler.
func hostTenantDesign(kind string) string {
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

type hostBenchCounter struct {
	n atomic.Uint64
}

func (c *hostBenchCounter) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	c.n.Add(1)
	return nil, false, nil
}

// BenchmarkHost_TenantStorm measures multi-tenant event throughput: N
// apps on one Host, each tenant storming its own slice of the shared
// fleet, one reported op = one delivered event across all tenants.
func BenchmarkHost_TenantStorm(b *testing.B) {
	const tenants = 8
	const sensorsPer = 32
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC))
	host, err := runtime.NewHost(runtime.SubstrateConfig{Clock: vc})
	if err != nil {
		b.Fatal(err)
	}
	defer host.Close()

	counters := make([]*hostBenchCounter, tenants)
	swarms := make([]*devsim.ChurnSwarm, tenants)
	for i := 0; i < tenants; i++ {
		kind := fmt.Sprintf("PresenceSensor_t%d", i)
		counters[i] = &hostBenchCounter{}
		if _, err := host.DeploySource(fmt.Sprintf("t%d", i), hostTenantDesign(kind), runtime.AppConfig{
			Contexts: map[string]runtime.ContextHandler{"Occupancy": counters[i]},
			Ingest:   runtime.IngestConfig{Shards: 2},
		}); err != nil {
			b.Fatal(err)
		}
		swarm := devsim.NewSwarm(devsim.SwarmConfig{
			Sensors:   sensorsPer,
			Lots:      []string{fmt.Sprintf("t%d-L0", i)},
			Kind:      kind,
			GroupAttr: "lot",
			Seed:      int64(i + 1),
		}, vc)
		cs, err := devsim.NewChurnSwarm(swarm, devsim.ChurnHooks{
			Bind:   func(s *devsim.SwarmSensor) error { return host.BindDevice(s) },
			Unbind: host.UnbindDevice,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := cs.BindAll(); err != nil {
			b.Fatal(err)
		}
		swarms[i] = cs
	}
	for _, cs := range swarms {
		deadline := time.Now().Add(30 * time.Second)
		for !cs.Settled() {
			if time.Now().After(deadline) {
				b.Fatal("attachments did not settle")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	b.ResetTimer()
	sent := 0
	for sent < b.N {
		for i := 0; i < tenants && sent < b.N; i++ {
			sent += swarms[i].StormLive(sensorsPer)
		}
	}
	want := uint64(0)
	for _, cs := range swarms {
		want += cs.Expected()
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		got := uint64(0)
		for _, c := range counters {
			got += c.n.Load()
		}
		if got == want {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("delivered %d of %d", got, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
}

// hostRelayDesign is one interpreted tenant of the relay benchmark: the
// commonest design shape — an `always publish` context feeding a controller
// — so every event pays the publish→controller hop.
func hostRelayDesign(kind string) string {
	return fmt.Sprintf(`
device %[1]s {
	attribute lot as String;
	source presence as Boolean;
}

device %[1]sDisplay {
	action show(value as Boolean);
}

context Relay as Boolean {
	when provided presence from %[1]s
	always publish;
}

controller Sink {
	when provided Relay
	do show on %[1]sDisplay;
}
`, kind)
}

type hostRelaySink struct {
	n atomic.Uint64
}

func (s *hostRelaySink) OnContext(*runtime.ControllerCall) error {
	s.n.Add(1)
	return nil
}

// BenchmarkHost_InterpretedRelay measures the publication hop of hot-deployed
// apps: 64 AutoImplement tenants on one Host, each relaying its own sensors'
// events through an interpreted `always publish` context to a controller.
// One reported op = one event relayed to its controller (so allocs/op reads
// 0 on a healthy hop, as in BenchmarkHost_TenantStorm); allocs/event is the
// process-wide malloc delta over the events relayed — the Boolean source
// boxes for free, so it isolates the hop's own allocations.
func BenchmarkHost_InterpretedRelay(b *testing.B) {
	const tenants = 64
	const sensorsPer = 64
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC))
	host, err := runtime.NewHost(runtime.SubstrateConfig{Clock: vc})
	if err != nil {
		b.Fatal(err)
	}
	defer host.Close()

	sinks := make([]*hostRelaySink, tenants)
	swarms := make([]*devsim.Swarm, tenants)
	for i := range swarms {
		kind := fmt.Sprintf("PresenceSensor_t%d", i)
		sinks[i] = &hostRelaySink{}
		if _, err := host.DeploySource(fmt.Sprintf("t%d", i), hostRelayDesign(kind), runtime.AppConfig{
			AutoImplement: true,
			Controllers:   map[string]runtime.ControllerHandler{"Sink": sinks[i]},
			Ingest:        runtime.IngestConfig{Shards: 2},
		}); err != nil {
			b.Fatal(err)
		}
		swarms[i] = devsim.NewSwarm(devsim.SwarmConfig{
			Sensors:   sensorsPer,
			Lots:      []string{fmt.Sprintf("t%d-L0", i)},
			Kind:      kind,
			GroupAttr: "lot",
			Seed:      int64(i + 1),
		}, vc)
		for _, s := range swarms[i].Sensors() {
			if err := host.BindDevice(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, swarm := range swarms {
		waitAttached(b, swarm, sensorsPer)
	}

	// relay bursts every tenant's fleet until n more events are accepted,
	// then waits for the controllers to have seen every one.
	var accepted uint64
	relay := func(n uint64) {
		for target := accepted + n; accepted < target; {
			for _, swarm := range swarms {
				accepted += uint64(swarm.FlipBurst(int(min(sensorsPer, target-accepted))))
			}
		}
		for deadline := time.Now().Add(60 * time.Second); ; {
			var got uint64
			for _, s := range sinks {
				got += s.n.Load()
			}
			if got == accepted {
				return
			}
			if got > accepted || time.Now().After(deadline) {
				b.Fatalf("controllers saw %d of %d relayed events", got, accepted)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	relay(tenants * sensorsPer) // warm shard buffers, subscription rings and the batch pools
	b.ReportAllocs()
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	mallocsFrom := ms.Mallocs
	b.ResetTimer()
	relay(uint64(b.N))
	b.StopTimer()
	stdruntime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(ms.Mallocs-mallocsFrom)/float64(b.N), "allocs/event")
}
