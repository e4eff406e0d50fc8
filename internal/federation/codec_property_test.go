package federation_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/devsim/chaos"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// recordCtx records every delivered presence reading per device, in arrival
// order — the observable the codec-equivalence property compares.
type recordCtx struct {
	mu  sync.Mutex
	seq map[string][]bool
	n   atomic.Uint64
}

func (c *recordCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	v, _ := call.Reading.Value.(bool)
	c.mu.Lock()
	c.seq[call.Reading.DeviceID] = append(c.seq[call.Reading.DeviceID], v)
	c.mu.Unlock()
	c.n.Add(1)
	return nil, false, nil
}

func (c *recordCtx) sequences() map[string][]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]bool, len(c.seq))
	for id, vals := range c.seq {
		out[id] = append([]bool(nil), vals...)
	}
	return out
}

// indexedSensor makes a swarm sensor's pushed readings indexed, which
// leaves them without a colv1 column form: the same storm then crosses the
// wire as gob slices, chosen by the payload alone.
type indexedSensor struct{ *devsim.SwarmSensor }

func (d indexedSensor) SubscribePush(source string, sink device.Sink) (func(), error) {
	return d.SwarmSensor.SubscribePush(source, indexSink{sink})
}

type indexSink struct{ device.Sink }

func (s indexSink) Push(r device.Reading) {
	r.Index = "slot"
	s.Sink.Push(r)
}

// runChaosForwardStorm drives one owner→consumer event-forwarding pair
// through a deterministic storm-partition-spool-heal-replay cycle and
// returns what the consumer's context observed plus the owner's final
// stats. indexed makes every forwarded reading indexed, so every batch
// travels as the gob reference encoding instead of colv1.
func runChaosForwardStorm(t *testing.T, indexed bool) (map[string][]bool, federation.Stats) {
	t.Helper()
	const sensors = 40
	cn := chaos.NewNet(21)

	model, err := dsl.Load(consumerDesign)
	if err != nil {
		t.Fatal(err)
	}
	crt := runtime.New(model, runtime.WithClock(simclock.NewVirtual(epoch)))
	rec := &recordCtx{seq: make(map[string][]bool)}
	if err := crt.ImplementContext("Occupancy", rec); err != nil {
		t.Fatal(err)
	}
	if err := crt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(crt.Stop)
	consumer, err := federation.New(federation.Config{Name: "hub", Runtime: crt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(consumer.Close)

	wrap := func(s *devsim.SwarmSensor) device.Driver { return s }
	if indexed {
		wrap = func(s *devsim.SwarmSensor) device.Driver { return indexedSensor{s} }
	}
	_, owner, _, cs := newOwnerNodeWrapping(t, "edge", sensors, wrap)
	if err := owner.AddPeer(func() federation.PeerConfig {
		pc := chaosPeer(cn, "edge->hub", "hub", consumer.Addr())
		pc.ForwardEvents = true
		return pc
	}()); err != nil {
		t.Fatal(err)
	}
	if err := consumer.AddPeer(func() federation.PeerConfig {
		pc := chaosPeer(cn, "hub->edge", "edge", owner.Addr())
		pc.Import = []string{"PresenceSensor"}
		return pc
	}()); err != nil {
		t.Fatal(err)
	}
	if err := cs.BindAll(); err != nil {
		t.Fatal(err)
	}
	settle(t, cs)
	if err := consumer.SyncPeers(); err != nil {
		t.Fatal(err)
	}

	// The default forward budget dwarfs these storms, so exactly-once
	// delivery of every accepted reading is the required fixed point: a
	// timeout here means a reading was dropped or the replay protection
	// double-ingested one.
	accepted := uint64(cs.StormLive(cs.LiveCount()))
	waitFor(t, "baseline delivery", func() bool { return rec.n.Load() == accepted })

	// Dark phase: emissions spool against the held budget.
	cn.Partition("edge->hub")
	cn.Partition("hub->edge")
	waitHealth(t, owner, "hub", transport.HealthPartitioned)
	accepted += uint64(cs.StormLive(cs.LiveCount()))

	cn.Heal("edge->hub")
	cn.Heal("hub->edge")
	waitHealth(t, owner, "hub", transport.HealthUp)
	waitFor(t, "replay drains the spool", func() bool { return rec.n.Load() == accepted })

	// Post-heal traffic rides the fresh connection.
	accepted += uint64(cs.StormLive(cs.LiveCount()))
	waitFor(t, "post-heal delivery", func() bool { return rec.n.Load() == accepted })

	return rec.sequences(), owner.Stats()
}

// TestColumnCodecEquivalenceUnderChaos is the wire-format property test:
// colv1 ≡ reference. The same deterministic storm (seeded swarm, virtual
// clock, identical partition/heal schedule) runs once with Boolean rows,
// which travel as colv1 frames, and once with the same rows made indexed,
// which have no column form and travel as gob slices. Both runs must
// deliver exactly once through the outage, and the per-device value
// sequences the consuming context observes must be identical — the codec
// changes bytes on the wire, never semantics. The payload alone picks the
// encoding, so the Boolean storm counts no fallback at all, even for a
// publish that races the partition cut, while the indexed storm counts
// its batches as fallbacks.
func TestColumnCodecEquivalenceUnderChaos(t *testing.T) {
	colSeqs, colStats := runChaosForwardStorm(t, false)
	refSeqs, refStats := runChaosForwardStorm(t, true)

	if !reflect.DeepEqual(colSeqs, refSeqs) {
		t.Fatalf("codec changed delivery semantics:\n colv1: %v\n gob:   %v", colSeqs, refSeqs)
	}
	if len(colSeqs) == 0 {
		t.Fatal("storm delivered nothing; the property was tested vacuously")
	}
	if colStats.EventBatchesSent == 0 || colStats.CodecFallbacks != 0 {
		t.Fatalf("Boolean storm sent %d batches with %d gob fallbacks, want >0 and 0", colStats.EventBatchesSent, colStats.CodecFallbacks)
	}
	if refStats.CodecFallbacks == 0 {
		t.Fatalf("indexed storm never travelled as gob: %+v", refStats)
	}
}
