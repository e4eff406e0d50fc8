package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/eventbus"
	"repro/internal/mapreduce"
	"repro/internal/registry"
	"repro/internal/transport"
)

// Probes are short isolated measurements that replay the input shape a
// workload recorded (batch size, topic count, change set, entity set)
// straight into one layer's public functions. Each is a `probe.<layer>`
// span, taken after the end-to-end phases so it cannot disturb them.

const probeRepeats = 5

// probeMedian runs fn probeRepeats times as probe spans and returns the
// median duration.
func probeMedian(e *env, name string, fn func() error) (time.Duration, error) {
	durs := make([]float64, 0, probeRepeats)
	for i := 0; i < probeRepeats; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		end := time.Now()
		e.span(name, 0, int64(i), start, end)
		durs = append(durs, float64(end.Sub(start)))
	}
	return time.Duration(median(durs)), nil
}

// probeRegistryScan times one Registry.Scan over a kind at fleet size, in
// milliseconds.
func probeRegistryScan(e *env, reg *registry.Registry, kind string) float64 {
	d, _ := probeMedian(e, "probe.registry.scan", func() error {
		n := 0
		reg.Scan(registry.Query{Kind: kind}, func(registry.Entity) bool { n++; return true })
		if n == 0 {
			return fmt.Errorf("no %s registered", kind)
		}
		return nil
	})
	return ms(d.Nanoseconds())
}

// probeBusPublish times the bus alone: typed reading batches of the
// recorded size published round-robin over the recorded number of topics,
// each with one counting subscriber. It returns nanoseconds per reading.
func probeBusPublish(e *env, batchSize, topics int) float64 {
	if batchSize < 1 {
		batchSize = 1
	}
	const readings = 1 << 18
	bus := eventbus.New()
	defer bus.Close()
	var got atomic.Uint64
	names := make([]string, topics)
	for i := range names {
		names[i] = fmt.Sprintf("app/t%d/source/Probe/0", i)
		if _, err := bus.Subscribe(names[i], func(ev eventbus.Event) {
			got.Add(uint64(ev.Payload.(*device.ReadingBatch).Len()))
		}, eventbus.WithQueue(1024)); err != nil {
			return 0
		}
	}
	now := time.Now()
	r := device.Reading{DeviceID: "probe", Source: "presence", Value: true, Time: now}
	batches := readings / batchSize
	d, _ := probeMedian(e, "probe.eventbus.publish", func() error {
		want := got.Load() + uint64(batches*batchSize)
		for i := 0; i < batches; i++ {
			b := device.NewReadingBatch()
			for j := 0; j < batchSize; j++ {
				b.Append(r)
			}
			err := bus.Publish(names[i%topics], b, now)
			b.Release()
			if err != nil {
				return err
			}
		}
		for got.Load() != want {
			time.Sleep(pollEvery)
		}
		return nil
	})
	return float64(d.Nanoseconds()) / float64(batches*batchSize)
}

// probeMapReduce times the incremental engine alone on one round's change
// set: upsert `changed` of the fleet's readings (lot-major, as the swarm's
// DeltaRound clusters them) and flush. Milliseconds per round.
func probeMapReduce(e *env, ids, groups []string, changed int) float64 {
	inc := mapreduce.NewIncremental[string, any](
		func(k string, v any, emit func(string, any)) {
			if !v.(bool) {
				emit(k, 1)
			}
		},
		func(k string, vs []any, emit func(string, any)) { emit(k, len(vs)) },
		func(_ string, a, b any) any { return a.(int) + b.(int) },
		func(_ string, acc, v any) any { return acc.(int) - v.(int) },
	)
	state := make([]bool, len(ids))
	for i, id := range ids {
		inc.Upsert(id, groups[i], state[i])
	}
	inc.Flush(nil)
	cursor := 0
	var buf []string
	d, _ := probeMedian(e, "probe.mapreduce.flush", func() error {
		for n := 0; n < changed; n++ {
			i := cursor % len(ids)
			cursor++
			state[i] = !state[i]
			inc.Upsert(ids[i], groups[i], state[i])
		}
		_, buf = inc.Flush(buf[:0])
		return nil
	})
	return ms(d.Nanoseconds())
}

// nopFederation is a FederationHandler that admits everything and does
// nothing: the RPC probe measures transport alone.
type nopFederation struct{}

func (nopFederation) SyncKinds([]string, []uint64) []transport.SyncDelta { return nil }
func (nopFederation) IngestEventBatch(_, _ uint64, _, _ string, rs []device.Reading) int {
	return len(rs)
}
func (nopFederation) IngestAggSync(string, string, string, []transport.GroupPartial) int { return 0 }

// probeTransport times Client.PublishEventBatch of fixed batches of the
// workload's readings against a server with a no-op handler, and counts the
// bytes they cost on the wire. The byte count depends on the readings alone
// (IDs from the seeded layout, one shared stamp), so it repeats exactly for
// one seed. It returns microseconds per batch, bytes per reading, and the
// client's codec fallbacks.
func probeTransport(e *env, readings []device.Reading, batch int) (usPerBatch, bytesPerEvent, fallbacks float64, err error) {
	srv, err := transport.NewServer("127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	defer srv.Close()
	srv.ServeFederation(nopFederation{})
	cli, err := transport.Dial(srv.Addr())
	if err != nil {
		return 0, 0, 0, err
	}
	defer cli.Close()
	// The first call negotiates the codec and sends gob type descriptors;
	// neither is per-event cost.
	if _, err := cli.PublishEventBatch("PresenceSensor", "presence", 0, 0, readings[:batch]); err != nil {
		return 0, 0, 0, err
	}
	batches := len(readings) / batch
	sent0, recv0 := cli.BytesSent(), cli.BytesReceived()
	d, err := probeMedian(e, "probe.transport.rpc", func() error {
		for i := 0; i < batches; i++ {
			if _, err := cli.PublishEventBatch("PresenceSensor", "presence", 0, 0, readings[i*batch:(i+1)*batch]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	wire := float64(cli.BytesSent()-sent0) + float64(cli.BytesReceived()-recv0)
	events := float64(probeRepeats * batches * batch)
	return float64(d.Microseconds()) / float64(batches), wire / events, float64(cli.CodecFallbacks()), nil
}

// probeDSLLoad times parse + check of one design, in milliseconds.
func probeDSLLoad(e *env, design string) float64 {
	d, _ := probeMedian(e, "probe.dsl.load", func() error {
		_, err := dsl.Load(design)
		return err
	})
	return ms(d.Nanoseconds())
}
