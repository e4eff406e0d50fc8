package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/eventbus"
)

// BenchmarkIngestConcurrentProducers measures one interaction's intake fed
// by several producers at once, end to end: an op is one reading delivered
// to the bus subscriber. "remote" producers each land 256-reading
// RemoteIngest batches spread over 64 devices on a stream of their own (one
// hub connection each); "device" producers hand over 8-reading bursts of one
// device at a time (a channel-fallback forwarder each). Producers yield
// while 64k readings are in flight, so the pipeline runs at the pace of its
// flush worker without budget drops.
func BenchmarkIngestConcurrentProducers(b *testing.B) {
	for _, shape := range []string{"remote", "device"} {
		for _, producers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/producers=%d", shape, producers), func(b *testing.B) {
				benchIngestProducers(b, shape, producers)
			})
		}
	}
}

func benchIngestProducers(b *testing.B, shape string, producers int) {
	m, err := dsl.Load(ingestTestDesign)
	if err != nil {
		b.Fatal(err)
	}
	rt := New(m, WithIngestConfig(IngestConfig{Budget: -1}))
	defer rt.Stop()
	var delivered atomic.Int64
	if _, err := rt.bus.Subscribe("src", func(ev eventbus.Event) {
		delivered.Add(int64(ev.Payload.(*device.ReadingBatch).Len()))
	}, eventbus.WithQueue(1024)); err != nil {
		b.Fatal(err)
	}
	ing := registerIngestor(rt)
	defer ing.stop()

	const devices, remoteBatch, burst, inFlight = 64, 256, 8, 1 << 16
	per := b.N/producers + 1
	total := int64(per * producers)
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		ids := make([]string, devices)
		for i := range ids {
			ids[i] = fmt.Sprintf("p%d-d%02d", g, i)
		}
		stream := uint64(g + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			size := burst
			if shape == "remote" {
				size = remoteBatch
			}
			batch := make([]device.Reading, size)
			for sent, d := 0, 0; sent < per; {
				for ing.budget.InFlight() > inFlight {
					goruntime.Gosched()
				}
				n := min(size, per-sent)
				for i := range batch[:n] {
					if shape == "device" {
						batch[i] = intReading(ids[d], int64(sent+i))
					} else {
						batch[i] = intReading(ids[(d+i)%devices], int64(sent+i))
					}
				}
				if shape == "device" {
					ing.shardFor(ids[d]).pushBatch(batch[:n])
				} else {
					rt.RemoteIngest("PresenceSensor", "presence", stream, batch[:n])
				}
				sent += n
				d = (d + 1) % devices
			}
		}()
	}
	wg.Wait()
	for delivered.Load() < total {
		goruntime.Gosched()
	}
	b.StopTimer()
}
