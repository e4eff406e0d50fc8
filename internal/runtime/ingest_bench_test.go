package runtime

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/registry"
)

// BenchmarkIngestConcurrentProducers measures one interaction's intake fed
// by several producers at once, end to end: an op is one reading delivered
// to the interaction's dispatch. "remote" producers each land 256-reading
// RemoteIngest batches spread over 64 devices on a stream of their own (one
// hub connection each); "device" producers push one reading at a time into
// the sink of each of their 64 devices in turn, the way emitting devices do.
// Producers yield while 64k readings are in flight, so the pipeline runs at
// the pace of its flush worker without budget drops.
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
	ing := registerIngestor(rt, func(b *device.ReadingBatch) { delivered.Add(int64(b.Len())) })
	defer ing.stop()

	const devices, remoteBatch, inFlight = 64, 256, 1 << 16
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
			if shape == "device" {
				for sent := 0; sent < per; sent++ {
					for ing.budget.InFlight() > inFlight {
						goruntime.Gosched()
					}
					id := ids[sent%devices]
					ing.shardFor(id).Push(intReading(id, int64(sent)))
				}
				return
			}
			batch := make([]device.Reading, remoteBatch)
			for sent, d := 0, 0; sent < per; {
				for ing.budget.InFlight() > inFlight {
					goruntime.Gosched()
				}
				n := min(remoteBatch, per-sent)
				for i := range batch[:n] {
					batch[i] = intReading(ids[(d+i)%devices], int64(sent+i))
				}
				rt.RemoteIngest("PresenceSensor", "presence", stream, batch[:n])
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

// BenchmarkTrackerAttachRemove measures what binding one device costs an
// interaction's source tracker: an op is one attach (driver lookup and push
// subscription into its ingestion shard) plus one remove. Run with
// -benchmem; the allocations are per device and independent of the fleet.
func BenchmarkTrackerAttachRemove(b *testing.B) {
	m, err := dsl.Load(ingestTestDesign)
	if err != nil {
		b.Fatal(err)
	}
	rt := New(m)
	defer rt.Stop()
	ing := rt.newIngestor(discardBatch)
	defer ing.stop()
	tr := rt.newSourceTracker("PresenceSensor", "presence", ing)
	defer tr.Stop()
	if err := rt.BindDevice(device.NewBase("ps-0", "PresenceSensor", nil, nil, nil)); err != nil {
		b.Fatal(err)
	}
	e := registry.Entity{ID: "ps-0", Kind: "PresenceSensor"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Add(e)
		tr.Remove(e.ID)
	}
}
