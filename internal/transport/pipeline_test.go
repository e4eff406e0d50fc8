package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
)

// nopFed admits every reading and does nothing: round trips against it cost
// transport alone.
type nopFed struct{}

func (nopFed) SyncKinds([]string, []uint64) []SyncDelta { return nil }
func (nopFed) IngestEventBatch(_, _ uint64, _, _ string, rs []device.Reading) int {
	return len(rs)
}
func (nopFed) IngestAggSync(string, string, string, []GroupPartial) int { return 0 }

// boolChunk builds n Boolean presence readings over n distinct devices.
func boolChunk(n int) []device.Reading {
	rs := make([]device.Reading, n)
	stamp := time.Unix(0, 1_700_000_000_000_000_000)
	for i := range rs {
		rs[i] = device.Reading{DeviceID: fmt.Sprintf("sensor-%05d", i), Source: "presence", Value: i%2 == 0, Time: stamp}
	}
	return rs
}

// A call used to select on time.After(timeout): under the pre-Go-1.23 timer
// semantics go.mod selects, each of those timers stayed in the runtime's
// timer heap until it fired, so n RPCs inside one call timeout pinned n
// timers (and their channels). The waiter now stops and recycles one timer.
func TestCallsDoNotLeakTimers(t *testing.T) {
	_, cli := newServerAndClient(t)
	ping := func() {
		if err := cli.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm: gob type descriptors, pools, buffers
		ping()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 20_000; i++ {
		ping()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapObjects) - int64(before.HeapObjects); grown >= 1000 {
		t.Fatalf("20k pings left %d live heap objects behind (a leaked timer is 3 per call)", grown)
	}
}

// pingAllocs is what one Ping round trip allocates in this process, both
// ends included: gob's per-message decode state on either side and the
// request's op string. No channel, no timer.
const pingAllocs = 8

func TestPingAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	_, cli := newServerAndClient(t)
	for i := 0; i < 100; i++ {
		_ = cli.Ping()
	}
	if got := testing.AllocsPerRun(500, func() { _ = cli.Ping() }); got > pingAllocs {
		t.Fatalf("one Ping round trip allocates %.0f objects, want at most %d", got, pingAllocs)
	}
}

// A 256-reading Boolean chunk decoded against a warm intern table and a
// fitting scratch slice allocates nothing: device IDs and the source come
// from the table, Boolean values box without allocating.
func TestDecodeReadingsWarmAllocatesNothing(t *testing.T) {
	chunk := boolChunk(256)
	bin := encodeReadingsOrFatal(t, chunk)
	var d colDec
	scratch, err := d.decodeReadings(bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameReadings(scratch, chunk); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if scratch, err = d.decodeReadings(bin, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("warm decode of a 256-reading chunk allocates %.0f objects, want 0", got)
	}
	if err := sameReadings(scratch, chunk); err != nil {
		t.Fatalf("warm decode changed the rows: %v", err)
	}
}

// chunkAllocs bounds what one colv1 PublishEventBatch round trip to a no-op
// handler allocates, both ends included: the gob envelope (op, kind and
// source strings, the Bin payload, per-message decode state) — a per-chunk
// constant, nothing per reading.
const chunkAllocs = 12

func TestPublishEventBatchAllocationsPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	srv, cli := newServerAndClient(t)
	srv.ServeFederation(nopFed{})
	measure := func(n int) float64 {
		chunk := boolChunk(n)
		for i := 0; i < 20; i++ { // warm the intern table, scratch and pools at this size
			if _, err := cli.PublishEventBatch("PresenceSensor", "presence", 0, 0, chunk); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			_, _ = cli.PublishEventBatch("PresenceSensor", "presence", 0, 0, chunk)
		})
	}
	small, large := measure(16), measure(1024)
	if small > chunkAllocs || large > chunkAllocs {
		t.Fatalf("one chunk round trip allocates %.0f (16 readings) / %.0f (1024 readings) objects, want at most %d", small, large, chunkAllocs)
	}
	if large > small+2 {
		t.Fatalf("allocations grow with the chunk: %.0f at 16 readings, %.0f at 1024", small, large)
	}
}

// internFlood is an event batch that introduces more distinct strings than
// the intern table may hold.
func internFlood() []device.Reading {
	rs := make([]device.Reading, internMaxEntries+100)
	for i := range rs {
		rs[i] = device.Reading{DeviceID: fmt.Sprintf("d%d", i), Source: "presence", Value: true, Time: time.Unix(0, int64(i))}
	}
	return rs
}

// The intern table is fed by bytes from outside the process: past its bound
// it must stop growing and decoding must stay correct.
func TestInternTableIsBounded(t *testing.T) {
	flood := internFlood()
	bin := encodeReadingsOrFatal(t, flood)
	var d colDec
	for round := 0; round < 2; round++ {
		got, err := d.decodeReadings(bin, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameReadings(got, flood); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(d.intern) != internMaxEntries {
			t.Fatalf("round %d: intern table holds %d entries, want the cap %d", round, len(d.intern), internMaxEntries)
		}
	}
	// Strings past the length bound are decoded, not interned.
	long := []device.Reading{{DeviceID: string(make([]byte, internMaxLen+1)), Source: "s", Value: true, Time: time.Unix(0, 1)}}
	var d2 colDec
	if _, err := d2.decodeReadings(encodeReadingsOrFatal(t, long), nil); err != nil {
		t.Fatal(err)
	}
	if len(d2.intern) != 1 {
		t.Fatalf("intern table holds %d entries after one short and one over-long string, want 1", len(d2.intern))
	}
	// The token table is not kept past its retention bound either.
	if cap(d.tab) > tabMaxRetain {
		d.start(nil)
		if cap(d.tab) > tabMaxRetain {
			t.Fatalf("token table keeps %d slots between payloads, bound %d", cap(d.tab), tabMaxRetain)
		}
	}
}

// gatedFed blocks every IngestEventBatch until the gate opens and records
// the sequence numbers in arrival order.
type gatedFed struct {
	nopFed
	gate chan struct{}
	seqs chan uint64
}

func (g gatedFed) IngestEventBatch(_, seq uint64, _, _ string, rs []device.Reading) int {
	<-g.gate
	g.seqs <- seq
	return len(rs)
}

// StartEventBatch returns once the frame is written, so several batches of
// one stream are on the wire before the first is answered; the server
// ingests them in the order they were started, over the column codec and
// the gob fallback alike.
func TestStartEventBatchKeepsAWindowInFlight(t *testing.T) {
	const window = 6
	srv, cli := newServerAndClient(t)
	fed := gatedFed{gate: make(chan struct{}), seqs: make(chan uint64, window)}
	srv.ServeFederation(fed)

	columnar := boolChunk(8)
	mixed := []device.Reading{ // mixed value types: travels over the gob op
		{DeviceID: "a", Source: "presence", Value: true, Time: time.Unix(0, 1)},
		{DeviceID: "b", Source: "presence", Value: "on", Time: time.Unix(0, 2)},
	}
	var calls [window]EventBatchCall
	var want [window]int
	for i := range calls {
		batch := columnar
		if i%2 == 1 {
			batch = mixed
		}
		var err error
		if calls[i], err = cli.StartEventBatch("PresenceSensor", "presence", 7, uint64(i+1), batch); err != nil {
			t.Fatal(err)
		}
		want[i] = len(batch)
	}
	// All six were started while the handler still holds the first.
	close(fed.gate)
	for i := range calls {
		got, err := calls[i].Wait()
		if err != nil || got != want[i] {
			t.Fatalf("batch %d: accepted %d err %v, want %d", i+1, got, err, want[i])
		}
		if seq := <-fed.seqs; seq != uint64(i+1) {
			t.Fatalf("arrival %d carried seq %d: batches were reordered", i+1, seq)
		}
	}
	if got := cli.CodecFallbacks(); got != window/2 {
		t.Fatalf("codec fallbacks %d, want %d (every mixed batch)", got, window/2)
	}
	// An empty batch sends nothing and its call waits for nothing.
	empty, err := cli.StartEventBatch("PresenceSensor", "presence", 7, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := empty.Wait(); got != 0 || err != nil {
		t.Fatalf("empty batch: accepted %d err %v", got, err)
	}
}

// A connection that dies with a window in flight fails every outstanding
// Wait with a connection-level error, and a ManagedClient hears about it
// from Wait alone (the sends all succeeded).
func TestManagedWaitFeedsHealthLadder(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fed := gatedFed{gate: make(chan struct{}), seqs: make(chan uint64, 4)}
	srv.ServeFederation(fed)
	m, err := DialManaged(ManagedConfig{Addr: srv.Addr(), HeartbeatInterval: time.Hour, CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Ping(); err != nil {
		t.Fatal(err)
	}
	var calls [3]EventBatchCall
	for i := range calls {
		if calls[i], err = m.StartEventBatch("PresenceSensor", "presence", 7, uint64(i+1), boolChunk(4)); err != nil {
			t.Fatal(err)
		}
	}
	// Close severs the connection at once, then waits for the handler, which
	// still holds the first batch: none of the three is ever answered.
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	for i := range calls {
		if _, err := calls[i].Wait(); !IsConnFailure(err) {
			t.Fatalf("batch %d: err %v, want a connection-level failure", i+1, err)
		}
	}
	close(fed.gate)
	<-closed
	if m.Health() == HealthUp || m.Connected() {
		t.Fatalf("link still %v/connected=%v after a failed Wait", m.Health(), m.Connected())
	}
}
