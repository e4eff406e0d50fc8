package transport

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
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

// A connection's steady-state payload — a 256-reading Boolean chunk whose
// device IDs and source the connection already introduced, i.e. the second
// encode of the chunk through one encoder — decoded into a fitting scratch
// slice allocates nothing: every string is a dictionary reference, and
// Boolean values box without allocating.
func TestDecodeReadingsWarmAllocatesNothing(t *testing.T) {
	chunk := boolChunk(256)
	enc := new(colEnc)
	first, warm := encodeOn(t, enc, chunk), encodeOn(t, enc, chunk)
	var d colDec
	scratch, err := d.decodeReadings(first, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameReadings(scratch, chunk); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if scratch, err = d.decodeReadings(warm, scratch); err != nil {
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
		for i := 0; i < 20; i++ { // warm the dictionary, scratch and pools at this size
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

// Concurrent publishers on one Client share its dictionary. Each payload is
// encoded under the lock that writes its frame, so whatever the
// interleaving, the hub decodes every batch exactly, including strings
// another goroutine introduced moments before.
func TestConcurrentBatchesShareOneDictionary(t *testing.T) {
	srv, cli := newServerAndClient(t)
	fed := &fakeFed{accepted: 1 << 20, merged: 1}
	srv.ServeFederation(fed)
	const writers, rounds, rows = 4, 50, 16
	// Row i of writer w's round r carries the value v = w*1000 + r*rows + i
	// and device ID "r<r>-<i>": every round brings new strings, and whichever
	// writer reaches a round first introduces them for the others.
	deviceOf := func(v int64) string {
		return fmt.Sprintf("r%d-%d", v%1000/rows, v%rows)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				batch := make([]device.Reading, rows)
				for i := range batch {
					v := int64(w*1000 + r*rows + i)
					batch[i] = device.Reading{DeviceID: deviceOf(v), Source: "presence", Value: v, Time: time.Unix(0, v)}
				}
				if n, err := cli.PublishEventBatch("Sensor", "presence", uint64(w+1), uint64(r+1), batch); err != nil || n != rows {
					t.Errorf("writer %d round %d: accepted %d err %v", w, r, n, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	fed.mu.Lock()
	defer fed.mu.Unlock()
	if len(fed.gotReadings) != writers*rounds*rows {
		t.Fatalf("hub landed %d readings, want %d", len(fed.gotReadings), writers*rounds*rows)
	}
	for _, r := range fed.gotReadings {
		if want := deviceOf(r.Value.(int64)); r.DeviceID != want || r.Source != "presence" {
			t.Fatalf("reading %v landed as %s/%s, want %s/presence", r.Value, r.DeviceID, r.Source, want)
		}
	}
}

// linkBytesPerReading bounds what a reading whose device the connection has
// already sent costs on the wire, envelope included: a device ID is a
// dictionary token, so the cost does not grow with the ID's length, and the
// chunk's source travels once, not per row.
const linkBytesPerReading = 4

func TestWarmChunkWireBytesPerReading(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.ServeFederation(nopFed{})
	stamp := time.Unix(0, 1_700_000_000_000_000_000)
	perReading := func(idWidth int) float64 {
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		chunk := make([]device.Reading, 256)
		for i := range chunk {
			chunk[i] = device.Reading{DeviceID: fmt.Sprintf("%0*d", idWidth, i), Source: "presence", Value: i%3 == 0, Time: stamp}
		}
		// The first publish introduces the chunk's strings (and sends gob's
		// type descriptors); the second is the connection's steady state.
		if _, err := cli.PublishEventBatch("PresenceSensor", "presence", 1, 1, chunk); err != nil {
			t.Fatal(err)
		}
		before := cli.BytesSent()
		if _, err := cli.PublishEventBatch("PresenceSensor", "presence", 1, 2, chunk); err != nil {
			t.Fatal(err)
		}
		return float64(cli.BytesSent()-before) / float64(len(chunk))
	}
	short, long := perReading(6), perReading(40)
	t.Logf("a warm 256-reading chunk costs %.2f B/reading", short)
	if short > linkBytesPerReading || long > linkBytesPerReading {
		t.Fatalf("a warm chunk costs %.2f B/reading with 6-character IDs and %.2f with 40-character IDs, want at most %d", short, long, linkBytesPerReading)
	}
	if short != long {
		t.Fatalf("a warm chunk's cost depends on ID length: %.2f B/reading with 6-character IDs, %.2f with 40-character IDs", short, long)
	}
}

// internFlood is a stream of readings that introduces more distinct strings
// than one connection's dictionary may hold.
func internFlood() []device.Reading {
	rs := make([]device.Reading, internMaxEntries+100)
	for i := range rs {
		rs[i] = device.Reading{DeviceID: fmt.Sprintf("d%d", i), Source: "presence", Value: true, Time: time.Unix(0, int64(i))}
	}
	return rs
}

// The dictionary is fed by bytes from outside the process: over many
// payloads it never grows past its bound, strings past the bound or past
// the length limit still decode, and both ends keep assigning the same
// tokens.
func TestInternTableIsBounded(t *testing.T) {
	flood := internFlood()
	enc := new(colEnc)
	var d colDec
	for round := 0; round < 2; round++ { // the second round references, or re-sends past the cap
		for lo := 0; lo < len(flood); lo += 8192 {
			part := flood[lo:min(lo+8192, len(flood))]
			got, err := d.decodeReadings(encodeOn(t, enc, part), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameReadings(got, part); err != nil {
				t.Fatalf("round %d, rows %d..: %v", round, lo, err)
			}
			if len(d.tab) > internMaxEntries || len(d.tab) != len(enc.tokens) {
				t.Fatalf("round %d, rows %d..: decoder holds %d strings, encoder %d, cap %d", round, lo, len(d.tab), len(enc.tokens), internMaxEntries)
			}
		}
	}
	if len(d.tab) != internMaxEntries {
		t.Fatalf("dictionary holds %d strings after the flood, want the cap %d", len(d.tab), internMaxEntries)
	}

	// A string past the length bound decodes but gets no token, so the next
	// string introduced still gets the next token on both ends.
	long := string(make([]byte, internMaxLen+1))
	enc, d = new(colEnc), colDec{}
	for i, rows := range [][]device.Reading{
		{{DeviceID: long, Source: "s", Value: true, Time: time.Unix(0, 1)}},
		{{DeviceID: "next", Source: "s", Value: true, Time: time.Unix(0, 2)}, {DeviceID: long, Source: "s", Value: false, Time: time.Unix(0, 3)}},
		{{DeviceID: "next", Source: "s", Value: false, Time: time.Unix(0, 4)}},
	} {
		got, err := d.decodeReadings(encodeOn(t, enc, rows), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameReadings(got, rows); err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
	}
	if want := []string{"s", "next"}; !reflect.DeepEqual(d.tab, want) || enc.tokens["s"] != 1 || enc.tokens["next"] != 2 || len(enc.tokens) != 2 {
		t.Fatalf("decoder dictionary %q, encoder %v; want %q as tokens 1 and 2 on both ends", d.tab, enc.tokens, want)
	}
}

// The dictionary's cap as an edge sees it on the wire: strings take slots
// first-come, string values beside device IDs, and none is ever evicted.
// Two connections introduce the same source, one device and the same flood
// of device IDs; on one of them the device's readings also carry distinct
// string values. Those values fill the slots the probe device would have
// taken, so on that connection the probe's ID travels as a literal in every
// chunk for the connection's life, while on the other it becomes a token
// after its first chunk.
func TestDictionaryCapSendsLiteralsForLife(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.ServeFederation(nopFed{})
	const values = 100
	stamp := time.Unix(0, 1_700_000_000_000_000_000)
	// probeCosts fills one connection's dictionary to the cap with string
	// values (source, device, values, flood), to values short of it without
	// them, then reports what each of three single-reading chunks of a new
	// device costs on the wire.
	probeCosts := func(stringValues bool) [3]uint64 {
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		seq := uint64(0)
		publish := func(rs []device.Reading) uint64 {
			seq++
			before := cli.BytesSent()
			if _, err := cli.PublishEventBatch("Sensor", "presence", 1, seq, rs); err != nil {
				t.Fatal(err)
			}
			return cli.BytesSent() - before
		}
		first := make([]device.Reading, values)
		for i := range first {
			var v any = i%2 == 0
			if stringValues {
				v = fmt.Sprintf("state-%d", i)
			}
			first[i] = device.Reading{DeviceID: "d", Source: "presence", Value: v, Time: stamp}
		}
		publish(first)
		flood := make([]device.Reading, internMaxEntries-2-values)
		for i := range flood {
			flood[i] = device.Reading{DeviceID: fmt.Sprintf("f%d", i), Source: "presence", Value: true, Time: stamp}
		}
		for lo := 0; lo < len(flood); lo += 8192 {
			publish(flood[lo:min(lo+8192, len(flood))])
		}
		var costs [3]uint64
		for i := range costs {
			costs[i] = publish([]device.Reading{{DeviceID: "probe-device", Source: "presence", Value: true, Time: stamp}})
		}
		return costs
	}
	full, room := probeCosts(true), probeCosts(false)
	t.Logf("a probe chunk costs %v B at the cap, %v B below it", full, room)
	if full[1] != full[0] || full[2] != full[0] {
		t.Fatalf("past the cap a new device's chunks cost %v B: its ID must travel as the same literal every time", full)
	}
	if room[1] >= room[0] || room[2] != room[1] {
		t.Fatalf("below the cap a new device's chunks cost %v B: its ID must become a token after its first chunk", room)
	}
	// A literal is a zero token, a length byte and the ID's bytes; the token
	// it stands in for this deep into the dictionary is a 3-byte uvarint.
	if lit := uint64(2 + len("probe-device")); full[1] != room[1]+lit-3 {
		t.Fatalf("at the cap a warm probe chunk costs %d B, below it %d: want the %d-byte literal in place of a 3-byte token", full[1], room[1], lit)
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
	openGate := sync.OnceFunc(func() { close(fed.gate) })
	defer openGate() // a failed check must not leave the handler parked
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
	openGate()
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
	openGate := sync.OnceFunc(func() { close(fed.gate) })
	defer openGate() // a failed check must not leave the handler parked
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
	openGate()
	<-closed
	if m.Health() == HealthUp || m.Connected() {
		t.Fatalf("link still %v/connected=%v after a failed Wait", m.Health(), m.Connected())
	}
}
