package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
)

// encodeReadingsOrFatal encodes readings as the first payload of a fresh
// connection, copying the payload out so the test owns it.
func encodeReadingsOrFatal(t testing.TB, readings []device.Reading) []byte {
	t.Helper()
	return encodeOn(t, new(colEnc), readings)
}

// encodeOn encodes readings as the next payload of enc's connection.
func encodeOn(t testing.TB, enc *colEnc, readings []device.Reading) []byte {
	t.Helper()
	bin, ok := enc.encodeReadings(readings)
	if !ok {
		t.Fatalf("encodeReadings refused a codec-eligible batch: %+v", readings)
	}
	return append([]byte(nil), bin...)
}

func encodeAggOrFatal(t testing.TB, groups []GroupPartial) []byte {
	t.Helper()
	return encodeAggOn(t, new(colEnc), groups)
}

// encodeAggOn encodes groups as the next payload of enc's connection.
func encodeAggOn(t testing.TB, enc *colEnc, groups []GroupPartial) []byte {
	t.Helper()
	bin, ok := enc.encodeAggSync(groups)
	if !ok {
		t.Fatalf("encodeAggSync refused codec-eligible groups: %+v", groups)
	}
	return append([]byte(nil), bin...)
}

// sameReadings compares codec output against the original with gob's
// semantics: identical IDs, sources, values (including dynamic type) and
// index, and time compared as an instant (both codecs drop the monotonic
// reading; colv1 additionally normalizes the wall-clock location).
func sameReadings(got, want []device.Reading) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.DeviceID != w.DeviceID || g.Source != w.Source {
			return fmt.Errorf("row %d identity %q/%q, want %q/%q", i, g.DeviceID, g.Source, w.DeviceID, w.Source)
		}
		if !reflect.DeepEqual(g.Value, w.Value) {
			return fmt.Errorf("row %d value %#v, want %#v", i, g.Value, w.Value)
		}
		if !reflect.DeepEqual(g.Index, w.Index) {
			return fmt.Errorf("row %d index %#v, want %#v", i, g.Index, w.Index)
		}
		if !g.Time.Equal(w.Time) {
			return fmt.Errorf("row %d time %v, want %v", i, g.Time, w.Time)
		}
	}
	return nil
}

// TestColCodecRoundTrip is the codec's property test: for every supported
// value type, pseudo-random batches decode back to exactly what was
// encoded.
func TestColCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := time.Now()
	mk := func(n int, value func(i int) any) []device.Reading {
		readings := make([]device.Reading, n)
		for i := range readings {
			readings[i] = device.Reading{
				DeviceID: fmt.Sprintf("dev-%d", rng.Intn(8)),
				Source:   "presence",
				Value:    value(i),
				// Jittered, sometimes out-of-order times exercise negative
				// deltas.
				Time: base.Add(time.Duration(rng.Intn(2000)-1000) * time.Millisecond),
			}
		}
		return readings
	}
	cases := map[string]func(i int) any{
		"bool":    func(i int) any { return rng.Intn(2) == 0 },
		"int64":   func(i int) any { return rng.Int63() - math.MaxInt64/2 },
		"int":     func(i int) any { return rng.Intn(1000) - 500 },
		"float64": func(i int) any { return rng.NormFloat64() * 100 },
		"string":  func(i int) any { return fmt.Sprintf("state-%d", rng.Intn(4)) },
	}
	for name, value := range cases {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				want := mk(1+rng.Intn(64), value)
				got, err := new(colDec).decodeReadings(encodeReadingsOrFatal(t, want), nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameReadings(got, want); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestColCodecRefusesNonColumnarBatches pins the fallback boundary: indexed
// readings, rows of different sources, mixed-type bursts, nil and exotic
// values all route the whole call to the gob op.
func TestColCodecRefusesNonColumnarBatches(t *testing.T) {
	now := time.Now()
	r := func(v any) device.Reading {
		return device.Reading{DeviceID: "d", Source: "s", Value: v, Time: now}
	}
	indexed := r(1.0)
	indexed.Index = "slot3"
	otherSource := r(false)
	otherSource.Source = "t"
	cases := map[string][]device.Reading{
		"indexed":      {indexed},
		"mixed source": {r(true), otherSource},
		"mixed":        {r(true), r(int64(2))},
		"nil":          {r(nil)},
		"exotic":       {r([]string{"composite"})},
	}
	for name, readings := range cases {
		t.Run(name, func(t *testing.T) {
			enc := new(colEnc)
			if _, ok := enc.encodeReadings(readings); ok {
				t.Fatalf("codec accepted a batch that must fall back to gob")
			}
			if len(enc.tokens) != 0 || len(enc.buf) != 0 {
				t.Fatalf("a refused batch advanced the dictionary to %d entries", len(enc.tokens))
			}
		})
	}
}

// TestColCodecAggRoundTrip round-trips agg_sync payloads, including
// retractions and nil partial values, and pins the composite-value
// fallback.
func TestColCodecAggRoundTrip(t *testing.T) {
	want := []GroupPartial{
		{Group: "kitchen", Value: 21.5},
		{Group: "hall", Value: int64(3)},
		{Group: "kitchen", Value: true},
		{Group: "attic", Removed: true},
		{Group: "cellar", Value: "wet"},
		{Group: "garage", Value: 7},
	}
	got, err := new(colDec).decodeAggSync(encodeAggOrFatal(t, want), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}

	composite := []GroupPartial{{Group: "g", Value: struct{ Sum, N int }{3, 1}}}
	if _, ok := new(colEnc).encodeAggSync(composite); ok {
		t.Fatal("codec accepted a composite partial that must fall back to gob")
	}
}

// teeConn copies every byte a client writes into out, so a test can decode
// the requests the client put on the wire. A plain Client writes only from
// its calling goroutine, so a test that reads out between calls needs no
// lock.
type teeConn struct {
	net.Conn
	out *bytes.Buffer
}

func (c teeConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

// sentRequests decodes the request frames a teeConn recorded.
func sentRequests(t *testing.T, raw []byte) []request {
	t.Helper()
	dec := newFrameDecoder(bytes.NewReader(raw))
	var reqs []request
	for {
		var req request
		if err := dec.decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return reqs
			}
			t.Fatalf("decode recorded request: %v", err)
		}
		reqs = append(reqs, req)
	}
}

// TestPayloadPicksWireEncoding pins the one rule that chooses an encoding:
// a payload with a column form travels as a colv1 frame in Bin with no
// fallback counted; one without (indexed readings, rows of different
// sources, composite combiner partials) travels as the gob slice, is
// counted, and lands intact. Every case runs on a fresh connection, so
// nothing about the connection can influence the choice.
func TestPayloadPicksWireEncoding(t *testing.T) {
	now := time.Now()
	scalar := []device.Reading{
		{DeviceID: "s1", Source: "presence", Value: true, Time: now},
		{DeviceID: "s2", Source: "presence", Value: false, Time: now},
	}
	indexed := []device.Reading{{DeviceID: "s3", Source: "presence", Value: true, Index: "slot9", Time: now}}
	mixedSource := []device.Reading{
		{DeviceID: "s1", Source: "presence", Value: true, Time: now},
		{DeviceID: "s1", Source: "motion", Value: false, Time: now},
	}
	scalarAgg := []GroupPartial{{Group: "g", Value: 1.0}, {Group: "h", Removed: true}}
	compositeAgg := []GroupPartial{{Group: "g", Value: []any{3.5, int64(2)}}}

	cases := []struct {
		name     string
		readings []device.Reading // published as an event batch when set
		groups   []GroupPartial   // published as an agg sync otherwise
		bin      bool
	}{
		{name: "scalar batch", readings: scalar, bin: true},
		{name: "indexed batch", readings: indexed},
		{name: "mixed-source batch", readings: mixedSource},
		{name: "scalar agg partial", groups: scalarAgg, bin: true},
		{name: "composite agg partial", groups: compositeAgg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			fed := &fakeFed{accepted: 1 << 20, merged: 1}
			srv.ServeFederation(fed)
			var wire bytes.Buffer
			cli, err := Dial(srv.Addr(), WithDialer(func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				return teeConn{Conn: conn, out: &wire}, err
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			if tc.readings != nil {
				if accepted, err := cli.PublishEventBatch("Sensor", "presence", 1, 1, tc.readings); err != nil || accepted != len(tc.readings) {
					t.Fatalf("publish: accepted=%d err=%v", accepted, err)
				}
			} else if merged, err := cli.PublishAggSync("Sensor", "presence", "nodeA", tc.groups); err != nil || merged != 1 {
				t.Fatalf("agg sync: merged=%d err=%v", merged, err)
			}

			reqs := sentRequests(t, wire.Bytes())
			if len(reqs) != 1 {
				t.Fatalf("client sent %d requests, want exactly the one publish", len(reqs))
			}
			req := reqs[0]
			gobRows := len(req.Readings) + len(req.Groups)
			if tc.bin != (len(req.Bin) > 0) || tc.bin == (gobRows > 0) {
				t.Fatalf("%s request carried %d Bin bytes and %d gob rows, want column form %v", req.Op, len(req.Bin), gobRows, tc.bin)
			}
			wantFallbacks := uint64(1)
			if tc.bin {
				wantFallbacks = 0
			}
			if n := cli.CodecFallbacks(); n != wantFallbacks {
				t.Fatalf("counted %d fallbacks, want %d", n, wantFallbacks)
			}

			fed.mu.Lock()
			defer fed.mu.Unlock()
			if tc.readings != nil {
				if err := sameReadings(fed.gotReadings, tc.readings); err != nil {
					t.Fatalf("landed readings: %v", err)
				}
			} else if !reflect.DeepEqual(fed.gotGroups, tc.groups) {
				t.Fatalf("landed groups %+v, want %+v", fed.gotGroups, tc.groups)
			}
		})
	}
}

// TestMalformedBinPayloadEndsOnlyThatConn is the binary-payload twin of
// TestMalformedFrameEndsOnlyThatConn: a well-framed request whose colv1
// payload is garbage, is of an older version, references a
// string its connection never introduced, or carries both a colv1 frame and
// a gob slice, poisons that connection, never the server, and nothing
// reaches the federation handler — a request is never ingested twice, by a
// silent pick of one encoding, or with strings from another connection.
func TestMalformedBinPayloadEndsOnlyThatConn(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fed := &fakeFed{accepted: 1 << 20, merged: 1}
	srv.ServeFederation(fed)

	hostile := []byte{colVersion, 0xff, 0xff, 0xff, 0xff, 0x0f} // absurd count
	// A version-1 payload (per-payload string table) of two Boolean rows.
	version1 := []byte("\x01\x02\x00\x02s1\x00\x02s2\x00\x01p\x03\xd0\x0f\xe8\a\x01\x01\x00")
	// The same rows as a version-2 payload (connection dictionary, one
	// source per row): well-formed for its version, so only the version
	// byte refuses it.
	version2 := []byte("\x02\x02\x00\x02s1\x00\x02s2\x00\x01p\x03\xd0\x0f\xe8\a\x01\x01\x00")
	row := device.Reading{DeviceID: "s1", Source: "presence", Value: true, Time: time.Now()}
	group := GroupPartial{Group: "g", Value: 1.0}
	// foreign is a connection's second payload: it references the strings
	// the first introduced, so it is valid on that connection only.
	enc := new(colEnc)
	intro := encodeOn(t, enc, []device.Reading{row})
	foreign := encodeOn(t, enc, []device.Reading{row})
	var warm colDec
	if _, err := warm.decodeReadings(intro, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := warm.decodeReadings(foreign, nil); err != nil || sameReadings(got, []device.Reading{row}) != nil {
		t.Fatalf("the payload does not decode on its own connection: %v", err)
	}
	for name, bin := range map[string][]byte{"version 1": version1, "version 2": version2, "foreign token": foreign} {
		if _, err := new(colDec).decodeReadings(bin, nil); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s payload on a fresh connection: err %v, want ErrBadFrame", name, err)
		}
	}
	cases := []struct {
		name string
		req  request
	}{
		{"event_batch hostile Bin", request{Op: "event_batch", Bin: hostile}},
		{"event_batch version 1 Bin", request{Op: "event_batch", Stream: 1, Seq: 1, Bin: version1}},
		{"event_batch version 2 Bin", request{Op: "event_batch", Stream: 1, Seq: 1, Bin: version2}},
		{"event_batch token never introduced", request{Op: "event_batch", Stream: 1, Seq: 1, Bin: foreign}},
		{"event_batch Bin and Readings", request{Op: "event_batch", Stream: 1, Seq: 1,
			Bin: encodeReadingsOrFatal(t, []device.Reading{row}), Readings: []device.Reading{row}}},
		{"agg_sync hostile Bin", request{Op: "agg_sync", Bin: hostile}},
		{"agg_sync Bin and Groups", request{Op: "agg_sync", Origin: "nodeA",
			Bin: encodeAggOrFatal(t, []GroupPartial{group}), Groups: []GroupPartial{group}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer bad.Close()
			req := tc.req
			req.ID, req.Kind, req.Facet = 1, "Sensor", "presence"
			if err := newFrameWriter(bad).send(&req); err != nil {
				t.Fatal(err)
			}
			_ = bad.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := bad.Read(make([]byte, 1)); err == nil {
				t.Fatal("server kept a connection that sent a hostile payload")
			}
			if fed.calls.Load() != 0 {
				t.Fatal("hostile payload reached the federation handler")
			}
		})
	}

	// A connection arriving after the abuse publishes normally.
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if accepted, err := cli.PublishEventBatch("Sensor", "presence", 1, 1, []device.Reading{row}); err != nil || accepted != 1 {
		t.Fatalf("healthy conn after abuse: accepted=%d err=%v", accepted, err)
	}
}

// fuzzPayloads joins the payloads one connection receives into one fuzz
// input, in the format splitPayloads reads back.
func fuzzPayloads(bins ...[]byte) []byte {
	var data []byte
	for _, bin := range bins {
		data = binary.AppendUvarint(data, uint64(len(bin)))
		data = append(data, bin...)
	}
	return data
}

// splitPayloads cuts one fuzz input into the payloads one connection
// receives in sequence, each a uvarint length and that many bytes. A tail
// that does not parse as one is the last payload as it stands.
func splitPayloads(data []byte) [][]byte {
	var bins [][]byte
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k) {
			return append(bins, data)
		}
		bins = append(bins, data[k:k+int(n)])
		data = data[k+int(n):]
	}
	return bins
}

// fuzzDecodeSeeds are hostile shapes shared by both decoder fuzz targets,
// each the first payload of its connection.
func fuzzDecodeSeeds(f *testing.F) {
	for _, bin := range [][]byte{
		{},                                    // empty payload
		{0},                                   // version 0
		{1, 1, 0, 1, 'a', 9},                  // version 1: per-payload string table
		{2, 1, 0, 1, 'a', 0, 1, 'p', 2, 1, 1}, // version 2: one source per row
		{colVersion + 1, 1},                   // unknown version
		{colVersion},                          // missing count
		{colVersion, 0xff, 0xff, 0xff, 0xff, 0x0f}, // absurd count
		{colVersion, 1, 0, 0xff},                   // string length past end
		{colVersion, 1, 0, 1, 'a', 9},              // string token out of dictionary
		{colVersion, 1, 0, 1, 'a', 0, 1, 'b', 0},   // truncated mid-columns
	} {
		f.Add(fuzzPayloads(bin))
	}
}

// decodeConn decodes a fuzz input's payloads in sequence on one connection's
// decoder, the way the serve loop does. Every rejection must wrap
// ErrBadFrame so the server's poison-the-conn contract holds, and ends the
// connection; the dictionary never exceeds its bound.
func decodeConn(t *testing.T, data []byte, decode func(d *colDec, bin []byte) error) {
	var d colDec
	for i, bin := range splitPayloads(data) {
		err := decode(&d, bin)
		if len(d.tab) > internMaxEntries {
			t.Fatalf("payload %d: dictionary holds %d strings, cap %d", i, len(d.tab), internMaxEntries)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("payload %d: decode error does not wrap ErrBadFrame: %v", i, err)
			}
			return
		}
	}
}

// FuzzDecodeEventBatch drives the event-batch column decoder with mutated
// payloads, several in sequence on one connection's decoder: it must never
// panic, and every rejection must wrap ErrBadFrame.
func FuzzDecodeEventBatch(f *testing.F) {
	fuzzDecodeSeeds(f)
	enc := new(colEnc)
	intro := encodeOn(f, enc, []device.Reading{
		{DeviceID: "s1", Source: "presence", Value: true, Time: time.Unix(0, 1_700_000_000_000_000_000)},
		{DeviceID: "s2", Source: "presence", Value: false, Time: time.Unix(0, 1_700_000_000_000_000_500)},
	})
	// The same connection's next payload references what the first
	// introduced; alone it names tokens its connection never introduced.
	warm := encodeOn(f, enc, []device.Reading{
		{DeviceID: "s2", Source: "presence", Value: true, Time: time.Unix(0, 1_700_000_001_000_000_000)},
		{DeviceID: "s3", Source: "presence", Value: true, Time: time.Unix(0, 1_700_000_001_000_000_000)},
	})
	f.Add(fuzzPayloads(intro))
	f.Add(fuzzPayloads(intro, warm))
	f.Add(fuzzPayloads(warm))
	f.Add(fuzzPayloads(encodeReadingsOrFatal(f, []device.Reading{
		{DeviceID: "t1", Source: "temperature", Value: 21.75, Time: time.Unix(0, 1_700_000_000_000_000_000)},
	})))
	f.Add(fuzzPayloads(encodeReadingsOrFatal(f, []device.Reading{
		{DeviceID: "m1", Source: "mode", Value: "eco", Time: time.Unix(0, 1_700_000_000_000_000_000)},
		{DeviceID: "m2", Source: "mode", Value: "boost", Time: time.Unix(0, 1_700_000_001_000_000_000)},
	})))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeConn(t, data, func(d *colDec, bin []byte) error {
			readings, err := d.decodeReadings(bin, nil)
			// Accepted payloads may use representations the encoder itself
			// avoids (e.g. the int tag); spot-check structural sanity.
			for i := range readings {
				_ = readings[i].Time.UnixNano()
			}
			return err
		})
	})
}

// FuzzDecodeAggSync is FuzzDecodeEventBatch's twin for the agg_sync
// payload decoder.
func FuzzDecodeAggSync(f *testing.F) {
	fuzzDecodeSeeds(f)
	enc := new(colEnc)
	intro := encodeAggOn(f, enc, []GroupPartial{
		{Group: "kitchen", Value: 21.5},
		{Group: "attic", Removed: true},
	})
	warm := encodeAggOn(f, enc, []GroupPartial{{Group: "kitchen", Value: "wet"}, {Group: "cellar", Value: 2}})
	f.Add(fuzzPayloads(intro))
	f.Add(fuzzPayloads(intro, warm))
	f.Add(fuzzPayloads(encodeAggOrFatal(f, []GroupPartial{
		{Group: "hall", Value: int64(12)},
		{Group: "hall", Value: "wet"},
		{Group: "garage", Value: true},
	})))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeConn(t, data, func(d *colDec, bin []byte) error {
			groups, err := d.decodeAggSync(bin, nil)
			for i := range groups {
				_ = len(groups[i].Group)
			}
			return err
		})
	})
}
