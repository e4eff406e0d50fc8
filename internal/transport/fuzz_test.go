package transport

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/device"
)

// Fuzzing the wire codec: serveConn is fed arbitrary bytes as if a hostile
// or corrupted peer wrote them. The contract under test is narrow and
// absolute — the serve loop must terminate cleanly on any input, never
// panic, and never hang. The seed corpus below (plus testdata/fuzz/) runs
// as ordinary regression cases on every `go test ./...`.

// encodeFrames gob+frame-encodes a sequence of requests the way a real
// client would, giving the fuzzer well-formed protocol bytes to mutate.
func encodeFrames(t testing.TB, reqs ...request) []byte {
	t.Helper()
	ensureBasicTypes()
	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	for i := range reqs {
		if err := fw.send(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// serveBytes runs one serveConn round against raw client-side bytes and
// fails the test if the serve loop does not terminate promptly. A
// federation handler is installed so federation payloads reach the colv1
// decoder instead of stopping at "federation not served here".
func serveBytes(t testing.TB, data []byte) {
	t.Helper()
	ensureBasicTypes()
	srv := &Server{
		drivers: make(map[string]device.Driver),
		conns:   make(map[net.Conn]struct{}),
	}
	srv.ServeFederation(&fakeFed{accepted: 1 << 20, merged: 1})
	cliSide, srvSide := net.Pipe()
	srv.conns[srvSide] = struct{}{}
	srv.wg.Add(1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(srvSide)
	}()
	// Drain whatever the server writes back so its writer goroutine can
	// never block on the synchronous pipe.
	go func() { _, _ = io.Copy(io.Discard, cliSide) }()

	_, _ = cliSide.Write(data) // short writes are fine once the server hangs up
	_ = cliSide.Close()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("serve loop hung on fuzz input")
	}
}

// FuzzWireCodec drives the server's frame+gob decode path with mutated
// protocol bytes.
func FuzzWireCodec(f *testing.F) {
	// Well-formed conversations the mutator starts from.
	f.Add(encodeFrames(f, request{ID: 1, Op: "ping"}))
	f.Add(encodeFrames(f,
		request{ID: 1, Op: "query", Device: "ghost", Facet: "presence"},
		request{ID: 2, Op: "invoke", Device: "ghost", Facet: "toggle"},
	))
	f.Add(encodeFrames(f, request{ID: 3, Op: "registry_sync", Kinds: []string{"Sensor"}, Gens: []uint64{7}}))
	f.Add(encodeFrames(f, request{ID: 4, Op: "event_batch", Kind: "Sensor", Facet: "presence",
		Readings: []device.Reading{{DeviceID: "s1", Source: "presence", Value: true}}}))
	f.Add(encodeFrames(f, request{ID: 5, Op: "subscribe", Device: "ghost", Facet: "presence", SubID: 9}))
	f.Add(encodeFrames(f, request{ID: 6, Op: "bogus_op"}))
	// Two column-codec batches on one connection, the first introducing more
	// distinct strings than the connection's dictionary may hold
	// (TestInternTableIsBounded checks the decode and the bound directly).
	enc := new(colEnc)
	f.Add(encodeFrames(f,
		request{ID: 7, Op: "event_batch", Kind: "Sensor", Facet: "presence", Stream: 1, Seq: 1,
			Bin: encodeOn(f, enc, internFlood())},
		request{ID: 8, Op: "event_batch", Kind: "Sensor", Facet: "presence", Stream: 1, Seq: 2,
			Bin: encodeOn(f, enc, boolChunk(4))},
	))
	// A batch carrying both encodings, which must end the connection
	// without ingesting either.
	f.Add(encodeFrames(f, request{ID: 9, Op: "event_batch", Kind: "Sensor", Facet: "presence", Stream: 1, Seq: 1,
		Bin: encodeReadingsOrFatal(f, boolChunk(2)), Readings: boolChunk(2)}))

	// Known-hostile shapes.
	valid := encodeFrames(f, request{ID: 1, Op: "ping"})
	f.Add(valid[:len(valid)-2])                             // truncated mid-payload
	f.Add([]byte{})                                         // empty stream
	f.Add([]byte{0x00})                                     // zero-length frame
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20})       // huge length prefix
	f.Add([]byte{0x05, 0xde, 0xad, 0xbe, 0xef, 0x00})       // garbage payload
	f.Add(append(append([]byte{}, valid...), valid[:3]...)) // valid frame then torn one
	f.Add(bytes.Repeat([]byte{0xff}, 64))                   // all continuation bits

	f.Fuzz(func(t *testing.T, data []byte) {
		serveBytes(t, data)
	})
}

// The seed conversations above must also hold when replayed through a real
// client-visible TCP server (not just the pipe harness): a malformed frame
// ends the connection without taking the listener down.
func TestMalformedFrameEndsOnlyThatConn(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hostedSensor(srv, "s1")

	// Conn 1 speaks garbage and gets hung up on.
	bad, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte{0x05, 0xde, 0xad, 0xbe, 0xef, 0x00}); err != nil {
		t.Fatal(err)
	}
	_ = bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bad.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept a connection that spoke garbage")
	}

	// Conn 2, arriving after the abuse, is served normally.
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if v, err := cli.Query("s1", "presence"); err != nil || v != true {
		t.Fatalf("healthy conn after abuse: v=%v err=%v", v, err)
	}
}
