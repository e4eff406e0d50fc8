package federation_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/devsim/chaos"
	"repro/internal/dsl"
	"repro/internal/federation"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// linkScript scripts the bytes of the edge→hub connection from underneath
// the transport client, on top of a chaos link: responses can be held back
// (the hub answers, the edge never hears it) and request frames swallowed
// after a quota (the edge believes they left, the hub never sees them). Held
// reads end in a sever: the test partitions the chaos link, then calls
// sever, and the held bytes are lost with the connection.
type linkScript struct {
	mu     sync.Mutex
	held   chan struct{} // non-nil while reads are held; closed by sever
	writes int           // request writes still passed on; negative = all
}

func (s *linkScript) dialer(inner transport.Dialer) transport.Dialer {
	return func(addr string) (net.Conn, error) {
		c, err := inner(addr)
		if err != nil {
			return nil, err
		}
		return &scriptedConn{Conn: c, s: s}, nil
	}
}

// arm holds every response from now on and passes only the next writes
// request frames through.
func (s *linkScript) arm(writes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held, s.writes = make(chan struct{}), writes
}

// sever fails the held reads and returns the link to pass-through for the
// connections dialed after the heal.
func (s *linkScript) sever() {
	s.mu.Lock()
	defer s.mu.Unlock()
	close(s.held)
	s.held, s.writes = nil, -1
}

type scriptedConn struct {
	net.Conn
	s *linkScript
}

var errSevered = errors.New("linkScript: connection severed with responses in flight")

func (c *scriptedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.s.mu.Lock()
	held := c.s.held
	c.s.mu.Unlock()
	if held != nil {
		<-held
		return 0, errSevered
	}
	return n, err
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	c.s.mu.Lock()
	pass := c.s.writes != 0
	if c.s.writes > 0 {
		c.s.writes--
	}
	c.s.mu.Unlock()
	if !pass {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// replayRig is one edge→hub forwarding pair over a scripted chaos link, with
// nothing but the test driving traffic: no devices, no heartbeats inside the
// test's time scale, bursts shipped through Node.ForwardBurst.
type replayRig struct {
	cn     *chaos.Net
	script *linkScript
	hubRT  *runtime.Runtime
	hub    *federation.Node
	edge   *federation.Node
	rec    *recordCtx
	sent   int // readings handed to ForwardBurst so far: the ground truth
}

const (
	replayLink  = "edge->hub"
	replayChunk = 4 // MaxBatch: small, so one request frame is one write
)

func newReplayRig(t *testing.T, seed int64) *replayRig {
	t.Helper()
	r := &replayRig{cn: chaos.NewNet(seed), script: &linkScript{writes: -1}, rec: &recordCtx{seq: make(map[string][]bool)}}
	model, err := dsl.Load(consumerDesign)
	if err != nil {
		t.Fatal(err)
	}
	r.hubRT = runtime.New(model, runtime.WithClock(simclock.NewVirtual(epoch)))
	if err := r.hubRT.ImplementContext("Occupancy", r.rec); err != nil {
		t.Fatal(err)
	}
	if err := r.hubRT.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.hubRT.Stop)
	if r.hub, err = federation.New(federation.Config{Name: "hub", Runtime: r.hubRT}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.hub.Close)

	edgeModel, err := dsl.Load(ownerDesign)
	if err != nil {
		t.Fatal(err)
	}
	edgeRT := runtime.New(edgeModel, runtime.WithClock(simclock.NewVirtual(epoch)))
	if err := edgeRT.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(edgeRT.Stop)
	if r.edge, err = federation.New(federation.Config{Name: "edge", Runtime: edgeRT}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.edge.Close)
	if err := r.edge.AddPeer(federation.PeerConfig{
		Name: "hub", Addr: r.hub.Addr(), MaxBatch: replayChunk,
		Dialer:              r.script.dialer(r.cn.Dialer(replayLink)),
		CallTimeout:         10 * time.Second,
		HeartbeatInterval:   time.Hour, // a held ping would time the link out mid-script
		ReconnectBackoff:    2 * time.Millisecond,
		ReconnectBackoffMax: 10 * time.Millisecond,
		Seed:                seed,
	}); err != nil {
		t.Fatal(err)
	}
	// One plain burst first: it ships the gob type descriptors, so every
	// later request frame is one small write.
	r.forward(t, 2)
	waitFor(t, "warm-up delivery", func() bool { return r.rec.n.Load() == 2 })
	return r
}

// burst makes n readings of n devices no earlier burst used.
func (r *replayRig) burst(n int) []device.Reading {
	rs := make([]device.Reading, n)
	for i := range rs {
		rs[i] = device.Reading{DeviceID: fmt.Sprintf("dev-%04d", r.sent+i), Source: "presence", Value: i%2 == 0, Time: epoch}
	}
	r.sent += n
	return rs
}

func (r *replayRig) forward(t *testing.T, n int) {
	t.Helper()
	r.edge.ForwardBurst("hub", "PresenceSensor", "presence", r.burst(n))
}

// forwardAsync starts a burst whose flush the test is about to interrupt.
func (r *replayRig) forwardAsync(n int) (done chan struct{}) {
	batch := r.burst(n)
	done = make(chan struct{})
	go func() {
		defer close(done)
		r.edge.ForwardBurst("hub", "PresenceSensor", "presence", batch)
	}()
	return done
}

// cutAndHeal severs the armed connection with its responses still held,
// waits until the flusher has parked on the outage, and heals the link.
func (r *replayRig) cutAndHeal(t *testing.T) {
	t.Helper()
	retries := r.edge.Stats().ForwardRetries
	r.cn.Partition(replayLink)
	r.script.sever()
	waitFor(t, "flusher parks on the outage", func() bool { return r.edge.Stats().ForwardRetries > retries })
	r.cn.Heal(replayLink)
}

// checkExact asserts the invariants every replay scenario must end in.
func (r *replayRig) checkExact(t *testing.T, wantDups uint64) {
	t.Helper()
	waitFor(t, "every reading delivered", func() bool { return r.rec.n.Load() == uint64(r.sent) })
	est, hst := r.edge.Stats(), r.hubRT.Stats()
	if est.EventsForwarded != hst.FederationEventsIn {
		t.Fatalf("edge forwarded %d readings, hub admitted %d", est.EventsForwarded, hst.FederationEventsIn)
	}
	drops := est.Drops() + hst.Drops()
	if got := r.rec.n.Load() + drops; got != uint64(r.sent) {
		t.Fatalf("delivered %d + dropped %d != accepted %d", r.rec.n.Load(), drops, r.sent)
	}
	for id, vals := range r.rec.sequences() {
		if len(vals) != 1 {
			t.Fatalf("device %s delivered %d times, want once", id, len(vals))
		}
	}
	if got := r.hub.Stats().EventDupsSuppressed; got != wantDups {
		t.Fatalf("hub suppressed %d replayed chunks, want %d", got, wantDups)
	}
	if est.ForwardRetries == 0 {
		t.Fatalf("the severed window was never retried: %+v", est)
	}
}

// TestReplayWithWindowInFlight severs the connection with a full window of
// chunks sent, j of them ingested by the hub and none acknowledged, for every
// j: after the heal the edge replays the whole window in order under the
// original sequence numbers, the hub answers the j it already ingested from
// its ring and ingests the rest, and the accounting is exact.
func TestReplayWithWindowInFlight(t *testing.T) {
	const window = federation.ForwardWindow
	for j := 0; j <= window; j++ {
		j := j
		t.Run(fmt.Sprintf("ingested=%d", j), func(t *testing.T) {
			r := newReplayRig(t, int64(100+j))
			base := r.edge.Stats().EventBatchesSent
			admitted := r.hubRT.Stats().FederationEventsIn
			r.script.arm(j) // j request frames reach the hub; no response reaches the edge
			done := r.forwardAsync(window * replayChunk)
			waitFor(t, "window sent, hub ingested its share", func() bool {
				return r.edge.Stats().EventBatchesSent == base+window &&
					r.hubRT.Stats().FederationEventsIn == admitted+uint64(j*replayChunk)
			})
			r.cutAndHeal(t)
			<-done
			r.checkExact(t, uint64(j))
			// The healed stream keeps forwarding exactly.
			r.forward(t, 3*replayChunk)
			r.checkExact(t, uint64(j))
		})
	}
}

// stragglerScript orders the arrivals of one stream's second chunk at the
// hub: the copy buffered on the old connection waits for releaseOld, the
// replayed copy on the new connection for releaseNew.
type stragglerScript struct {
	transport.FederationHandler
	mu         sync.Mutex
	armed      bool
	arrivals   map[uint64]int
	releaseOld chan struct{}
	releaseNew chan struct{}
	handled    chan [2]uint64 // (seq, arrival) after the node's handler returned
}

func (s *stragglerScript) IngestEventBatch(stream, seq uint64, kind, source string, rs []device.Reading) int {
	s.mu.Lock()
	armed := s.armed
	s.arrivals[seq]++
	arrival := s.arrivals[seq]
	s.mu.Unlock()
	if !armed {
		return s.FederationHandler.IngestEventBatch(stream, seq, kind, source, rs)
	}
	if seq == 2 {
		switch arrival {
		case 1:
			<-s.releaseOld
		case 2:
			<-s.releaseNew
		}
	}
	n := s.FederationHandler.IngestEventBatch(stream, seq, kind, source, rs)
	s.handled <- [2]uint64{seq, uint64(arrival)}
	return n
}

// TestReplayStragglerRace replays the race the per-stream mutex and the ring
// exist for: chunks k and k+1 are sent, the hub ingests k, and k+1 is still
// sitting in the old connection's buffer when the link is cut. After the heal
// the new connection delivers k (a replay), then the old connection's k+1
// finally lands (ingested — it is the first copy to arrive), then the new
// connection's k+1 (now the replay, answered the straggler's count).
func TestReplayStragglerRace(t *testing.T) {
	r := newReplayRig(t, 7)
	script := &stragglerScript{
		arrivals:   make(map[uint64]int),
		releaseOld: make(chan struct{}),
		releaseNew: make(chan struct{}),
		handled:    make(chan [2]uint64, 8), // the burst's four arrivals, with room
	}
	r.hub.InterposeFederationHandler(func(h transport.FederationHandler) transport.FederationHandler {
		script.FederationHandler = h
		return script
	})
	expect := func(seq, arrival uint64) {
		t.Helper()
		select {
		case got := <-script.handled:
			if got != [2]uint64{seq, arrival} {
				t.Fatalf("hub handled (seq %d, arrival %d), want (seq %d, arrival %d)", got[0], got[1], seq, arrival)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("hub never handled (seq %d, arrival %d)", seq, arrival)
		}
	}

	script.mu.Lock()
	script.armed = true // the burst below is a fresh stream: its chunks are seq 1 and 2
	script.mu.Unlock()
	r.script.arm(-1) // every request passes, no response comes back
	done := r.forwardAsync(2 * replayChunk)
	expect(1, 1) // k ingested on the old connection
	waitFor(t, "k+1 held on the old connection", func() bool {
		script.mu.Lock()
		defer script.mu.Unlock()
		return script.arrivals[2] == 1
	})
	r.cutAndHeal(t)
	expect(1, 2) // the replay of k on the new connection: suppressed
	close(script.releaseOld)
	expect(2, 1) // the straggler: ingested
	close(script.releaseNew)
	expect(2, 2) // the replay of k+1: suppressed, answered the straggler's count
	<-done
	r.checkExact(t, 2)
}

// TestReplayRingAnswersOriginalCounts drives the hub's handler directly: a
// replayed chunk is answered the count of its first ingestion, however many
// younger chunks of the window were ingested since, and is never ingested
// again; a chunk older than the ring is suppressed with a zero answer.
func TestReplayRingAnswersOriginalCounts(t *testing.T) {
	const window = federation.ForwardWindow
	r := newReplayRig(t, 9)
	var h transport.FederationHandler
	r.hub.InterposeFederationHandler(func(inner transport.FederationHandler) transport.FederationHandler {
		h = inner
		return inner
	})
	const stream = 42
	ingest := func(seq uint64, n int) int {
		return h.IngestEventBatch(stream, seq, "PresenceSensor", "presence", r.burst(n))
	}
	// Chunk seq carries seq readings, so every count is distinct.
	for seq := uint64(1); seq <= window; seq++ {
		if got := ingest(seq, int(seq)); got != int(seq) {
			t.Fatalf("chunk %d admitted %d", seq, got)
		}
	}
	admitted := r.hubRT.Stats().FederationEventsIn
	delivered := r.sent
	for seq := uint64(window); seq >= 1; seq-- {
		if got := ingest(seq, 1); got != int(seq) {
			t.Fatalf("replay of chunk %d answered %d, want its original %d", seq, got, seq)
		}
	}
	// One more chunk pushes seq 1 out of the ring.
	if got := ingest(window+1, 2); got != 2 {
		t.Fatalf("chunk %d admitted %d", window+1, got)
	}
	delivered += 2
	if got := ingest(1, 1); got != 0 {
		t.Fatalf("a chunk older than the ring answered %d, want 0", got)
	}
	if got := ingest(2, 1); got != 2 {
		t.Fatalf("replay of chunk 2 answered %d after the ring advanced, want 2", got)
	}
	if got := r.hubRT.Stats().FederationEventsIn; got != admitted+2 {
		t.Fatalf("replays were ingested: hub admitted %d more readings, want 2", got-admitted)
	}
	if got, want := r.hub.Stats().EventDupsSuppressed, uint64(window+2); got != want {
		t.Fatalf("suppressed %d replays, want %d", got, want)
	}
	waitFor(t, "fresh chunks delivered", func() bool { return r.rec.n.Load() == uint64(delivered) })
}
