package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/registry"
)

func newServerAndClient(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return srv, cli
}

func hostedSensor(srv *Server, id string) *device.Base {
	b := device.NewBase(id, "PresenceSensor", nil, registry.Attributes{"parkingLot": "A22"}, nil)
	present := true
	b.OnQuery("presence", func() (any, error) { return present, nil })
	b.OnAction("toggle", func(...any) error { present = !present; return nil })
	srv.Host(b)
	return b
}

func TestRemoteQuery(t *testing.T) {
	srv, cli := newServerAndClient(t)
	hostedSensor(srv, "s1")
	v, err := cli.Query("s1", "presence")
	if err != nil {
		t.Fatal(err)
	}
	if v != true {
		t.Fatalf("Query = %v, want true", v)
	}
}

func TestRemoteInvoke(t *testing.T) {
	srv, cli := newServerAndClient(t)
	hostedSensor(srv, "s1")
	if err := cli.Invoke("s1", "toggle"); err != nil {
		t.Fatal(err)
	}
	v, _ := cli.Query("s1", "presence")
	if v != false {
		t.Fatalf("presence after toggle = %v, want false", v)
	}
}

func TestRemoteInvokeWithArgs(t *testing.T) {
	srv, cli := newServerAndClient(t)
	b := device.NewBase("panel", "DisplayPanel", nil, nil, nil)
	var mu sync.Mutex
	var got []string
	b.OnAction("update", func(args ...any) error {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, args[0].(string))
		return nil
	})
	srv.Host(b)
	if err := cli.Invoke("panel", "update", "12 free"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "12 free" {
		t.Fatalf("update args = %v", got)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	srv, cli := newServerAndClient(t)
	hostedSensor(srv, "s1")
	if _, err := cli.Query("s1", "nonexistent"); err == nil {
		t.Fatal("unknown source succeeded remotely")
	}
	if _, err := cli.Query("ghost", "presence"); err == nil || err.Error() != "unknown device ghost" {
		t.Fatalf("err = %v, want unknown device", err)
	}
	if err := cli.Invoke("ghost", "x"); err == nil {
		t.Fatal("invoke on unknown device succeeded")
	}
}

// chanSink hands every pushed reading to a buffered channel.
type chanSink chan device.Reading

func (c chanSink) Push(r device.Reading) { c <- r }

func TestRemoteSubscribe(t *testing.T) {
	srv, cli := newServerAndClient(t)
	b := hostedSensor(srv, "s1")
	sink := make(chanSink, 3)
	cancel, err := cli.Subscribe("s1", "presence", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	for i := 0; i < 3; i++ {
		b.Emit("presence", i)
	}
	for i := 0; i < 3; i++ {
		select {
		case r := <-sink:
			if r.Value != i || r.DeviceID != "s1" {
				t.Fatalf("reading %d = %+v", i, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("reading %d not pushed", i)
		}
	}
}

// countSink counts pushed readings.
type countSink struct{ n atomic.Int64 }

func (c *countSink) Push(device.Reading) { c.n.Add(1) }

// TestRemoteSubscribeBurstLossless: a hosted Base that emits a burst far
// larger than any queue on the way pushes every reading into the remote
// sink; the emitter waits on the connection's answer queue instead of
// dropping.
func TestRemoteSubscribeBurstLossless(t *testing.T) {
	srv, cli := newServerAndClient(t)
	b := hostedSensor(srv, "s1")
	sink := &countSink{}
	cancel, err := cli.Subscribe("s1", "presence", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	const burst = 1000
	for i := 0; i < burst; i++ {
		b.Emit("presence", i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sink.n.Load() < burst && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sink.n.Load(); got != burst {
		t.Fatalf("remote sink saw %d of %d readings", got, burst)
	}
}

// marker attaches a second sink on the connection and waits for one reading
// emitted through it. Pushes share the connection's answer queue in order,
// so any reading emitted before the marker has reached its sink by then.
func marker(t *testing.T, cli *Client, b *device.Base, id string) {
	t.Helper()
	sink := make(chanSink, 1)
	cancel, err := cli.Subscribe(id, "presence", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	b.Emit("presence", "marker")
	select {
	case <-sink:
	case <-time.After(5 * time.Second):
		t.Fatal("marker reading not pushed")
	}
}

func TestSubscribeCancelStopsPushes(t *testing.T) {
	srv, cli := newServerAndClient(t)
	b := hostedSensor(srv, "s1")
	sink := make(chanSink, 1)
	cancel, err := cli.Subscribe("s1", "presence", sink)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	cancel() // idempotent
	b.Emit("presence", 1)
	marker(t, cli, b, "s1")
	if len(sink) != 0 {
		t.Fatal("reading delivered after cancel")
	}
}

// TestSubscribeReusedSubIDReplaces: a client that subscribes twice under
// one subscription ID gets one attachment, not two: the server cancels the
// first, so a reading is pushed once and nothing outlives the connection.
func TestSubscribeReusedSubIDReplaces(t *testing.T) {
	srv, cli := newServerAndClient(t)
	b := hostedSensor(srv, "s1")
	other := hostedSensor(srv, "s2")
	sink := make(chanSink, 2)
	const subID = 1 << 40 // far from the IDs the client hands out itself
	cli.mu.Lock()
	cli.subs[subID] = sink
	cli.mu.Unlock()
	for i := 0; i < 2; i++ {
		if _, err := cli.call(request{Op: "subscribe", Device: "s1", Facet: "presence", SubID: subID}); err != nil {
			t.Fatal(err)
		}
	}
	b.Emit("presence", 1)
	marker(t, cli, other, "s2")
	if len(sink) != 1 {
		t.Fatalf("%d pushes of one reading under a reused subscription ID, want 1", len(sink))
	}
}

func TestDeviceCloseClosesRemoteStream(t *testing.T) {
	srv, cli := newServerAndClient(t)
	b := hostedSensor(srv, "s1")
	other := hostedSensor(srv, "s2")
	sink := make(chanSink, 1)
	if _, err := cli.Subscribe("s1", "presence", sink); err != nil {
		t.Fatal(err)
	}
	b.Close()
	b.Emit("presence", 1)
	marker(t, cli, other, "s2")
	if len(sink) != 0 {
		t.Fatal("reading delivered after device Close")
	}
	if _, err := cli.Subscribe("s1", "presence", sink); err == nil {
		t.Fatal("subscribe to a closed device succeeded")
	}
}

func TestClientCloseFailsCallsAndSubs(t *testing.T) {
	srv, cli := newServerAndClient(t)
	b := hostedSensor(srv, "s1")
	sink := make(chanSink, 1)
	cancel, err := cli.Subscribe("s1", "presence", sink)
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	cancel() // nothing left to cancel: returns without a call
	b.Emit("presence", 1)
	if len(sink) != 0 {
		t.Fatal("reading delivered after client Close")
	}
	if _, err := cli.Query("s1", "presence"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close err = %v, want ErrClosed", err)
	}
}

func TestCallTimeout(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	blocker := device.NewBase("slow", "S", nil, nil, nil)
	release := make(chan struct{})
	blocker.OnQuery("x", func() (any, error) { <-release; return nil, nil })
	srv.Host(blocker)
	t.Cleanup(func() { close(release) })

	cli, err := Dial(srv.Addr(), WithCallTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	if _, err := cli.Query("slow", "x"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestUnhost(t *testing.T) {
	srv, cli := newServerAndClient(t)
	hostedSensor(srv, "s1")
	srv.Unhost("s1")
	if _, err := cli.Query("s1", "presence"); err == nil {
		t.Fatal("query to unhosted device succeeded")
	}
}

func TestRemoteDriverProxy(t *testing.T) {
	srv, cli := newServerAndClient(t)
	b := hostedSensor(srv, "s1")
	entity := b.Entity(srv.Addr())
	var drv device.Driver = NewRemoteDriver(cli, entity)

	if drv.ID() != "s1" || drv.Kind() != "PresenceSensor" {
		t.Fatalf("proxy identity = %s/%s", drv.ID(), drv.Kind())
	}
	if drv.Attributes()["parkingLot"] != "A22" {
		t.Fatalf("proxy attrs = %v", drv.Attributes())
	}
	if kinds := drv.Kinds(); len(kinds) != 1 || kinds[0] != "PresenceSensor" {
		t.Fatalf("proxy kinds = %v", kinds)
	}
	v, err := drv.Query("presence")
	if err != nil || v != true {
		t.Fatalf("proxy query = %v, %v", v, err)
	}
	if err := drv.Invoke("toggle"); err != nil {
		t.Fatal(err)
	}
	sink := make(chanSink, 1)
	cancel, err := drv.SubscribePush("presence", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	b.Emit("presence", false)
	select {
	case r := <-sink:
		if r.Value != false {
			t.Fatalf("reading = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("proxy subscription silent")
	}
}

func TestManyConcurrentCalls(t *testing.T) {
	srv, cli := newServerAndClient(t)
	hostedSensor(srv, "s1")
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.Query("s1", "presence"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMultipleClients(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hostedSensor(srv, "s1")
	for i := 0; i < 4; i++ {
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if v, err := cli.Query("s1", "presence"); err != nil || v != true {
			t.Fatalf("client %d: %v %v", i, v, err)
		}
		cli.Close()
	}
}

func TestServerCloseIdempotentAndDisconnects(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hostedSensor(srv, "s1")
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close()
	srv.Close()
	if _, err := cli.Query("s1", "presence"); err == nil {
		t.Fatal("query succeeded after server Close")
	}
}

func TestLinkLatencyAndLoss(t *testing.T) {
	b := device.NewBase("s1", "S", nil, nil, nil)
	b.OnQuery("x", func() (any, error) { return 1, nil })

	// Pure latency link: every op delayed, none lost.
	l := NewLink(b, LinkProfile{Latency: time.Millisecond, Seed: 1})
	start := time.Now()
	if _, err := l.Query("x"); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("link did not delay the query")
	}

	// Always-lose link.
	lossy := NewLink(b, LinkProfile{LossRate: 1.0, Seed: 2})
	_, err := lossy.Query("x")
	var loss *ErrLinkLoss
	if !errors.As(err, &loss) || loss.Op != "query" {
		t.Fatalf("err = %v, want ErrLinkLoss", err)
	}
	if _, lost := lossy.Stats(); lost != 1 {
		t.Fatalf("lost = %d, want 1", lost)
	}
	if err := lossy.Invoke("anything"); err == nil {
		t.Fatal("lossy invoke succeeded")
	}
	if _, err := lossy.SubscribePush("x", make(chanSink)); err == nil {
		t.Fatal("lossy subscribe succeeded")
	}
}

func TestLinkDeterministicLossSequence(t *testing.T) {
	b := device.NewBase("s1", "S", nil, nil, nil)
	b.OnQuery("x", func() (any, error) { return 1, nil })
	run := func() []bool {
		l := NewLink(b, LinkProfile{LossRate: 0.5, Seed: 99})
		var outcome []bool
		for i := 0; i < 32; i++ {
			_, err := l.Query("x")
			outcome = append(outcome, err == nil)
		}
		return outcome
	}
	a, bseq := run(), run()
	for i := range a {
		if a[i] != bseq[i] {
			t.Fatalf("loss sequence not deterministic at %d", i)
		}
	}
}

func TestLinkPassthroughIdentity(t *testing.T) {
	b := device.NewBase("s1", "PresenceSensor", []string{"PresenceSensor", "Sensor"},
		registry.Attributes{"parkingLot": "B16"}, nil)
	l := NewLink(b, LinkProfile{})
	if l.ID() != "s1" || l.Kind() != "PresenceSensor" || len(l.Kinds()) != 2 ||
		l.Attributes()["parkingLot"] != "B16" {
		t.Fatal("link does not pass identity through")
	}
}

func TestErrLinkLossMessage(t *testing.T) {
	e := &ErrLinkLoss{Device: "s1", Op: "invoke"}
	want := "transport: simulated link loss (invoke on s1)"
	if e.Error() != want {
		t.Fatalf("message = %q, want %q", e.Error(), want)
	}
}

func TestRegisterTypeAllowsCustomPayloads(t *testing.T) {
	type Availability struct {
		ParkingLot string
		Count      int
	}
	RegisterType(Availability{})
	RegisterType([]Availability(nil))

	srv, cli := newServerAndClient(t)
	b := device.NewBase("agg", "Aggregator", nil, nil, nil)
	b.OnQuery("availability", func() (any, error) {
		return []Availability{{"A22", 12}, {"B16", 3}}, nil
	})
	srv.Host(b)
	v, err := cli.Query("agg", "availability")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.([]Availability)
	if !ok || len(got) != 2 || got[0].ParkingLot != "A22" || got[1].Count != 3 {
		t.Fatalf("round-tripped value = %#v", v)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

func TestEndpointAddrUsableInRegistry(t *testing.T) {
	srv, _ := newServerAndClient(t)
	if srv.Addr() == "" {
		t.Fatal("empty Addr")
	}
	reg := registry.New()
	defer reg.Close()
	b := hostedSensor(srv, "s9")
	if err := reg.Register(b.Entity(srv.Addr())); err != nil {
		t.Fatal(err)
	}
	got := reg.Discover(registry.Query{Kind: "PresenceSensor"})
	if len(got) != 1 || got[0].Endpoint != srv.Addr() {
		t.Fatalf("discovered = %+v", got)
	}
}
