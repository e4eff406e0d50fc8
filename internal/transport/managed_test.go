package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
)

// connected reports whether m holds a live connection.
func connected(m *ManagedClient) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur != nil
}

func waitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// The full managed-link life cycle: up → server dies → fast-fail + health
// ladder down to partitioned → server returns at the same address →
// automatic reconnect, OnUp fires, health back to up, calls flow again.
func TestManagedClientReconnectLifecycle(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	var upCalls atomic.Int64
	m, err := DialManaged(ManagedConfig{
		Addr:              addr,
		CallTimeout:       300 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		BackoffBase:       10 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		PartitionedAfter:  2,
		Seed:              1,
		OnUp:              func() { upCalls.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if got := m.Health(); got != HealthUp {
		t.Fatalf("fresh link health = %v, want up", got)
	}
	if err := m.Ping(); err != nil {
		t.Fatalf("ping over healthy link: %v", err)
	}

	// Kill the server. The heartbeat (or next call) must notice and walk
	// the health ladder down to partitioned as reconnects keep failing.
	srv.Close()
	waitCond(t, 5*time.Second, "health to leave up", func() bool {
		return m.Health() != HealthUp
	})
	waitCond(t, 5*time.Second, "health to reach partitioned", func() bool {
		return m.Health() == HealthPartitioned
	})

	// While dark, calls fail fast with ErrPeerDown — no dial-timeout burn.
	start := time.Now()
	err = m.Ping()
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("call while dark: %v, want ErrPeerDown", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fast-fail took %v", elapsed)
	}
	if connected(m) {
		t.Fatal("fast-fail while a connection was held")
	}

	// Resurrect the server at the same address (node restart).
	srv2, err := NewServer(addr)
	if err != nil {
		t.Fatalf("restart listener on %s: %v", addr, err)
	}
	defer srv2.Close()

	waitCond(t, 10*time.Second, "reconnect", func() bool {
		return m.Health() == HealthUp && connected(m)
	})
	if m.Reconnects() == 0 {
		t.Fatal("reconnect not counted")
	}
	if upCalls.Load() == 0 {
		t.Fatal("OnUp hook never fired")
	}
	if err := m.Ping(); err != nil {
		t.Fatalf("ping after heal: %v", err)
	}
}

// UpChan must swap atomically with the link state: a channel observed while
// the link is down is closed exactly when the link comes back.
func TestManagedClientUpChanSignalsHeal(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	m, err := DialManaged(ManagedConfig{
		Addr:              addr,
		CallTimeout:       200 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		BackoffBase:       10 * time.Millisecond,
		BackoffMax:        40 * time.Millisecond,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Up: the current channel is already closed.
	select {
	case <-m.UpChan():
	default:
		t.Fatal("UpChan open while link is up")
	}

	srv.Close()
	waitCond(t, 5*time.Second, "link down", func() bool { return !connected(m) })
	ch := m.UpChan()
	select {
	case <-ch:
		t.Fatal("UpChan closed while link is down")
	default:
	}

	srv2, err := NewServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("UpChan never signalled the heal")
	}
	if m.Health() != HealthUp {
		t.Fatalf("health after heal = %v", m.Health())
	}
}

// Closing a managed client while it is mid-reconnect must not leak the
// reconnect goroutine or deadlock.
func TestManagedClientCloseWhileReconnecting(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	m, err := DialManaged(ManagedConfig{
		Addr:              addr,
		CallTimeout:       100 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		BackoffBase:       20 * time.Millisecond,
		BackoffMax:        100 * time.Millisecond,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // never comes back: reconnect loops forever
	waitCond(t, 5*time.Second, "link down", func() bool { return !connected(m) })

	done := make(chan struct{})
	go func() {
		m.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged during reconnect")
	}
	if err := m.Ping(); !errors.Is(err, ErrClosed) {
		t.Fatalf("ping after close: %v, want ErrClosed", err)
	}
}

// A reconnect is a new connection, and both ends of it start with empty
// string dictionaries: the first batch on the new connection re-introduces
// every string it carries, and the hub decodes the batches before and after
// the cut exactly.
func TestManagedReconnectRestartsDictionary(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fed := &fakeFed{accepted: 1 << 20, merged: 1}
	srv.ServeFederation(fed)

	var (
		mu    sync.Mutex
		conns []net.Conn
		wires []*bytes.Buffer // each connection's client-side bytes
	)
	m, err := DialManaged(ManagedConfig{
		Addr: srv.Addr(),
		Dialer: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			wire := new(bytes.Buffer)
			mu.Lock()
			conns, wires = append(conns, conn), append(wires, wire)
			mu.Unlock()
			return teeConn{Conn: conn, out: wire}, nil
		},
		CallTimeout:       5 * time.Second,
		HeartbeatInterval: 10 * time.Millisecond,
		BackoffBase:       5 * time.Millisecond,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	chunk := boolChunk(64)
	publish := func(seq uint64) {
		call, err := m.StartEventBatch("PresenceSensor", "presence", 1, seq, chunk)
		if err != nil {
			t.Fatalf("batch %d: %v", seq, err)
		}
		if accepted, err := call.Wait(); err != nil || accepted != len(chunk) {
			t.Fatalf("batch %d: accepted %d err %v", seq, accepted, err)
		}
	}
	publish(1)
	mu.Lock()
	_ = conns[0].Close()
	mu.Unlock()
	waitCond(t, 5*time.Second, "reconnect", func() bool { return m.Reconnects() > 0 && connected(m) })
	publish(2)
	m.Close() // no more writes: the recorded wires are final

	fed.mu.Lock()
	landed := fed.gotReadings
	fed.mu.Unlock()
	if err := sameReadings(landed, append(append([]device.Reading(nil), chunk...), chunk...)); err != nil {
		t.Fatalf("hub decoded the batches around the cut wrongly: %v", err)
	}
	if len(wires) != 2 {
		t.Fatalf("link dialed %d connections, want 2", len(wires))
	}
	for i, wire := range wires {
		var batches [][]byte
		for _, req := range sentRequests(t, wire.Bytes()) {
			if req.Op == "event_batch" {
				batches = append(batches, req.Bin)
			}
		}
		if len(batches) != 1 {
			t.Fatalf("connection %d carried %d event batches, want 1", i, len(batches))
		}
		// A fresh decoder knows no token, so it decodes the batch only if
		// the batch introduces every string it uses.
		got, err := new(colDec).decodeReadings(batches[0], nil)
		if err != nil {
			t.Fatalf("connection %d: first batch does not stand alone: %v", i, err)
		}
		if err := sameReadings(got, chunk); err != nil {
			t.Fatalf("connection %d: %v", i, err)
		}
	}
}
