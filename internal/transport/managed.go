package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
)

// Health is a managed peer link's observed state.
type Health int32

// Health states. The ladder is driven by consecutive call/heartbeat
// failures: one failure degrades the link, PartitionedAfter consecutive
// failures declare it partitioned, and any successful reconnect restores it
// to up. Degraded is the transient "reconnecting, probably a blip" state;
// partitioned means the peer has been unreachable across repeated backoff
// rounds and callers should expect spooling.
const (
	HealthUp Health = iota
	HealthDegraded
	HealthPartitioned
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case HealthUp:
		return "up"
	case HealthDegraded:
		return "degraded"
	case HealthPartitioned:
		return "partitioned"
	default:
		return fmt.Sprintf("health(%d)", int32(h))
	}
}

// ManagedConfig parameterizes a ManagedClient.
type ManagedConfig struct {
	// Addr is the peer's server address.
	Addr string
	// Dialer opens connections (default: plain TCP).
	Dialer Dialer
	// CallTimeout bounds each call round trip (default 5s).
	CallTimeout time.Duration
	// HeartbeatInterval is the idle-probe period (default 1s). Zero or
	// negative uses the default; heartbeats cannot be disabled because
	// partition detection depends on them.
	HeartbeatInterval time.Duration
	// BackoffBase is the first reconnect delay (default 50ms); each failed
	// attempt doubles it up to BackoffMax (default 2s), with up to 50%
	// seeded jitter added so a fleet of peers does not thunder back in
	// lockstep.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// PartitionedAfter is how many consecutive connection failures move
	// the link from degraded to partitioned (default 3).
	PartitionedAfter int
	// Seed makes the backoff jitter sequence deterministic.
	Seed int64
	// OnUp, if set, runs (on the reconnect goroutine) after each
	// successful reconnect — the hook federation uses to replay spooled
	// batches and re-mark aggregate groups dirty.
	OnUp func()
}

func (cfg ManagedConfig) withDefaults() ManagedConfig {
	if cfg.Dialer == nil {
		cfg.Dialer = tcpDialer
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.PartitionedAfter <= 0 {
		cfg.PartitionedAfter = 3
	}
	return cfg
}

// ManagedClient wraps Client with connection supervision: a heartbeat that
// detects dead peers between calls, automatic reconnect with capped
// exponential backoff and seeded jitter, and a health state machine
// (up/degraded/partitioned). While the link is down, calls fail fast with
// ErrPeerDown instead of burning a dial timeout each — callers spool and
// replay on the OnUp hook rather than blocking.
type ManagedClient struct {
	cfg ManagedConfig

	mu           sync.Mutex
	cur          *Client // nil while disconnected
	fails        int     // consecutive connection failures
	reconnecting bool
	closed       bool
	upCh         chan struct{} // closed on each transition to up; replaced on down

	health atomic.Int32

	stopCh chan struct{}
	wg     sync.WaitGroup

	reconnects      atomic.Uint64
	heartbeatMisses atomic.Uint64

	// codecFallbacks accumulates gob-slice publishes across every
	// connection this link dials, so the counter survives reconnects.
	codecFallbacks atomic.Uint64

	// Byte counters from connections that already died; live counts come
	// from cur.
	deadSent atomic.Uint64
	deadRecv atomic.Uint64
}

// DialManaged connects to cfg.Addr and starts supervision. The initial dial
// is synchronous — a bad address fails here, preserving fail-fast setup —
// but once up, the link heals itself for the rest of its life.
func DialManaged(cfg ManagedConfig) (*ManagedClient, error) {
	cfg = cfg.withDefaults()
	m := &ManagedClient{
		cfg:    cfg,
		stopCh: make(chan struct{}),
		upCh:   make(chan struct{}),
	}
	c, err := m.dial()
	if err != nil {
		return nil, err
	}
	m.cur = c
	close(m.upCh)
	m.health.Store(int32(HealthUp))
	m.wg.Add(1)
	go m.heartbeatLoop()
	return m, nil
}

func (m *ManagedClient) dial() (*Client, error) {
	return Dial(m.cfg.Addr, WithCallTimeout(m.cfg.CallTimeout), WithDialer(m.cfg.Dialer),
		withFallbackCounter(&m.codecFallbacks))
}

// Health reports the link's current state.
func (m *ManagedClient) Health() Health { return Health(m.health.Load()) }

// Reconnects counts successful reconnections over the link's life.
func (m *ManagedClient) Reconnects() uint64 { return m.reconnects.Load() }

// HeartbeatMisses counts failed heartbeat probes.
func (m *ManagedClient) HeartbeatMisses() uint64 { return m.heartbeatMisses.Load() }

// CodecFallbacks counts event batches and agg syncs shipped as gob slices
// because the payload has no column form, cumulative across reconnects.
func (m *ManagedClient) CodecFallbacks() uint64 { return m.codecFallbacks.Load() }

// BytesSent reports cumulative bytes written across all connections.
func (m *ManagedClient) BytesSent() uint64 {
	m.mu.Lock()
	cur := m.cur
	m.mu.Unlock()
	n := m.deadSent.Load()
	if cur != nil {
		n += cur.BytesSent()
	}
	return n
}

// BytesReceived reports cumulative bytes read across all connections.
func (m *ManagedClient) BytesReceived() uint64 {
	m.mu.Lock()
	cur := m.cur
	m.mu.Unlock()
	n := m.deadRecv.Load()
	if cur != nil {
		n += cur.BytesReceived()
	}
	return n
}

// UpChan returns a channel that is closed while the link is up and replaced
// with an open one while it is down. A spooler waiting for heal selects on
// the channel observed after its send failed: the close that accompanies
// the next successful reconnect wakes it.
func (m *ManagedClient) UpChan() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.upCh
}

// Close stops supervision and tears down any live connection.
func (m *ManagedClient) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	cur := m.cur
	m.cur = nil
	close(m.stopCh)
	m.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
	m.wg.Wait()
}

// client returns the live connection, or ErrPeerDown while disconnected.
func (m *ManagedClient) client() (*Client, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.cur == nil {
		return nil, fmt.Errorf("%w: %s (%s)", ErrPeerDown, m.cfg.Addr, m.Health())
	}
	return m.cur, nil
}

// IsConnFailure classifies an error as connection-level (the wire died,
// stalled, or is currently down) versus application-level (the server
// answered with an error). Connection-level failures feed the health ladder
// and are the ones worth spooling through: the payload was not processed
// and a retry after heal is safe.
func IsConnFailure(err error) bool {
	return errors.Is(err, ErrConnLost) || errors.Is(err, ErrTimeout) ||
		errors.Is(err, ErrClosed) || errors.Is(err, ErrPeerDown)
}

// connFailed records a connection-level failure on c, drops it if it is
// still the live connection, advances the health ladder, and kicks the
// reconnect loop. Concurrent callers racing on the same dead connection
// collapse into one transition.
func (m *ManagedClient) connFailed(c *Client) {
	m.mu.Lock()
	if m.closed || c != m.cur {
		m.mu.Unlock()
		return
	}
	m.cur = nil
	m.upCh = make(chan struct{})
	m.fails++
	m.setHealthLocked()
	starting := !m.reconnecting
	m.reconnecting = true
	m.mu.Unlock()

	m.deadSent.Add(c.BytesSent())
	m.deadRecv.Add(c.BytesReceived())
	c.Close()
	if starting {
		m.wg.Add(1)
		go m.reconnectLoop()
	}
}

func (m *ManagedClient) setHealthLocked() {
	switch {
	case m.fails == 0:
		m.health.Store(int32(HealthUp))
	case m.fails < m.cfg.PartitionedAfter:
		m.health.Store(int32(HealthDegraded))
	default:
		m.health.Store(int32(HealthPartitioned))
	}
}

// reconnectLoop redials with capped exponential backoff and seeded jitter
// until it succeeds or the client closes. Exactly one instance runs while
// the link is down.
func (m *ManagedClient) reconnectLoop() {
	defer m.wg.Done()
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	delay := m.cfg.BackoffBase
	// One timer serves every backoff wait and is stopped on exit: an
	// abandoned time.After stays armed until it fires.
	backoff := time.NewTimer(time.Hour)
	backoff.Stop()
	defer backoff.Stop()
	for {
		c, err := m.dial()
		if err == nil {
			err = c.Ping()
			if err != nil {
				c.Close()
			}
		}
		if err == nil {
			m.mu.Lock()
			if m.closed {
				m.mu.Unlock()
				c.Close()
				return
			}
			m.cur = c
			m.fails = 0
			m.reconnecting = false
			m.setHealthLocked()
			close(m.upCh)
			m.mu.Unlock()
			m.reconnects.Add(1)
			if m.cfg.OnUp != nil {
				m.cfg.OnUp()
			}
			return
		}
		m.mu.Lock()
		m.fails++
		m.setHealthLocked()
		m.mu.Unlock()
		jitter := time.Duration(rng.Int63n(int64(delay)/2 + 1))
		backoff.Reset(delay + jitter)
		select {
		case <-backoff.C:
		case <-m.stopCh:
			return
		}
		if delay *= 2; delay > m.cfg.BackoffMax {
			delay = m.cfg.BackoffMax
		}
	}
}

// heartbeatLoop probes the live connection at the configured interval so a
// silently dead peer (partition with no RST) is detected within one
// interval + call timeout rather than on the next real call.
func (m *ManagedClient) heartbeatLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			m.mu.Lock()
			cur := m.cur
			m.mu.Unlock()
			if cur == nil {
				continue // reconnectLoop owns recovery
			}
			if err := cur.Ping(); err != nil && IsConnFailure(err) {
				m.heartbeatMisses.Add(1)
				m.connFailed(cur)
			}
		case <-m.stopCh:
			return
		}
	}
}

// do runs one call against the live connection, feeding connection-level
// failures into the health/reconnect machinery.
func do[T any](m *ManagedClient, fn func(c *Client) (T, error)) (T, error) {
	var zero T
	c, err := m.client()
	if err != nil {
		return zero, err
	}
	v, err := fn(c)
	if err != nil && IsConnFailure(err) {
		m.connFailed(c)
	}
	return v, err
}

// Ping probes the peer once.
func (m *ManagedClient) Ping() error {
	_, err := do(m, func(c *Client) (struct{}, error) { return struct{}{}, c.Ping() })
	return err
}

// SyncRegistry performs one registry delta-sync round trip.
func (m *ManagedClient) SyncRegistry(kinds []string, gens []uint64) ([]SyncDelta, uint64, error) {
	type pair struct {
		deltas []SyncDelta
		boot   uint64
	}
	p, err := do(m, func(c *Client) (pair, error) {
		deltas, boot, err := c.SyncRegistry(kinds, gens)
		return pair{deltas, boot}, err
	})
	return p.deltas, p.boot, err
}

// StartEventBatch sends one batch on the live connection without waiting for
// its answer (see Client.StartEventBatch). A connection failure, whether the
// send or the returned call's Wait sees it, feeds the health ladder.
func (m *ManagedClient) StartEventBatch(kind, source string, stream, seq uint64, readings []device.Reading) (EventBatchCall, error) {
	b, err := do(m, func(c *Client) (EventBatchCall, error) {
		return c.StartEventBatch(kind, source, stream, seq, readings)
	})
	b.m = m
	return b, err
}

// PublishAggSync forwards one node's per-group partial aggregates.
func (m *ManagedClient) PublishAggSync(kind, source, origin string, groups []GroupPartial) (int, error) {
	return do(m, func(c *Client) (int, error) {
		return c.PublishAggSync(kind, source, origin, groups)
	})
}
