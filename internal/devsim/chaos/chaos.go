// Package chaos injects network faults into transport connections: latency,
// jitter, probabilistic drops and byte-truncation on every write, plus full
// link partitions that sever live connections and refuse redials until
// healed. It interposes on the dial path (transport.WithDialer /
// federation.PeerConfig.Dialer), so the code under test runs unmodified
// against real TCP sockets — the injector only mutilates what crosses them.
//
// All randomness flows from one seeded source, so a chaos schedule is
// deterministic: the same seed yields the same drops, the same truncations,
// and the same recovery sequence, which is what lets partition/heal tests
// assert exact delivered+dropped accounting across repeated runs.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Profile shapes one link's fault behavior between partitions.
type Profile struct {
	// Latency is the base delay added to every write; Jitter is the
	// maximum extra seeded-random delay (uniform in [0, Jitter]).
	Latency time.Duration
	Jitter  time.Duration
	// DropRate is the per-write probability (in [0,1]) that the write is
	// swallowed and the connection severed — modeling a link that died
	// mid-conversation without a clean shutdown.
	DropRate float64
	// TruncRate is the per-write probability (in [0,1]) that only a prefix
	// of the bytes leaves before the connection is severed — the torn-frame
	// case the length-prefixed codec must reject cleanly.
	TruncRate float64
}

// Stats counts injected faults across a Net.
type Stats struct {
	DialsRefused    uint64
	ConnsSevered    uint64
	WritesDelayed   uint64
	WritesDropped   uint64
	WritesTruncated uint64
}

// Net is a set of named links with centrally scheduled faults. One Net
// typically models one test cluster; each inter-node link gets a name
// ("edge1->hub") and a Dialer bound to that name.
type Net struct {
	mu    sync.Mutex
	rng   *rand.Rand
	links map[string]*linkState

	dialsRefused    atomic.Uint64
	connsSevered    atomic.Uint64
	writesDelayed   atomic.Uint64
	writesDropped   atomic.Uint64
	writesTruncated atomic.Uint64
}

// linkState is one named link's current profile, partition flag, and live
// connections (tracked so Partition can sever them immediately).
type linkState struct {
	profile     Profile
	partitioned bool
	conns       map[*Link]struct{}
}

// NewNet creates a fault injector with a deterministic randomness source.
func NewNet(seed int64) *Net {
	return &Net{
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[string]*linkState),
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (n *Net) Stats() Stats {
	return Stats{
		DialsRefused:    n.dialsRefused.Load(),
		ConnsSevered:    n.connsSevered.Load(),
		WritesDelayed:   n.writesDelayed.Load(),
		WritesDropped:   n.writesDropped.Load(),
		WritesTruncated: n.writesTruncated.Load(),
	}
}

func (n *Net) link(name string) *linkState {
	if l, ok := n.links[name]; ok {
		return l
	}
	l := &linkState{conns: make(map[*Link]struct{})}
	n.links[name] = l
	return l
}

// SetProfile installs the named link's fault profile; it applies to writes
// on live and future connections alike.
func (n *Net) SetProfile(name string, p Profile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.link(name).profile = p
}

// Partition cuts the named link: every live connection through it is
// severed now and every dial through it is refused until Heal.
func (n *Net) Partition(name string) {
	n.mu.Lock()
	l := n.link(name)
	l.partitioned = true
	conns := make([]*Link, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	clear(l.conns)
	n.mu.Unlock()
	for _, c := range conns {
		if !c.severed.Swap(true) {
			n.connsSevered.Add(1)
			_ = c.Conn.Close()
		}
	}
}

// Heal reopens the named link; redials succeed again from now on.
func (n *Net) Heal(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.link(name).partitioned = false
}

// Partitioned reports whether the named link is currently cut.
func (n *Net) Partitioned(name string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.link(name).partitioned
}

// Dialer returns a transport dialer routed through the named link: dials
// are refused while partitioned, and established connections inject the
// link's profile on every write.
func (n *Net) Dialer(name string) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		n.mu.Lock()
		l := n.link(name)
		if l.partitioned {
			n.mu.Unlock()
			n.dialsRefused.Add(1)
			return nil, fmt.Errorf("chaos: link %s partitioned", name)
		}
		n.mu.Unlock()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		c := &Link{Conn: conn, net: n, name: name}
		n.mu.Lock()
		// The link may have been partitioned while the TCP handshake ran;
		// registering the conn first would leak it past the sever sweep.
		if l.partitioned {
			n.mu.Unlock()
			_ = conn.Close()
			n.dialsRefused.Add(1)
			return nil, fmt.Errorf("chaos: link %s partitioned", name)
		}
		l.conns[c] = struct{}{}
		n.mu.Unlock()
		return c, nil
	}
}

// Link is one fault-injected connection. It embeds the real net.Conn and
// interposes on Write (the paper-relevant direction: requests and forwarded
// batches) plus Close for registration bookkeeping.
type Link struct {
	net.Conn
	net  *Net
	name string

	severed atomic.Bool
}

// draw samples this link's fault plan for one write under the Net's seeded
// source: extra delay, whether to drop, whether (and where) to truncate.
func (c *Link) draw(n int) (delay time.Duration, drop bool, truncAt int) {
	nw := c.net
	nw.mu.Lock()
	defer nw.mu.Unlock()
	l := nw.link(c.name)
	p := l.profile
	delay = p.Latency
	if p.Jitter > 0 {
		delay += time.Duration(nw.rng.Int63n(int64(p.Jitter) + 1))
	}
	truncAt = -1
	if p.DropRate > 0 && nw.rng.Float64() < p.DropRate {
		drop = true
		return
	}
	if p.TruncRate > 0 && nw.rng.Float64() < p.TruncRate {
		truncAt = nw.rng.Intn(n) // strictly fewer than n bytes leave
	}
	return
}

// sever closes the underlying conn once and unregisters it.
func (c *Link) sever() {
	if c.severed.Swap(true) {
		return
	}
	c.net.mu.Lock()
	delete(c.net.link(c.name).conns, c)
	c.net.mu.Unlock()
	c.net.connsSevered.Add(1)
	_ = c.Conn.Close()
}

// Write implements net.Conn with fault injection.
func (c *Link) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return c.Conn.Write(p)
	}
	delay, drop, truncAt := c.draw(len(p))
	if delay > 0 {
		c.net.writesDelayed.Add(1)
		time.Sleep(delay)
	}
	if drop {
		c.net.writesDropped.Add(1)
		c.sever()
		return 0, fmt.Errorf("chaos: write dropped on link %s", c.name)
	}
	if truncAt >= 0 {
		c.net.writesTruncated.Add(1)
		n, _ := c.Conn.Write(p[:truncAt])
		c.sever()
		return n, fmt.Errorf("chaos: write truncated on link %s", c.name)
	}
	return c.Conn.Write(p)
}

// Close implements net.Conn.
func (c *Link) Close() error {
	if c.severed.Swap(true) {
		return nil
	}
	c.net.mu.Lock()
	delete(c.net.link(c.name).conns, c)
	c.net.mu.Unlock()
	return c.Conn.Close()
}
