package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/registry"
)

// LinkProfile models a network path's characteristics. It stands in for the
// low-power wide-area networks (Sigfox/LoRa-class) the paper's large-scale
// deployments ride on; the defaults below are derived from their public
// duty-cycle figures rather than measurements.
type LinkProfile struct {
	// Latency is the one-way base delay added to each operation.
	Latency time.Duration
	// Jitter is the maximum extra random delay (uniform in [0, Jitter]).
	Jitter time.Duration
	// LossRate is the probability an operation fails with a loss error,
	// in [0, 1].
	LossRate float64
	// Seed makes the loss/jitter sequence deterministic.
	Seed int64
}

// Predefined profiles.
var (
	// LANProfile approximates a home network (small-scale orchestration).
	LANProfile = LinkProfile{Latency: 500 * time.Microsecond, Jitter: 200 * time.Microsecond}
	// LPWANProfile approximates a city-scale low-power wide-area uplink.
	LPWANProfile = LinkProfile{Latency: 40 * time.Millisecond, Jitter: 25 * time.Millisecond, LossRate: 0.01}
)

// ErrLinkLoss reports a simulated transmission loss.
type ErrLinkLoss struct {
	Device string
	Op     string
}

// Error implements error.
func (e *ErrLinkLoss) Error() string {
	return fmt.Sprintf("transport: simulated link loss (%s on %s)", e.Op, e.Device)
}

// Link wraps a device.Driver, delaying and sometimes dropping operations
// according to a LinkProfile. It lets benchmarks and failure-injection tests
// exercise orchestration code over WAN-like paths without hardware.
type Link struct {
	inner   device.Driver
	profile LinkProfile

	mu  sync.Mutex
	rng *rand.Rand
	// Delayed counts delayed operations; Lost counts dropped ones.
	delayed, lost uint64
}

var _ device.Driver = (*Link)(nil)

// NewLink wraps drv with the given profile.
func NewLink(drv device.Driver, profile LinkProfile) *Link {
	return &Link{
		inner:   drv,
		profile: profile,
		rng:     rand.New(rand.NewSource(profile.Seed)),
	}
}

// Stats reports how many operations were delayed and lost.
func (l *Link) Stats() (delayed, lost uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.delayed, l.lost
}

func (l *Link) traverse(op string) error {
	l.mu.Lock()
	lossDraw := l.rng.Float64()
	var extra time.Duration
	if l.profile.Jitter > 0 {
		extra = time.Duration(l.rng.Int63n(int64(l.profile.Jitter) + 1))
	}
	if lossDraw < l.profile.LossRate {
		l.lost++
		l.mu.Unlock()
		return &ErrLinkLoss{Device: l.inner.ID(), Op: op}
	}
	l.delayed++
	l.mu.Unlock()
	if d := l.profile.Latency + extra; d > 0 {
		time.Sleep(d)
	}
	return nil
}

// ID implements device.Driver.
func (l *Link) ID() string { return l.inner.ID() }

// Kind implements device.Driver.
func (l *Link) Kind() string { return l.inner.Kind() }

// Kinds implements device.Driver.
func (l *Link) Kinds() []string { return l.inner.Kinds() }

// Attributes implements device.Driver.
func (l *Link) Attributes() registry.Attributes { return l.inner.Attributes() }

// Query implements device.Driver.
func (l *Link) Query(source string) (any, error) {
	if err := l.traverse("query"); err != nil {
		return nil, err
	}
	return l.inner.Query(source)
}

// SubscribePush implements device.Driver. The attach itself traverses the
// link once; individual pushed readings are not delayed (they ride the
// long-lived downlink).
func (l *Link) SubscribePush(source string, sink device.Sink) (func(), error) {
	if err := l.traverse("subscribe"); err != nil {
		return nil, err
	}
	return l.inner.SubscribePush(source, sink)
}

// Invoke implements device.Driver.
func (l *Link) Invoke(action string, args ...any) error {
	if err := l.traverse("invoke"); err != nil {
		return err
	}
	return l.inner.Invoke(action, args...)
}
