package eventbus

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These regression tests pin the refcounting contract for pooled payloads:
// the bus retains one reference per subscriber before enqueueing and
// releases it after delivery or on the discard path, so a producer that
// releases and recycles its buffer immediately after Publish can never race
// a slow subscriber still reading it. The recycle-vs-drain test only fails
// meaningfully under -race (or via the consistency check) when that
// contract is broken — the SNIPPETS.md snippet 3 pattern.

// poolBatch is a minimal stand-in for device.ReadingBatch: pooled,
// refcounted, weighted.
type poolBatch struct {
	refs     atomic.Int32
	released *atomic.Int64
	pool     *sync.Pool
	vals     []int
}

func (p *poolBatch) Retain() { p.refs.Add(1) }

func (p *poolBatch) Release() {
	switch n := p.refs.Add(-1); {
	case n == 0:
		p.released.Add(1)
		p.vals = p.vals[:0]
		p.pool.Put(p)
	case n < 0:
		panic("poolBatch over-released")
	}
}

func (p *poolBatch) EventWeight() int { return len(p.vals) }

// batchSource hands out pooled batches with one reference held.
type batchSource struct {
	pool     sync.Pool
	released atomic.Int64
}

func (src *batchSource) get() *poolBatch {
	if v := src.pool.Get(); v != nil {
		b := v.(*poolBatch)
		b.refs.Store(1)
		return b
	}
	b := &poolBatch{released: &src.released, pool: &src.pool}
	b.refs.Store(1)
	return b
}

func TestRaceRegression_PoolRecycleVsSlowSubscriberDrain(t *testing.T) {
	const rows, rounds = 64, 200
	bus := New()
	defer bus.Close()

	var src batchSource
	var torn atomic.Int64
	sub, err := bus.Subscribe("readings", func(ev Event) {
		b := ev.Payload.(*poolBatch)
		want := b.vals[0]
		// Slow drain: if the bus released (and the producer recycled) the
		// batch before this handler ran, the reread below observes the next
		// round's values — and -race observes the unsynchronized write.
		time.Sleep(100 * time.Microsecond)
		for _, v := range b.vals {
			if v != want {
				torn.Add(1)
			}
		}
	}, WithQueue(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	for g := 1; g <= rounds; g++ {
		b := src.get()
		for i := 0; i < rows; i++ {
			b.vals = append(b.vals, g)
		}
		if err := bus.Publish("readings", b, time.Unix(int64(g), 0)); err != nil {
			t.Fatal(err)
		}
		// Producer is done with its reference immediately; the batch must
		// stay alive for the queued delivery regardless.
		b.Release()
	}

	deadline := time.Now().Add(10 * time.Second)
	for bus.Stats().Delivered < rows*rounds {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d weighted events", bus.Stats().Delivered, rows*rounds)
		}
		time.Sleep(time.Millisecond)
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d torn reads: subscriber observed a recycled buffer", n)
	}
	if got := src.released.Load(); got != rounds {
		t.Fatalf("released %d batches, want %d (leak or double release)", got, rounds)
	}
}

// TestStopReleasesParkedPublisherPayload pins the one path on which the bus
// lets go of an event undelivered: a publisher parked on a full queue when
// Cancel or Close stops the subscription. The parked batch must be released
// exactly once and its weight settled as discarded, while everything
// queued before the stop is still delivered.
func TestStopReleasesParkedPublisherPayload(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Bus, *Subscription)
	}{
		{"cancel", func(_ *Bus, sub *Subscription) { sub.Cancel() }},
		{"close", func(bus *Bus, _ *Subscription) { bus.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bus := New()
			defer bus.Close()

			var src batchSource
			started := make(chan struct{})
			gate := make(chan struct{})
			openGate := sync.OnceFunc(func() { close(gate) })
			defer openGate() // a failed check must not leave the handler parked
			var once sync.Once
			sub, err := bus.Subscribe("readings", func(ev Event) {
				once.Do(func() { close(started) })
				<-gate
			}, WithQueue(1))
			if err != nil {
				t.Fatal(err)
			}

			publish := func(rows int) {
				b := src.get()
				for i := 0; i < rows; i++ {
					b.vals = append(b.vals, rows)
				}
				if err := bus.Publish("readings", b, time.Unix(1, 0)); err != nil {
					t.Error(err)
				}
				b.Release()
			}
			waitFor := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); !cond(); {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s: %+v, released %d", what, bus.Stats(), src.released.Load())
					}
					time.Sleep(100 * time.Microsecond)
				}
			}

			publish(2) // picked up by the drain goroutine, parked in the handler
			<-started
			publish(3) // fills the queue (capacity 1)
			parked := make(chan struct{})
			go func() {
				defer close(parked)
				publish(5) // waits for queue space that never comes
			}()
			waitFor("the third publish to reach the queue", func() bool { return bus.offered.Load() == 10 })

			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				tc.stop(bus, sub)
			}()
			<-parked
			// The handler still holds the 2-row batch and the queue the
			// 3-row one: only the parked 5-row batch may be gone.
			if got := src.released.Load(); got != 1 {
				t.Fatalf("released %d batches after the stop woke the publisher, want 1 (the parked one)", got)
			}
			if got := bus.discarded.Load(); got != 5 {
				t.Fatalf("discarded weight = %d, want 5 (the parked batch)", got)
			}
			openGate()
			<-stopped

			waitFor("the queued batches to be released", func() bool { return src.released.Load() == 3 })
			if st := bus.Stats(); st.Published != 10 || st.Delivered != 5 || st.Dropped != 0 {
				t.Fatalf("Stats = %+v, want Published=10 Delivered=5 (2 + 3) Dropped=0", st)
			}
			if !bus.Idle() {
				t.Fatalf("bus not idle after the stop settled every offered event: %+v", bus.Stats())
			}
		})
	}
}
