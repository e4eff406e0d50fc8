package device

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/simclock"
)

var epoch = time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)

func newCooker(vc *simclock.Virtual) *Base {
	b := NewBase("cooker-1", "Cooker", nil, registry.Attributes{"room": "kitchen"}, vc.Now)
	consumption := 0.0
	b.OnQuery("consumption", func() (any, error) { return consumption, nil })
	b.OnAction("On", func(...any) error { consumption = 1500.0; return nil })
	b.OnAction("Off", func(...any) error { consumption = 0; return nil })
	return b
}

func TestIdentityAndEntity(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	b := newCooker(vc)
	if b.ID() != "cooker-1" || b.Kind() != "Cooker" {
		t.Fatalf("identity = %s/%s", b.ID(), b.Kind())
	}
	if kinds := b.Kinds(); len(kinds) != 1 || kinds[0] != "Cooker" {
		t.Fatalf("Kinds = %v", kinds)
	}
	e := b.Entity("tcp://127.0.0.1:9000")
	if e.ID != "cooker-1" || e.Endpoint != "tcp://127.0.0.1:9000" || e.Bound != registry.BindRuntime {
		t.Fatalf("Entity = %+v", e)
	}
	e.Attrs["room"] = "garage"
	if b.Attributes()["room"] != "kitchen" {
		t.Fatal("Entity aliases driver attributes")
	}
}

func TestQueryAndInvoke(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	b := newCooker(vc)
	v, err := b.Query("consumption")
	if err != nil || v != 0.0 {
		t.Fatalf("Query = %v, %v", v, err)
	}
	if err := b.Invoke("On"); err != nil {
		t.Fatal(err)
	}
	v, _ = b.Query("consumption")
	if v != 1500.0 {
		t.Fatalf("consumption after On = %v", v)
	}
	if err := b.Invoke("Off"); err != nil {
		t.Fatal(err)
	}
	if v, _ = b.Query("consumption"); v != 0.0 {
		t.Fatalf("consumption after Off = %v", v)
	}
}

func TestUnknownFacetErrors(t *testing.T) {
	b := newCooker(simclock.NewVirtual(epoch))
	if _, err := b.Query("nope"); !errors.Is(err, ErrUnknownSource) {
		t.Fatalf("err = %v, want ErrUnknownSource", err)
	}
	if err := b.Invoke("nope"); !errors.Is(err, ErrUnknownAction) {
		t.Fatalf("err = %v, want ErrUnknownAction", err)
	}
}

// chanSink hands every pushed reading to a buffered channel.
type chanSink chan Reading

func (c chanSink) Push(r Reading) { c <- r }

func TestSubscribeReceivesEmits(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	b := NewBase("p1", "Prompter", nil, nil, vc.Now)
	sink := make(chanSink, 1)
	cancel, err := b.SubscribePush("answer", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	b.EmitIndexed("answer", "yes", "q42")
	select {
	case r := <-sink:
		if r.DeviceID != "p1" || r.Source != "answer" || r.Value != "yes" || r.Index != "q42" {
			t.Fatalf("reading = %+v", r)
		}
		if !r.Time.Equal(epoch) {
			t.Fatalf("reading time = %v, want virtual epoch", r.Time)
		}
	default:
		t.Fatal("no reading delivered")
	}
}

func TestEmitWithoutIndex(t *testing.T) {
	b := NewBase("s1", "PresenceSensor", nil, nil, nil)
	sink := make(chanSink, 1)
	if _, err := b.SubscribePush("presence", sink); err != nil {
		t.Fatal(err)
	}
	b.Emit("presence", true)
	r := <-sink
	if r.Index != nil || r.Value != true {
		t.Fatalf("reading = %+v", r)
	}
	if r.Time.IsZero() {
		t.Fatal("real-clock reading has zero time")
	}
}

func TestCancelStopsStream(t *testing.T) {
	b := NewBase("s1", "S", nil, nil, nil)
	sink := make(chanSink, 4)
	cancel, _ := b.SubscribePush("x", sink)
	again, _ := b.SubscribePush("x", sink) // the same sink, attached twice
	cancel()
	cancel() // idempotent
	b.Emit("x", 1)
	if len(sink) != 1 {
		t.Fatalf("%d pushes after one of two attachments was cancelled, want 1", len(sink))
	}
	again()
	b.Emit("x", 2)
	if len(sink) != 1 {
		t.Fatal("a cancelled sink still receives pushes")
	}
}

func TestCloseCancelsAllSubscriptions(t *testing.T) {
	b := NewBase("s1", "S", nil, nil, nil)
	s1, s2 := make(chanSink, 1), make(chanSink, 1)
	cancel, _ := b.SubscribePush("x", s1)
	_, _ = b.SubscribePush("y", s2)
	b.Close()
	b.Close() // idempotent
	cancel()  // after Close: nothing left to detach
	b.Emit("x", 1)
	b.Emit("y", 1)
	if len(s1)+len(s2) != 0 {
		t.Fatal("a sink still receives pushes after Close")
	}
	if _, err := b.SubscribePush("x", s1); err == nil {
		t.Fatal("SubscribePush after Close succeeded")
	}
}

func TestSubscribersAreIndependentPerSource(t *testing.T) {
	b := NewBase("s1", "S", nil, nil, nil)
	sx, sy := make(chanSink, 1), make(chanSink, 1)
	_, _ = b.SubscribePush("x", sx)
	_, _ = b.SubscribePush("y", sy)
	b.Emit("x", 1)
	select {
	case <-sy:
		t.Fatal("y subscriber received x reading")
	default:
	}
	if r := <-sx; r.Value != 1 {
		t.Fatalf("x reading = %+v", r)
	}
}

// recSink records the sequence numbers pushed into it.
type recSink struct {
	mu  sync.Mutex
	got []int64
}

func (s *recSink) Push(r Reading) {
	s.mu.Lock()
	s.got = append(s.got, r.Value.(int64))
	s.mu.Unlock()
}

// TestBaseSinkAttachCancelRacesEmit: sinks attach and cancel on several
// goroutines while one goroutine emits a numbered sequence. A sink must
// receive, exactly once, every reading whose Emit ran wholly between its
// attach returning and its cancel being called, and none whose Emit began
// after its cancel returned.
func TestBaseSinkAttachCancelRacesEmit(t *testing.T) {
	b := NewBase("s1", "S", nil, nil, nil)
	// started counts Emit calls begun; finished is the last one returned.
	var started, finished atomic.Int64
	var quit atomic.Bool
	emitted := make(chan struct{})
	go func() {
		defer close(emitted)
		for !quit.Load() {
			n := started.Add(1)
			b.Emit("x", n)
			finished.Store(n)
		}
	}()

	type window struct {
		sink          *recSink
		from, to, end int64
	}
	const attachers, rounds = 4, 200
	windows := make([][]window, attachers)
	var wg sync.WaitGroup
	for g := range windows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := &recSink{}
				cancel, err := b.SubscribePush("x", s)
				if err != nil {
					t.Error(err)
					return
				}
				from := started.Load() // Emit n > from began after the attach
				for finished.Load() < from+3 {
					runtime.Gosched()
				}
				to := finished.Load() // Emit n <= to returned before the cancel
				cancel()
				end := started.Load() // Emit n > end began after the cancel returned
				windows[g] = append(windows[g], window{s, from, to, end})
			}
		}()
	}
	wg.Wait()
	quit.Store(true)
	<-emitted

	for _, ws := range windows {
		for _, w := range ws {
			seen := make(map[int64]bool, len(w.sink.got))
			for _, n := range w.sink.got {
				if seen[n] {
					t.Fatalf("reading %d pushed twice into one sink", n)
				}
				seen[n] = true
				if n > w.end {
					t.Fatalf("reading %d pushed after cancel returned (Emit %d was the last begun before)", n, w.end)
				}
			}
			for n := w.from + 1; n <= w.to; n++ {
				if !seen[n] {
					t.Fatalf("reading %d lost: emitted while its sink was attached (window %d..%d)", n, w.from+1, w.to)
				}
			}
		}
	}
}
