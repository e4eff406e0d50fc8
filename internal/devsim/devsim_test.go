package devsim

import (
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/simclock"
)

var epoch = time.Date(2017, 6, 5, 2, 0, 0, 0, time.UTC) // 02:00, overnight

// chanSink hands every pushed reading to a buffered channel; a test sizes
// the buffer for every reading it provokes.
type chanSink chan device.Reading

func (c chanSink) Push(r device.Reading) { c <- r }

// subscribe attaches a chanSink of the given capacity to source.
func subscribe(t *testing.T, d device.Driver, source string, capacity int) (chanSink, func()) {
	t.Helper()
	sink := make(chanSink, capacity)
	cancel, err := d.SubscribePush(source, sink)
	if err != nil {
		t.Fatal(err)
	}
	return sink, cancel
}

func TestClockDeviceEmitsTicks(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	c := NewClockDevice("clock-1", vc)
	sub, cancel := subscribe(t, c, "tickSecond", 8)
	defer cancel()
	c.Run()
	defer c.Stop()
	for i := 1; i <= 3; i++ {
		vc.Advance(time.Second)
		select {
		case r := <-sub:
			if r.Value != i {
				t.Fatalf("tick %d value = %v", i, r.Value)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("tick %d not emitted", i)
		}
	}
	v, err := c.Query("tickSecond")
	if err != nil || v != 3 {
		t.Fatalf("Query tickSecond = %v, %v", v, err)
	}
}

func TestClockDeviceMinuteAndHour(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	c := NewClockDevice("clock-1", vc)
	subM, cancelM := subscribe(t, c, "tickMinute", 64)
	subH, cancelH := subscribe(t, c, "tickHour", 4)
	defer cancelM()
	defer cancelH()
	c.Run()
	defer c.Stop()
	// Advance one hour in minute steps so no ticker ticks are dropped.
	for i := 0; i < 60; i++ {
		vc.Advance(time.Minute)
	}
	deadline := time.After(5 * time.Second)
	select {
	case r := <-subM:
		if r.Value.(int) < 1 {
			t.Fatalf("minute tick = %v", r.Value)
		}
	case <-deadline:
		t.Fatal("no minute tick")
	}
	select {
	case r := <-subH:
		if r.Value.(int) != 1 {
			t.Fatalf("hour tick = %v", r.Value)
		}
	case <-deadline:
		t.Fatal("no hour tick")
	}
}

func TestCookerDeviceLifecycle(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	c := NewCookerDevice("cooker-1", 7, vc.Now)
	if c.IsOn() {
		t.Fatal("cooker starts on")
	}
	v, err := c.Query("consumption")
	if err != nil || v.(float64) != 0 {
		t.Fatalf("off consumption = %v, %v", v, err)
	}
	if err := c.Invoke("On"); err != nil {
		t.Fatal(err)
	}
	if !c.IsOn() {
		t.Fatal("cooker off after On")
	}
	v, _ = c.Query("consumption")
	if w := v.(float64); w < 1500 || w > 1550 {
		t.Fatalf("on consumption = %v, want 1500±50", w)
	}
	if err := c.Invoke("Off"); err != nil {
		t.Fatal(err)
	}
	if v, _ = c.Query("consumption"); v.(float64) != 0 {
		t.Fatal("consumption nonzero after Off")
	}
}

func TestPrompterAnswersViaPolicy(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	p := NewPrompterDevice("tv-1", vc.Now)
	sub, cancel := subscribe(t, p, "answer", 1)
	defer cancel()
	p.AnswerWith(func(q string) (string, bool) { return "yes", true })
	if err := p.Invoke("askQuestion", "turn off?"); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-sub:
		if r.Value != "yes" || r.Index != "q1" {
			t.Fatalf("answer = %+v", r)
		}
	default:
		t.Fatal("no answer emitted")
	}
	if qs := p.Questions(); len(qs) != 1 || qs[0] != "turn off?" {
		t.Fatalf("questions = %v", qs)
	}
}

func TestPrompterPolicyCanDecline(t *testing.T) {
	p := NewPrompterDevice("tv-1", nil)
	sub, cancel := subscribe(t, p, "answer", 1)
	defer cancel()
	p.AnswerWith(func(q string) (string, bool) { return "", false })
	if err := p.Invoke("askQuestion", "q"); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-sub:
		t.Fatalf("unexpected answer %+v", r)
	default:
	}
}

func TestPrompterRejectsBadArgs(t *testing.T) {
	p := NewPrompterDevice("tv-1", nil)
	if err := p.Invoke("askQuestion"); err == nil {
		t.Fatal("no-arg askQuestion accepted")
	}
	if err := p.Invoke("askQuestion", 42); err == nil {
		t.Fatal("non-string askQuestion accepted")
	}
}

func TestRecorderDevice(t *testing.T) {
	r := NewRecorderDevice("panel-1", "ParkingEntrancePanel",
		[]string{"ParkingEntrancePanel", "DisplayPanel"}, nil,
		[]string{"update"}, nil)
	if err := r.Invoke("update", "7 free"); err != nil {
		t.Fatal(err)
	}
	if err := r.Invoke("update", "6 free"); err != nil {
		t.Fatal(err)
	}
	if calls := r.Calls("update"); len(calls) != 2 || calls[0] != "7 free" {
		t.Fatalf("calls = %v", calls)
	}
	last, ok := r.LastCall("update")
	if !ok || last != "6 free" {
		t.Fatalf("last = %q, %v", last, ok)
	}
	if _, ok := r.LastCall("never"); ok {
		t.Fatal("LastCall on unused action reported ok")
	}
}

func TestFlightModelAltitudeRespondsToElevator(t *testing.T) {
	m := NewFlightModel(30000, 250, 5)
	m.deflect("ELEVATOR", 5)
	for i := 0; i < 100; i++ {
		m.Step(100 * time.Millisecond)
	}
	alt, _, pitch, _ := m.State()
	if pitch <= 0 {
		t.Fatalf("pitch = %v after up-elevator", pitch)
	}
	if alt <= 30000 {
		t.Fatalf("altitude = %v, want climb", alt)
	}
}

func TestAvionicsSuiteDevices(t *testing.T) {
	m := NewFlightModel(30000, 250, 5)
	s := NewAvionicsSuite(m, nil)
	if len(s.AllDevices()) != 2+2+3+1 {
		t.Fatalf("device count = %d", len(s.AllDevices()))
	}
	v, err := s.ADCs[0].Query("altitude")
	if err != nil || v.(float64) != 30000 {
		t.Fatalf("altitude = %v, %v", v, err)
	}
	if v, _ := s.ADCs[1].Query("airspeed"); v.(float64) != 250 {
		t.Fatalf("airspeed = %v", v)
	}
	if v, _ := s.Attitude[0].Query("angle"); v.(float64) != 0 {
		t.Fatalf("pitch = %v", v)
	}
	if err := s.Surfaces[0].Invoke("deflect", 3.0); err != nil {
		t.Fatal(err)
	}
	if err := s.Surfaces[0].Invoke("deflect", "bad"); err == nil {
		t.Fatal("non-float deflect accepted")
	}
	if err := s.Surfaces[0].Invoke("deflect"); err == nil {
		t.Fatal("no-arg deflect accepted")
	}
	m.Step(time.Second)
	if _, _, pitch, _ := m.State(); pitch == 0 {
		t.Fatal("deflect had no effect")
	}
	if v, _ := s.Panel.Query("targetAltitude"); v.(float64) != 30000 {
		t.Fatalf("targetAltitude = %v", v)
	}
	if v, _ := s.Panel.Query("engaged"); v != true {
		t.Fatalf("engaged = %v", v)
	}
	if err := s.Panel.Invoke("annunciate", "msg"); err != nil {
		t.Fatal(err)
	}
}

func TestSurfaceDeflectionClamped(t *testing.T) {
	m := NewFlightModel(30000, 250, 5)
	m.deflect("ELEVATOR", 90)
	m.mu.Lock()
	e := m.elevator
	m.mu.Unlock()
	if e != 15 {
		t.Fatalf("elevator = %v, want clamped 15", e)
	}
}
