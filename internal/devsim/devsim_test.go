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

func TestParkingFleetDeterminism(t *testing.T) {
	build := func() map[string]int {
		vc := simclock.NewVirtual(epoch)
		f := NewParkingFleet(DefaultParkingModel([]string{"A22", "B16"}, 50, 42), vc)
		for i := 0; i < 12; i++ {
			vc.Advance(time.Hour)
			f.Step()
		}
		return f.VacantPerLot()
	}
	a, b := build(), build()
	for lot, v := range a {
		if b[lot] != v {
			t.Fatalf("fleet not deterministic: %v vs %v", a, b)
		}
	}
}

func TestParkingFleetDiurnalSwing(t *testing.T) {
	vc := simclock.NewVirtual(epoch) // 02:00
	f := NewParkingFleet(DefaultParkingModel([]string{"A22"}, 400, 1), vc)
	// Let the model settle overnight.
	for i := 0; i < 4; i++ {
		vc.Advance(time.Hour)
		f.Step()
	}
	night := f.Occupancy()["A22"]
	// Advance to 13:00 (peak).
	for i := 0; i < 7; i++ {
		vc.Advance(time.Hour)
		f.Step()
	}
	noon := f.Occupancy()["A22"]
	if noon <= night+0.2 {
		t.Fatalf("no diurnal swing: night=%.2f noon=%.2f", night, noon)
	}
	if noon < 0.5 {
		t.Fatalf("midday occupancy %.2f, want >= 0.5", noon)
	}
}

func TestParkingFleetSensorsQueryAndGroundTruth(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	f := NewParkingFleet(DefaultParkingModel([]string{"A22", "B16"}, 10, 3), vc)
	if f.Size() != 20 {
		t.Fatalf("size = %d", f.Size())
	}
	// Sum sensor queries and compare with ground truth.
	truth := f.VacantPerLot()
	free := map[string]int{}
	for _, s := range f.Sensors() {
		v, err := s.Query("presence")
		if err != nil {
			t.Fatal(err)
		}
		if !v.(bool) {
			free[s.Attributes()["parkingLot"]]++
		}
	}
	for lot, n := range truth {
		if free[lot] != n {
			t.Fatalf("lot %s: sensors say %d free, ground truth %d", lot, free[lot], n)
		}
	}
}

func TestParkingFleetSetOccupied(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	f := NewParkingFleet(DefaultParkingModel([]string{"A22"}, 4, 3), vc)
	for i := 0; i < 4; i++ {
		f.SetOccupied(i, true)
	}
	if got := f.VacantPerLot()["A22"]; got != 0 {
		t.Fatalf("vacant = %d after occupying all", got)
	}
	if got := f.Occupancy()["A22"]; got != 1.0 {
		t.Fatalf("occupancy = %v", got)
	}
}

func TestParkingFleetStepNoTimeNoChange(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	f := NewParkingFleet(DefaultParkingModel([]string{"A22"}, 20, 9), vc)
	before := f.VacantPerLot()["A22"]
	f.Step() // no time elapsed
	if after := f.VacantPerLot()["A22"]; after != before {
		t.Fatalf("state changed without time: %d -> %d", before, after)
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

func TestParkingFleetEmitsEventDrivenChanges(t *testing.T) {
	vc := simclock.NewVirtual(epoch)
	cfg := DefaultParkingModel([]string{"A22"}, 30, 5)
	cfg.TurnoverRate = 50 // force plenty of flips per hour
	f := NewParkingFleet(cfg, vc)
	events := 0
	var cancels []func()
	// Subscribe to every sensor's presence source.
	received := make(chanSink, 4096)
	for _, s := range f.Sensors() {
		cancel, err := s.SubscribePush("presence", received)
		if err != nil {
			t.Fatal(err)
		}
		cancels = append(cancels, cancel)
	}
	vc.Advance(6 * time.Hour) // into late morning: big occupancy swing
	f.Step()
	deadline := time.After(5 * time.Second)
	for events == 0 {
		select {
		case <-received:
			events++
		case <-deadline:
			t.Fatal("no event-driven readings emitted on state change")
		}
	}
	for _, cancel := range cancels {
		cancel()
	}
}
