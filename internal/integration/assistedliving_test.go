package integration_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/devsim"
	"repro/internal/dsl"
	"repro/internal/dsl/designs"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// Two applications share the assisted-living taxonomy (paper §III): the
// night-path app and the activity-digest app each load the same device
// catalogue with their own orchestration logic.

func TestTaxonomySharedAcrossApplications(t *testing.T) {
	night, err := dsl.LoadAll(designs.AssistedLivingTaxonomy, designs.NightPath)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := dsl.LoadAll(designs.AssistedLivingTaxonomy, designs.ActivityDigest)
	if err != nil {
		t.Fatal(err)
	}
	// Both models contain the full taxonomy…
	if len(night.Devices) != len(digest.Devices) {
		t.Fatalf("device catalogues differ: %d vs %d", len(night.Devices), len(digest.Devices))
	}
	// …but different applications.
	if _, ok := night.Contexts["BedExit"]; !ok {
		t.Fatal("night app missing BedExit")
	}
	if _, ok := digest.Contexts["DailyActivity"]; !ok {
		t.Fatal("digest app missing DailyActivity")
	}
	// Taxonomy inheritance: MotionDetector is a HomeSensor.
	md := digest.Devices["MotionDetector"]
	if len(md.Ancestors) != 1 || md.Ancestors[0] != "HomeSensor" {
		t.Fatalf("MotionDetector ancestry = %v", md.Ancestors)
	}
	if _, ok := md.Attributes["room"]; !ok {
		t.Fatal("room attribute not inherited")
	}
}

type bedExitCtx struct{}

func (bedExitCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	occupied := call.Reading.Value.(bool)
	if !occupied {
		return true, true, nil // resident got up
	}
	return false, false, nil
}

type wanderingCtx struct{}

func (wanderingCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	if !call.Reading.Value.(bool) {
		return nil, false, nil // door closed
	}
	beds, err := call.QueryDevice("BedSensor", "occupied")
	if err != nil {
		return nil, false, err
	}
	for _, b := range beds {
		if b.Value.(bool) {
			return nil, false, nil // someone is still in bed; likely a visitor
		}
	}
	return "entrance door opened while the resident is up at night", true, nil
}

type lightPathCtrl struct{}

func (lightPathCtrl) OnContext(call *runtime.ControllerCall) error {
	if !call.Value.(bool) {
		return nil
	}
	// Light the path: bedroom, hallway, bathroom.
	for _, room := range []string{"BEDROOM", "HALLWAY", "BATHROOM"} {
		lights, err := call.DevicesWhere("LightSwitch", registry.Attributes{"room": room})
		if err != nil {
			return err
		}
		for _, l := range lights {
			if err := l.Invoke("switchOn"); err != nil {
				return err
			}
		}
	}
	return nil
}

type alertCtrl struct{}

func (alertCtrl) OnContext(call *runtime.ControllerCall) error {
	msg := call.Value.(string)
	ms, err := call.Devices("CareMessenger")
	if err != nil {
		return err
	}
	for _, m := range ms {
		if err := m.Invoke("notifyCaregiver", msg); err != nil {
			return err
		}
	}
	speakers, err := call.Devices("SpeakerUnit")
	if err != nil {
		return err
	}
	for _, s := range speakers {
		if err := s.Invoke("say", "Please remember it is night time."); err != nil {
			return err
		}
	}
	return nil
}

func TestNightPathApplication(t *testing.T) {
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 2, 30, 0, 0, time.UTC))
	model, err := dsl.LoadAll(designs.AssistedLivingTaxonomy, designs.NightPath)
	if err != nil {
		t.Fatal(err)
	}
	app := runtime.New(model, runtime.WithClock(vc))
	defer app.Stop()

	bed := device.NewBase("bed-1", "BedSensor", []string{"BedSensor", "HomeSensor"},
		registry.Attributes{"room": "BEDROOM"}, vc.Now)
	inBed := true
	bed.OnQuery("occupied", func() (any, error) { return inBed, nil })

	door := device.NewBase("door-1", "DoorSensor", []string{"DoorSensor", "HomeSensor"},
		registry.Attributes{"room": "HALLWAY"}, vc.Now)

	lights := map[string]*devsim.RecorderDevice{}
	for _, room := range []string{"BEDROOM", "HALLWAY", "BATHROOM", "KITCHEN"} {
		l := devsim.NewRecorderDevice("light-"+strings.ToLower(room), "LightSwitch",
			[]string{"LightSwitch", "HomeActuator"},
			registry.Attributes{"room": room}, []string{"switchOn", "switchOff"}, vc.Now)
		lights[room] = l
		if err := app.BindDevice(l); err != nil {
			t.Fatal(err)
		}
	}
	speaker := devsim.NewRecorderDevice("spk-1", "SpeakerUnit",
		[]string{"SpeakerUnit", "HomeActuator"},
		registry.Attributes{"room": "HALLWAY"}, []string{"say"}, vc.Now)
	carer := devsim.NewRecorderDevice("carer-1", "CareMessenger", nil, nil,
		[]string{"notifyCaregiver"}, vc.Now)
	for _, d := range []device.Driver{bed, door, speaker, carer} {
		if err := app.BindDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.ImplementContext("BedExit", bedExitCtx{}); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementContext("NightWandering", wanderingCtx{}); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementController("PathLighting", lightPathCtrl{}); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementController("WanderingAlert", alertCtrl{}); err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	// 02:30 — the resident gets up.
	inBed = false
	bed.Emit("occupied", false)
	waitFor(t, "path lights", func() bool {
		return len(lights["BEDROOM"].Calls("switchOn")) == 1 &&
			len(lights["HALLWAY"].Calls("switchOn")) == 1 &&
			len(lights["BATHROOM"].Calls("switchOn")) == 1
	})
	if n := len(lights["KITCHEN"].Calls("switchOn")); n != 0 {
		t.Fatalf("kitchen lit %d times; not on the path", n)
	}

	// The entrance door opens while nobody is in bed: caregiver alert.
	door.Emit("open", true)
	waitFor(t, "caregiver alert", func() bool {
		msgs := carer.Calls("notifyCaregiver")
		return len(msgs) == 1 && strings.Contains(msgs[0], "night")
	})
	waitFor(t, "speaker prompt", func() bool {
		return len(speaker.Calls("say")) == 1
	})

	// Resident back in bed; a door event must no longer alert.
	inBed = true
	door.Emit("open", true)
	time.Sleep(5 * time.Millisecond)
	if n := len(carer.Calls("notifyCaregiver")); n != 1 {
		t.Fatalf("alerts = %d, want still 1 (resident in bed)", n)
	}
	if st := app.Stats(); st.Errors != 0 {
		t.Fatalf("errors = %d", st.Errors)
	}
}

type dailyActivityCtx struct{}

func (dailyActivityCtx) OnTrigger(call *runtime.ContextCall) (any, bool, error) {
	out := map[string]int{}
	for room, vals := range call.Grouped {
		for _, v := range vals {
			if v.(bool) {
				out[room]++
			}
		}
	}
	return out, true, nil
}

type digestCtrl struct{}

func (digestCtrl) OnContext(call *runtime.ControllerCall) error {
	ms, err := call.Devices("CareMessenger")
	if err != nil {
		return err
	}
	for _, m := range ms {
		if err := m.Invoke("notifyCaregiver", "daily digest"); err != nil {
			return err
		}
	}
	return nil
}

func TestActivityDigestApplication(t *testing.T) {
	vc := simclock.NewVirtual(time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC))
	model, err := dsl.LoadAll(designs.AssistedLivingTaxonomy, designs.ActivityDigest)
	if err != nil {
		t.Fatal(err)
	}
	app := runtime.New(model, runtime.WithClock(vc))
	defer app.Stop()

	for _, room := range []string{"KITCHEN", "LIVING_ROOM"} {
		md := device.NewBase("md-"+room, "MotionDetector",
			[]string{"MotionDetector", "HomeSensor"},
			registry.Attributes{"room": room}, vc.Now)
		md.OnQuery("motion", func() (any, error) { return room == "KITCHEN", nil })
		if err := app.BindDevice(md); err != nil {
			t.Fatal(err)
		}
	}
	carer := devsim.NewRecorderDevice("carer-1", "CareMessenger", nil, nil,
		[]string{"notifyCaregiver"}, vc.Now)
	if err := app.BindDevice(carer); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementContext("DailyActivity", dailyActivityCtx{}); err != nil {
		t.Fatal(err)
	}
	if err := app.ImplementController("DigestMessenger", digestCtrl{}); err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	// A full day in 10-minute periods; the 24 h window flushes once.
	for i := 0; i < 144; i++ {
		before := app.Stats().PeriodicPolls
		vc.Advance(10 * time.Minute)
		waitFor(t, "poll", func() bool { return app.Stats().PeriodicPolls > before })
	}
	waitFor(t, "daily digest", func() bool {
		return len(carer.Calls("notifyCaregiver")) == 1
	})
	v, ok := app.LastPublished("DailyActivity")
	if !ok {
		t.Fatal("no digest published")
	}
	counts := v.(map[string]int)
	if counts["KITCHEN"] != 144 || counts["LIVING_ROOM"] != 0 {
		t.Fatalf("digest = %v, want KITCHEN=144 LIVING_ROOM=0", counts)
	}
}
