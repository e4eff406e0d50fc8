package qos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/registry"
)

func slowDevice(delay time.Duration) *device.Base {
	b := device.NewBase("d1", "D", []string{"D", "Base"}, registry.Attributes{"a": "1"}, nil)
	b.OnQuery("s", func() (any, error) {
		time.Sleep(delay)
		return 42, nil
	})
	b.OnAction("act", func(...any) error {
		time.Sleep(delay)
		return nil
	})
	return b
}

func TestDeadlineRecordsViolations(t *testing.T) {
	m := NewMonitor()
	d := NewDeadline(slowDevice(5*time.Millisecond), time.Millisecond, m, nil)
	v, err := d.Query("s")
	if err != nil || v != 42 {
		t.Fatalf("Query = %v, %v", v, err)
	}
	if err := d.Invoke("act"); err != nil {
		t.Fatal(err)
	}
	if m.Count() != 2 {
		t.Fatalf("violations = %d, want 2", m.Count())
	}
	viol := m.Violations()[0]
	if viol.DeviceID != "d1" || viol.Op != "query" || viol.Facet != "s" {
		t.Fatalf("violation = %+v", viol)
	}
	if !strings.Contains(viol.String(), "d1.s") {
		t.Fatalf("String() = %q", viol.String())
	}
}

func TestDeadlineNoViolationWithinBudget(t *testing.T) {
	m := NewMonitor()
	d := NewDeadline(slowDevice(0), time.Second, m, nil)
	if _, err := d.Query("s"); err != nil {
		t.Fatal(err)
	}
	if m.Count() != 0 {
		t.Fatalf("violations = %d, want 0", m.Count())
	}
}

func TestDeadlinePreservesIdentityAndSubscribe(t *testing.T) {
	m := NewMonitor()
	inner := slowDevice(0)
	d := NewDeadline(inner, time.Second, m, nil)
	if d.ID() != "d1" || d.Kind() != "D" || len(d.Kinds()) != 2 || d.Attributes()["a"] != "1" {
		t.Fatal("identity not passed through")
	}
	sink := make(chanSink, 1)
	cancel, err := d.SubscribePush("s", sink)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	inner.Emit("s", 1)
	if r := <-sink; r.Value != 1 {
		t.Fatalf("reading = %+v", r)
	}
}

// chanSink hands every pushed reading to a buffered channel.
type chanSink chan device.Reading

func (c chanSink) Push(r device.Reading) { c <- r }
