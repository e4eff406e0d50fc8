package runtime

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/dsl"
	"repro/internal/simclock"
)

type namedEnum string
type badSlice []int

// valuesEqual must recognize named scalar types (DSL enums generate
// `type X string`) so the periodic delta path doesn't degrade to
// everything-changed, and must stay safe on non-comparable values.
func TestValuesEqual(t *testing.T) {
	at := time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		a, b any
		want bool
	}{
		{"bool-eq", true, true, true},
		{"bool-ne", true, false, false},
		{"int-eq", 7, 7, true},
		{"float-ne", 1.5, 2.5, false},
		{"string-eq", "x", "x", true},
		{"time-eq", at, at.Add(0), true},
		{"named-string-eq", namedEnum("FULL"), namedEnum("FULL"), true},
		{"named-string-ne", namedEnum("FULL"), namedEnum("FREE"), false},
		{"cross-type", namedEnum("FULL"), "FULL", false},
		{"nil-side", nil, true, false},
		{"both-nil", nil, nil, false}, // conservative: nil carries no type
		{"non-comparable", badSlice{1}, badSlice{1}, false},
	}
	for _, tc := range cases {
		if got := valuesEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: valuesEqual(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

// windowVacancy counts vacant readings per lot, combinably.
type windowVacancy struct{}

func (windowVacancy) Map(lot string, v any, emit func(string, any)) {
	if !v.(bool) {
		emit(lot, true)
	}
}
func (windowVacancy) Reduce(lot string, vs []any, emit func(string, any)) { emit(lot, len(vs)) }
func (windowVacancy) Combine(_ string, a, b any) any                      { return a.(int) + b.(int) }
func (windowVacancy) Uncombine(_ string, a, v any) any                    { return a.(int) - v.(int) }
func (windowVacancy) OnTrigger(*ContextCall) (any, bool, error)           { return nil, false, nil }

// BenchmarkEveryWindowFlush measures the dispatch side of one closed
// `every` window, delivered once: 5k sensors × 6 ticks folded into a
// combinable vacancy aggregate over 100 lots, and a day of 10-minute ticks
// from 1k sensors grouped raw over 5 lots (the parking design's
// AverageOccupancy shape).
func BenchmarkEveryWindowFlush(b *testing.B) {
	for _, bc := range []struct {
		name                 string
		sensors, ticks, lots int
		clause               string
	}{
		{"vacancy/5000x6", 5000, 6, 100, "with map as Boolean reduce as Integer"},
		{"raw/1000x144", 1000, 144, 5, ""},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rt := New(dsl.MustLoad(fmt.Sprintf(`
device S { attribute lot as String; source presence as Boolean; }
context Vacancy as Integer {
	when periodic presence from S <1 min> grouped by lot every <%d min> %s no publish;
}
`, bc.ticks, bc.clause)), WithClock(simclock.NewVirtual(time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC))))
			if err := rt.ImplementContext("Vacancy", windowVacancy{}); err != nil {
				b.Fatal(err)
			}
			if err := rt.Start(); err != nil {
				b.Fatal(err)
			}
			defer rt.Stop()
			p := rt.pollers[0] // the virtual clock never advances: p never polls
			rng := rand.New(rand.NewSource(7))
			win := make([]GroupedReading, 0, bc.sensors*bc.ticks)
			for t := 0; t < bc.ticks; t++ {
				for i := 0; i < bc.sensors; i++ {
					win = append(win, GroupedReading{
						Group:   fmt.Sprintf("L%03d", i%bc.lots),
						Reading: device.Reading{DeviceID: fmt.Sprintf("s%05d", i), Source: "presence", Value: rng.Intn(2) == 0},
					})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.dispatchDelta(&pollOut{readings: win, reset: true, window: true})
			}
		})
	}
}
