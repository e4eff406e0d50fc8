package mapreduce

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// vacancyMap is the paper's Figure 10 Map phase: emit true for each vacant
// space, keyed by parking lot.
func vacancyMap(lot string, present bool, emit func(string, bool)) {
	if !present {
		emit(lot, true)
	}
}

// countReduce is the paper's Figure 10 Reduce phase: availability per lot.
func countReduce(lot string, values []bool, emit func(string, int)) {
	emit(lot, len(values))
}

func TestFigure10ParkingAvailability(t *testing.T) {
	in := []Pair[string, bool]{
		{"A22", true}, {"A22", false}, {"A22", false},
		{"B16", true}, {"B16", true},
		{"D6", false},
	}
	got := RunSequential(in, vacancyMap, countReduce)
	want := []Pair[string, int]{{"A22", 2}, {"D6", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("availability = %v, want %v", got, want)
	}
}

func TestEmptyInput(t *testing.T) {
	if got := RunSequential(nil, vacancyMap, countReduce); got != nil {
		t.Fatalf("RunSequential(nil) = %v, want nil", got)
	}
}

// Reducer values arrive in the order of the input records that produced
// them, and groups in first-emission order; this is what makes
// non-commutative reducers usable.
func TestValueOrderIsInputOrder(t *testing.T) {
	const n = 5000
	in := make([]Pair[string, int], n)
	for i := range in {
		in[i] = Pair[string, int]{Key: fmt.Sprintf("g%d", i%7), Value: i}
	}
	identity := func(k string, v int, emit func(string, int)) { emit(k, v) }
	concat := func(k string, vs []int, emit func(string, string)) {
		var b strings.Builder
		for _, v := range vs {
			fmt.Fprintf(&b, "%d,", v)
		}
		emit(k, b.String())
	}
	var want []Pair[string, string]
	for g := 0; g < 7; g++ {
		var b strings.Builder
		for i := g; i < n; i += 7 {
			fmt.Fprintf(&b, "%d,", i)
		}
		want = append(want, Pair[string, string]{Key: fmt.Sprintf("g%d", g), Value: b.String()})
	}
	if got := RunSequential(in, identity, concat); !reflect.DeepEqual(got, want) {
		t.Fatal("reducer values differ from input order")
	}
}

func TestMultipleEmitsPerRecord(t *testing.T) {
	in := []Pair[string, int]{{"x", 3}, {"y", 2}}
	fanOut := func(k string, v int, emit func(string, int)) {
		for i := 0; i < v; i++ {
			emit(k, i)
		}
	}
	sum := func(k string, vs []int, emit func(string, int)) {
		s := 0
		for _, v := range vs {
			s += v
		}
		emit(k, s)
	}
	got := RunSequential(in, fanOut, sum)
	want := []Pair[string, int]{{"x", 3}, {"y", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestReduceCanEmitZeroOrMany(t *testing.T) {
	in := []Pair[string, int]{{"a", 1}, {"b", 2}}
	identity := func(k string, v int, emit func(string, int)) { emit(k, v) }
	expand := func(k string, vs []int, emit func(string, int)) {
		if k == "a" {
			return // zero emissions
		}
		emit(k, vs[0])
		emit(k+"-copy", vs[0])
	}
	got := RunSequential(in, identity, expand)
	want := []Pair[string, int]{{"b", 2}, {"b-copy", 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
