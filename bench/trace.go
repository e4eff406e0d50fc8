package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval at a boundary the benchmark owns: the benchmark's
// own call into a layer, or the wait between two of its observations.
// Spans of one burst, round, cycle or deploy share Op.
type span struct {
	ID     int               `json:"id"`
	Name   string            `json:"name"`
	Start  int64             `json:"start"` // unix nanoseconds
	End    int64             `json:"end"`
	Parent int               `json:"parent"` // span ID, 0 for a root
	Op     int64             `json:"op"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer, or one switched off, records nothing and hands out ID 0, so
// instrumented code needs no branches.
type tracer struct {
	mu    sync.Mutex
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{on: true} }

func (t *tracer) setEnabled(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// add records a finished span and returns its ID (0 when not recording).
func (t *tracer) add(name string, parent int, op int64, start, end time.Time, counts map[string]uint64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Start: start.UnixNano(), End: end.UnixNano(),
		Parent: parent, Op: op, Counts: counts,
	})
	return id
}

// open reserves a span whose end is not known yet, so children can name it
// as their parent; close it with finish.
func (t *tracer) open(name string, parent int, op int64, start time.Time) int {
	return t.add(name, parent, op, start, start, nil)
}

func (t *tracer) finish(id int, end time.Time, counts map[string]uint64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end.UnixNano()
	s.Counts = counts
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes a run's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (overlapping children are merged, and
// a child is clipped to its parent first).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// selfByName sums self time per span name: the per-layer share table of
// README.md is this, as shares of the total.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
