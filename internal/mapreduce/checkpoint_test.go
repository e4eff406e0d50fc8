package mapreduce

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func init() {
	// The checkpoint fixtures carry bool/int values in interface fields.
	gob.Register(true)
	gob.Register(0)
}

// checkpointClone round-trips eng through Checkpoint/Restore into a fresh
// engine with identical phases.
func checkpointClone(t *testing.T, eng boolIntEngine, combine, uncombine bool) boolIntEngine {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.inner.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	clone := newBoolIntEngine(combine, uncombine)
	if err := clone.inner.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return clone
}

// TestCheckpointRestoreEquivalence is the durability property: an engine
// restored from a checkpoint is observationally identical to the original —
// same output now, and same output after any further delta stream — on the
// replay, combiner and invertible-combiner variants.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	variants := []struct {
		name               string
		combine, uncombine bool
	}{
		{"replay", false, false},
		{"combine", true, false},
		{"uncombine", true, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			eng := newBoolIntEngine(v.combine, v.uncombine)
			final := make(map[string]Pair[string, bool])
			applyRandomDeltas(rng, eng, final, 300)

			clone := checkpointClone(t, eng, v.combine, v.uncombine)
			out1, _ := eng.Flush(nil)
			out2, _ := clone.Flush(nil)
			if !reflect.DeepEqual(out1, out2) {
				t.Fatalf("restored output diverges:\n  orig %v\n  clone %v", out1, out2)
			}

			// The clone must also evolve identically under further deltas —
			// the restored members, partials and dirty set are live state,
			// not a frozen rendering.
			rng2 := rand.New(rand.NewSource(11))
			finalA := make(map[string]Pair[string, bool])
			finalB := make(map[string]Pair[string, bool])
			applyRandomDeltas(rng2, eng, finalA, 200)
			rng2 = rand.New(rand.NewSource(11))
			applyRandomDeltas(rng2, clone, finalB, 200)
			out1, _ = eng.Flush(nil)
			out2, _ = clone.Flush(nil)
			if !reflect.DeepEqual(out1, out2) {
				t.Fatalf("post-restore evolution diverges:\n  orig %v\n  clone %v", out1, out2)
			}
		})
	}
}

// TestCheckpointMidDirty: a checkpoint taken with unflushed deltas restores
// the dirty set too — the first flush after restore re-reduces exactly the
// groups the original would have.
func TestCheckpointMidDirty(t *testing.T) {
	eng := newBoolIntEngine(true, true)
	for i := 0; i < 20; i++ {
		eng.Upsert(fmt.Sprintf("dev-%03d", i), string(rune('A'+i%3)), false)
	}
	eng.Flush(nil)
	eng.Upsert("dev-000", "B", false) // dirty A (departure) and B (arrival)

	clone := checkpointClone(t, eng, true, true)
	_, dirtyOrig := eng.Flush(nil)
	_, dirtyClone := clone.Flush(nil)
	if len(dirtyOrig) == 0 {
		t.Fatalf("fixture produced no dirty groups")
	}
	sortStrings(dirtyOrig)
	sortStrings(dirtyClone)
	if !reflect.DeepEqual(dirtyOrig, dirtyClone) {
		t.Fatalf("restored dirty set %v, want %v", dirtyClone, dirtyOrig)
	}
}

// TestRestoreCombinerlessDropsPartials: restoring a combiner checkpoint into
// a replay-only engine must not trust partials its phases cannot maintain.
func TestRestoreCombinerlessDropsPartials(t *testing.T) {
	eng := newBoolIntEngine(true, false)
	for i := 0; i < 10; i++ {
		eng.Upsert(fmt.Sprintf("dev-%03d", i), "A", false)
	}
	eng.Flush(nil)
	var buf bytes.Buffer
	if err := eng.inner.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	clone := newBoolIntEngine(false, false)
	if err := clone.inner.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	clone.Upsert("dev-000", "A", true) // forces a re-fold through replay
	out, _ := clone.Flush(nil)
	if out["A"] != 9 {
		t.Fatalf("combinerless restore re-fold = %d, want 9", out["A"])
	}
}

// TestRestoreGarbageResets: a corrupt checkpoint leaves the engine empty,
// not half-restored.
func TestRestoreGarbageResets(t *testing.T) {
	eng := newBoolIntEngine(false, false)
	eng.Upsert("dev-000", "A", false)
	if err := eng.inner.Restore(strings.NewReader("not a gob stream")); err == nil {
		t.Fatalf("Restore of garbage succeeded")
	}
	if eng.inner.Len() != 0 || len(eng.inner.groups) != 0 {
		t.Fatalf("failed restore left %d inputs / %d groups", eng.inner.Len(), len(eng.inner.groups))
	}
}

// TestInputsIteration: Inputs exposes every contributing id with its emitted
// keys (the restore-time reconciliation contract). Inputs whose map emitted
// nothing hold no state and are not tracked.
func TestInputsIteration(t *testing.T) {
	eng := newBoolIntEngine(false, false)
	eng.Upsert("dev-000", "A", false) // vacant: emits into A
	eng.Upsert("dev-001", "B", true)  // occupied: no emission, no state
	got := make(map[string][]string)
	eng.inner.Inputs(func(id string, keys []string) { got[id] = keys })
	if len(got) != 1 {
		t.Fatalf("Inputs visited %d ids, want 1", len(got))
	}
	if !reflect.DeepEqual(got["dev-000"], []string{"A"}) {
		t.Fatalf("dev-000 keys = %v, want [A]", got["dev-000"])
	}
}

// TestCheckpointSkipsEmptyRecords: inputs whose map phase emits nothing
// keep a record in the engine but not in a checkpoint. The format is
// unchanged, and an engine that installs the checkpoint's Inputs map as its
// id index (as earlier versions of Restore did) must find only contributing
// inputs there, each with its groups.
func TestCheckpointSkipsEmptyRecords(t *testing.T) {
	eng := newBoolIntEngine(true, true)
	eng.Upsert("dev-000", "A", false) // vacant: contributes to A
	eng.Upsert("dev-001", "A", true)  // occupied: empty record
	eng.Upsert("dev-002", "B", false)
	eng.Upsert("dev-002", "B", true) // contributed, now empty; B emptied
	var buf bytes.Buffer
	if err := eng.inner.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	raw := buf.Bytes()

	var st ckptState[string, any]
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(st.Inputs, map[string][]string{"dev-000": {"A"}}) {
		t.Fatalf("checkpoint inputs = %v, want only dev-000 in A", st.Inputs)
	}
	for k, g := range st.Groups {
		for id := range g.Members {
			if id != "dev-000" {
				t.Fatalf("group %s holds member %s", k, id)
			}
		}
	}

	clone := newBoolIntEngine(true, true)
	if err := clone.inner.Restore(bytes.NewReader(raw)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if clone.inner.Len() != 1 || clone.inner.Has("dev-001") || !clone.inner.Has("dev-000") {
		t.Fatalf("restored Len=%d Has(dev-001)=%v", clone.inner.Len(), clone.inner.Has("dev-001"))
	}
	out1, _ := eng.Flush(nil)
	out2, _ := clone.Flush(nil)
	if !reflect.DeepEqual(out1, out2) || out1["A"] != 1 {
		t.Fatalf("restored output %v, original %v", out2, out1)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
