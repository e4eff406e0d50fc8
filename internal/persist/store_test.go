package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/registry"
)

// newJournaledRegistry wires a fresh registry to s, as runtime.New does.
func newJournaledRegistry(t *testing.T, s *Store) *registry.Registry {
	t.Helper()
	reg := registry.New(registry.WithShards(4))
	if rec := s.Recovered(); rec != nil {
		for _, re := range rec.Entities {
			if err := reg.RestoreEntity(re.Entity); err != nil {
				t.Fatalf("RestoreEntity: %v", err)
			}
		}
		reg.RestoreGenerations(rec.GenAll, rec.Gens)
	}
	reg.SetJournal(s.Journal())
	s.SetRegistry(reg)
	return reg
}

func ent(i int, lot string) registry.Entity {
	return registry.Entity{
		ID:    registry.ID(fmt.Sprintf("sensor-%04d", i)),
		Kind:  "PresenceSensor",
		Kinds: []string{"PresenceSensor", "Sensor"},
		Attrs: registry.Attributes{"lot": lot},
		Bound: registry.BindRuntime,
	}
}

// TestStoreRoundTrip covers the full happy path: register entities, mutate,
// snapshot mid-stream, mutate more, crash (dropping nothing: SyncEvery),
// then recover and compare contents and generation sums exactly.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SyncEvery: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Recovered() != nil {
		t.Fatalf("fresh dir reported recovered state")
	}
	reg := newJournaledRegistry(t, s)

	for i := 0; i < 40; i++ {
		if err := reg.Register(ent(i, "A")); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	// Post-snapshot tail: updates, removals, new registrations.
	for i := 0; i < 10; i++ {
		if err := reg.Update(registry.ID(fmt.Sprintf("sensor-%04d", i)), registry.Attributes{"lot": "B"}, ""); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	for i := 30; i < 35; i++ {
		if err := reg.Unregister(registry.ID(fmt.Sprintf("sensor-%04d", i))); err != nil {
			t.Fatalf("Unregister: %v", err)
		}
	}
	for i := 40; i < 45; i++ {
		if err := reg.Register(ent(i, "C")); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	wantGen := reg.Generation("PresenceSensor")
	wantAll := reg.Generation("")
	wantCount := reg.Count()

	s.SavePeer("hub", PeerState{Boot: 7, Gens: map[string]uint64{"PresenceSensor": 123}})
	if err := s.SetBoot(42); err != nil {
		t.Fatalf("SetBoot: %v", err)
	}
	s.Crash()
	reg.Close()

	s2, err := Open(dir, Options{SyncEvery: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	if rec == nil {
		t.Fatalf("no recovered state")
	}
	if rec.Boot != 42 {
		t.Fatalf("boot = %d, want 42", rec.Boot)
	}
	if got := rec.Peers["hub"]; got.Boot != 7 || got.Gens["PresenceSensor"] != 123 {
		t.Fatalf("peer cursor = %+v", got)
	}
	if len(rec.Entities) != wantCount {
		t.Fatalf("recovered %d entities, want %d", len(rec.Entities), wantCount)
	}
	reg2 := newJournaledRegistry(t, s2)
	if got := reg2.Count(); got != wantCount {
		t.Fatalf("restored count = %d, want %d", got, wantCount)
	}
	if got := reg2.Generation("PresenceSensor"); got != wantGen {
		t.Fatalf("restored kind gen = %d, want %d", got, wantGen)
	}
	if got := reg2.Generation(""); got != wantAll {
		t.Fatalf("restored all gen = %d, want %d", got, wantAll)
	}
	// Moved entities kept their updated attributes.
	e, ok := reg2.Get("sensor-0003")
	if !ok || e.Attrs["lot"] != "B" {
		t.Fatalf("sensor-0003 = %+v ok=%v, want lot B", e, ok)
	}
	// Removed entities stayed removed.
	if _, ok := reg2.Get("sensor-0032"); ok {
		t.Fatalf("unregistered entity survived recovery")
	}
	// Mutations after recovery keep the sums strictly monotonic.
	if err := reg2.Register(ent(50, "D")); err != nil {
		t.Fatalf("post-recovery Register: %v", err)
	}
	if got := reg2.Generation("PresenceSensor"); got <= wantGen {
		t.Fatalf("post-recovery gen %d did not advance past %d", got, wantGen)
	}
}

// TestStoreCrashDiscardsUnflushed: buffered records die with the process;
// everything before the last barrier survives.
func TestStoreCrashDiscardsUnflushed(t *testing.T) {
	dir := t.TempDir()
	// Huge flush interval: nothing flushes unless barriered explicitly.
	s, err := Open(dir, Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	reg := newJournaledRegistry(t, s)
	for i := 0; i < 10; i++ {
		if err := reg.Register(ent(i, "A")); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	if err := s.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	durableGen := reg.Generation("")
	for i := 10; i < 20; i++ {
		if err := reg.Register(ent(i, "A")); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	s.Crash()
	if err := s.Barrier(); err != ErrCrashed {
		t.Fatalf("post-crash Barrier = %v, want ErrCrashed", err)
	}
	reg.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec.Entities) != 10 {
		t.Fatalf("recovered %d entities, want the 10 barriered ones", len(rec.Entities))
	}
	if rec.GenAll != durableGen {
		t.Fatalf("recovered gen %d, want %d", rec.GenAll, durableGen)
	}
}

// TestStoreSegmentPruning: snapshots prune segments below every retained
// snapshot's replay position.
func TestStoreSegmentPruning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 512, SyncEvery: true, Retain: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	reg := newJournaledRegistry(t, s)
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			id := registry.ID(fmt.Sprintf("sensor-%04d", i))
			if round == 0 {
				if err := reg.Register(ent(i, "A")); err != nil {
					t.Fatalf("Register: %v", err)
				}
			} else if err := reg.Update(id, registry.Attributes{"lot": fmt.Sprintf("L%d", round)}, ""); err != nil {
				t.Fatalf("Update: %v", err)
			}
		}
		if err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatalf("listSnapshots: %v", err)
	}
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshots, want 2", len(snaps))
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	for _, seg := range segs {
		if seg < snaps[0].firstSeg {
			t.Fatalf("segment %d below retained replay floor %d survived pruning", seg, snaps[0].firstSeg)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// And the pruned directory still recovers exactly.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec.Entities) != 20 {
		t.Fatalf("recovered %d entities, want 20", len(rec.Entities))
	}
	for _, re := range rec.Entities {
		if re.Entity.Attrs["lot"] != "L4" {
			t.Fatalf("entity %s lot = %q, want L4", re.Entity.ID, re.Entity.Attrs["lot"])
		}
	}
}

// TestStoreCloseReopen: a clean Close writes a final snapshot; reopening
// restores from it with an empty WAL tail.
func TestStoreCloseReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	reg := newJournaledRegistry(t, s)
	for i := 0; i < 15; i++ {
		if err := reg.Register(ent(i, "A")); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	gen := reg.Generation("")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reg.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec.Entities) != 15 || rec.GenAll != gen {
		t.Fatalf("recovered %d entities gen %d, want 15 / %d", len(rec.Entities), rec.GenAll, gen)
	}
}

// TestStoreRepairsTornTail: recovery truncates a torn final record in place
// so the next incarnation's appends land behind a clean prefix.
func TestStoreRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SyncEvery: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	reg := newJournaledRegistry(t, s)
	for i := 0; i < 8; i++ {
		if err := reg.Register(ent(i, "A")); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	s.Crash()
	reg.Close()

	// Tear the last segment mid-record.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	last := filepath.Join(dir, segName(segs[len(segs)-1]))
	info, err := os.Stat(last)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	s2, err := Open(dir, Options{SyncEvery: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec := s2.Recovered()
	if len(rec.Entities) != 7 {
		t.Fatalf("recovered %d entities, want 7 (torn record dropped)", len(rec.Entities))
	}
	reg2 := newJournaledRegistry(t, s2)
	if err := reg2.Register(ent(100, "Z")); err != nil {
		t.Fatalf("post-repair Register: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reg2.Close()

	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer s3.Close()
	if got := len(s3.Recovered().Entities); got != 8 {
		t.Fatalf("third incarnation recovered %d entities, want 8", got)
	}
}

// format1Dir writes a directory as a format-1 build left it: a DSPWAL1
// segment holding one mutation record whose payload ends in the lease
// varint, and a DSPSNP1 snapshot whose entity carries one too.
func format1Dir(t *testing.T, withSeg, withSnap bool) string {
	t.Helper()
	dir := t.TempDir()
	e := ent(0, "A")
	if withSeg {
		p := &enc{}
		encodeMutation(p, &registry.Mutation{
			Type:     registry.Added,
			GenAll:   1,
			KindGens: []registry.KindGen{{Kind: "PresenceSensor", Gen: 1}, {Kind: "Sensor", Gen: 1}},
			Entity:   &e,
		})
		p.i64(int64(90 * time.Second)) // lease remaining
		seg := buildSegment(append([]byte{recMutation}, p.b...))
		copy(seg, "DSPWAL1\n")
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if withSnap {
		b := &enc{}
		b.u8(1)       // body version
		b.u64(1)      // firstSeg
		b.u64(0)      // boot
		b.u64(0)      // baseAll
		b.u64Map(nil) // baseKinds
		b.u64(0)      // shards
		b.u64(1)      // entities
		encodeEntity(b, &e)
		b.i64(int64(time.Minute)) // lease remaining
		b.u64(0)                  // peers
		b.u64(0)                  // aggs
		snap := []byte("DSPSNP1\n")
		snap = binary.LittleEndian.AppendUint32(snap, uint32(len(b.b)))
		snap = binary.LittleEndian.AppendUint32(snap, crc32.Checksum(b.b, crcTable))
		snap = append(snap, b.b...)
		if err := os.WriteFile(filepath.Join(dir, snapName(1, 1)), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// readDir maps every file name in dir to its contents.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = string(data)
	}
	return out
}

// TestOpenRefusesFormat1: a store written with registration leases is
// refused by name and left byte-identical. Read as format 2, its segment's
// unknown magic would be a torn segment truncated to 0 bytes and its
// snapshot skipped, emptying the store without a word.
func TestOpenRefusesFormat1(t *testing.T) {
	for _, tc := range []struct {
		name              string
		withSeg, withSnap bool
	}{
		{"segment and snapshot", true, true},
		{"segment only", true, false},
		{"snapshot only", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := format1Dir(t, tc.withSeg, tc.withSnap)
			before := readDir(t, dir)
			s, err := Open(dir, Options{})
			if err == nil {
				// Detach without the final snapshot a Close would write.
				s.Crash()
				s.Close()
			}
			after := readDir(t, dir)
			if len(after) != len(before) {
				t.Errorf("directory holds %d files after Open, want %d", len(after), len(before))
			}
			for name, data := range before {
				if after[name] != data {
					t.Errorf("%s changed: %d bytes before Open, %d after", name, len(data), len(after[name]))
				}
			}
			if !errors.Is(err, ErrOldFormat) ||
				!strings.Contains(err.Error(), "is format 1 (registration leases); this build reads format 2 only") {
				t.Fatalf("Open err = %v, want the format-1 refusal", err)
			}
		})
	}
}
