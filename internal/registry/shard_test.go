package registry

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func fill(t *testing.T, r *Registry, n int) {
	t.Helper()
	lots := []string{"A22", "B16", "D6", "E31", "F12"}
	for i := 0; i < n; i++ {
		e := Entity{
			ID:    ID(fmt.Sprintf("s%05d", i)),
			Kind:  "PresenceSensor",
			Attrs: Attributes{"parkingLot": lots[i%len(lots)]},
		}
		if i%10 == 0 {
			e.Kind = "DisplayPanel"
			e.Attrs = nil
		}
		if err := r.Register(e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanPanicReleasesShard: Scan runs the caller's function under a shard
// lock. A callback that panics, even one the caller recovers, must not leave
// that lock held, or every later Register on the shard and Close deadlock.
func TestScanPanicReleasesShard(t *testing.T) {
	r := New()
	if err := r.Register(Entity{ID: "a", Kind: "S"}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { _ = recover() }()
		r.Scan(Query{Kind: "S"}, func(Entity) bool { panic("callback") })
	}()
	done := make(chan error, 1)
	go func() {
		err := r.Register(Entity{ID: "a", Kind: "S"}) // a's shard: the one Scan held
		r.Close()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDuplicate) {
			t.Fatalf("Register after the recovered panic = %v, want ErrDuplicate", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("registry wedged: Register and Close still blocked 2 s after a Scan callback panicked")
	}
}

// TestScanMatchesDiscover checks that the lock-free-of-clones scan visits
// exactly the entities Discover returns, for kind, attribute and unfiltered
// queries.
func TestScanMatchesDiscover(t *testing.T) {
	r := New()
	defer r.Close()
	fill(t, r, 500)

	for _, q := range []Query{
		{},
		{Kind: "PresenceSensor"},
		{Kind: "PresenceSensor", Where: Attributes{"parkingLot": "A22"}},
		{Where: Attributes{"parkingLot": "B16"}},
		{Kind: "NoSuchKind"},
	} {
		want := make(map[ID]bool)
		for _, e := range r.Discover(q) {
			want[e.ID] = true
		}
		got := make(map[ID]bool)
		r.Scan(q, func(e Entity) bool {
			if got[e.ID] {
				t.Fatalf("query %+v visited %s twice", q, e.ID)
			}
			got[e.ID] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("query %+v: scan visited %d, discover returned %d", q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %+v: scan missed %s", q, id)
			}
		}
	}
}

// TestScanEarlyStopAndLimit checks both ways of bounding a scan.
func TestScanEarlyStopAndLimit(t *testing.T) {
	r := New()
	defer r.Close()
	fill(t, r, 100)

	visits := 0
	r.Scan(Query{}, func(Entity) bool {
		visits++
		return visits < 7
	})
	if visits != 7 {
		t.Fatalf("early-stop scan visited %d, want 7", visits)
	}

	visits = 0
	r.Scan(Query{Kind: "PresenceSensor", Limit: 13}, func(Entity) bool {
		visits++
		return true
	})
	if visits != 13 {
		t.Fatalf("limited scan visited %d, want 13", visits)
	}
}

// TestScanDuringConcurrentMutation exercises scans racing registrations and
// unregistrations on other shards; run under -race this is the "no global
// lock" proof.
func TestScanDuringConcurrentMutation(t *testing.T) {
	r := New()
	defer r.Close()
	fill(t, r, 200)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := ID(fmt.Sprintf("churn-%04d", i%50))
			if i%2 == 0 {
				_ = r.Register(Entity{ID: id, Kind: "Churn"})
			} else {
				_ = r.Unregister(id)
			}
			i++
		}
	}()
	for i := 0; i < 50; i++ {
		n := 0
		r.Scan(Query{Kind: "PresenceSensor"}, func(e Entity) bool {
			n++
			return true
		})
		if n != 180 {
			t.Fatalf("scan %d visited %d stable sensors, want 180", i, n)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWithShardsSingle checks the one-shard configuration still serves the
// full API (the ablation baseline).
func TestWithShardsSingle(t *testing.T) {
	r := New(WithShards(1))
	defer r.Close()
	if len(r.shards) != 1 {
		t.Fatalf("%d shards, want 1", len(r.shards))
	}
	fill(t, r, 50)
	if got := r.Count(); got != 50 {
		t.Fatalf("Count = %d, want 50", got)
	}
	if got := len(r.Discover(Query{Kind: "PresenceSensor"})); got != 45 {
		t.Fatalf("Discover = %d, want 45", got)
	}
}

// TestShardCountDefault pins the default shard count.
func TestShardCountDefault(t *testing.T) {
	r := New()
	defer r.Close()
	if len(r.shards) != DefaultShards {
		t.Fatalf("%d shards, want %d", len(r.shards), DefaultShards)
	}
}

// candidateShapes counts the shapes a query tests across every shard: the
// cost of a Discover or Scan before it walks any member.
func candidateShapes(r *Registry, q Query) int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += len(sh.candidatesLocked(q))
		sh.mu.Unlock()
	}
	return n
}

// TestRareKindCandidatesStayInTheKindIndex pins the cost of a query for a
// kind most shards hold none of (one panel in a fleet of sensors, a freshly
// hot-deployed tenant's kind): a shard without the kind contributes no
// candidate shape. It used to fall through to a copy of its whole entity
// table, making every such Discover/Scan O(fleet).
func TestRareKindCandidatesStayInTheKindIndex(t *testing.T) {
	r := New()
	defer r.Close()
	for i := 0; i < 2000; i++ {
		if err := r.Register(Entity{ID: ID(fmt.Sprintf("s%05d", i)), Kind: "PresenceSensor"}); err != nil {
			t.Fatal(err)
		}
	}
	panel := Entity{ID: "panel-1", Kind: "EntrancePanel", Kinds: []string{"EntrancePanel", "DisplayPanel"}}
	if err := r.Register(panel); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"EntrancePanel", "DisplayPanel", "NoSuchKind"} {
		want := 1
		if kind == "NoSuchKind" {
			want = 0
		}
		if n := candidateShapes(r, Query{Kind: kind}); n != want {
			t.Errorf("kind %s: %d candidate shapes across shards, want %d", kind, n, want)
		}
		if got := r.Discover(Query{Kind: kind}); len(got) != want || (want == 1 && got[0].ID != panel.ID) {
			t.Errorf("kind %s: Discover = %v, want %d match(es)", kind, got, want)
		}
	}
}

// TestAttributeSharedAcrossKindsDoesNotWidenCandidates: an attribute value
// that a rare kind shares with a populous one (a panel and the 500 sensors of
// its lot) must not make a lookup of the rare kind walk the populous one.
// Postings keyed by attribute alone used to hand Discover(panel, lot=X) all
// 501 entities of the lot to test one by one.
func TestAttributeSharedAcrossKindsDoesNotWidenCandidates(t *testing.T) {
	r := New()
	defer r.Close()
	lot := Attributes{"lot": "X"}
	for i := 0; i < 500; i++ {
		if err := r.Register(Entity{ID: ID(fmt.Sprintf("s%05d", i)), Kind: "PresenceSensor", Attrs: lot}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Register(Entity{ID: "panel-1", Kind: "EntrancePanel", Attrs: lot}); err != nil {
		t.Fatal(err)
	}
	q := Query{Kind: "EntrancePanel", Where: lot}
	if n := candidateShapes(r, q); n > 2 {
		t.Errorf("Discover(EntrancePanel, lot=X) tests %d candidate shapes, want <= 2", n)
	}
	if got := r.Discover(q); len(got) != 1 || got[0].ID != "panel-1" {
		t.Errorf("Discover(EntrancePanel, lot=X) = %v, want panel-1 alone", got)
	}
	if got := r.Discover(Query{Kind: "PresenceSensor", Where: lot}); len(got) != 500 {
		t.Errorf("Discover(PresenceSensor, lot=X) = %d entities, want 500", len(got))
	}
}

// BenchmarkRegistry_ScanKind is a periodic gather's snapshot: Scan of every
// entity of one kind in a 50k fleet, 100 lots. Its cost must follow the
// matches, with nothing allocated per entity.
func BenchmarkRegistry_ScanKind(b *testing.B) {
	r := New()
	defer r.Close()
	for i := 0; i < 50000; i++ {
		e := Entity{
			ID:    ID(fmt.Sprintf("s%05d", i)),
			Kind:  "PresenceSensor",
			Kinds: []string{"PresenceSensor", "Sensor"},
			Attrs: Attributes{"lot": fmt.Sprintf("lot%03d", i%100)},
		}
		if err := r.Register(e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		r.Scan(Query{Kind: "Sensor"}, func(Entity) bool { n++; return true })
		if n != 50000 {
			b.Fatalf("Scan visited %d entities, want 50000", n)
		}
	}
}

// BenchmarkRegistry_DiscoverRareKind is Discover for one panel among 50k
// sensors: the cost must follow the matches, not the fleet.
func BenchmarkRegistry_DiscoverRareKind(b *testing.B) {
	r := New()
	defer r.Close()
	for i := 0; i < 50000; i++ {
		if err := r.Register(Entity{ID: ID(fmt.Sprintf("s%05d", i)), Kind: "PresenceSensor"}); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.Register(Entity{ID: "panel-1", Kind: "EntrancePanel"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.Discover(Query{Kind: "EntrancePanel"}); len(got) != 1 {
			b.Fatalf("Discover returned %d entities, want 1", len(got))
		}
	}
}
