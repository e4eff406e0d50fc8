package eventbus

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

var shardT0 = time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC)

// TestCrossShardOrderingPerTopic drives one publisher across many topics
// that share the bus's one topic-table lock and verifies that every topic's
// subscriber observes exactly its own events, in publication order: each
// payload is the topic's own publication counter.
func TestCrossShardOrderingPerTopic(t *testing.T) {
	b := New()
	defer b.Close()
	const topics = 64
	const perTopic = 100

	var mu sync.Mutex
	got := make([][]int, topics) // got[i]: payloads seen by topic i's subscriber
	var wg sync.WaitGroup
	wg.Add(topics * perTopic)
	for i := 0; i < topics; i++ {
		if _, err := b.Subscribe(fmt.Sprintf("topic-%02d", i), func(ev Event) {
			mu.Lock()
			got[i] = append(got[i], ev.Payload.(int))
			mu.Unlock()
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < perTopic; n++ {
		for i := 0; i < topics; i++ {
			if err := b.Publish(fmt.Sprintf("topic-%02d", i), n, shardT0); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for i, payloads := range got {
		if len(payloads) != perTopic {
			t.Fatalf("topic-%02d delivered %d events, want %d", i, len(payloads), perTopic)
		}
		for n, p := range payloads {
			if p != n {
				t.Fatalf("topic-%02d event %d carries payload %d, want %d (FIFO violated)", i, n, p, n)
			}
		}
	}
}
