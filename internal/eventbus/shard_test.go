package eventbus

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

var shardT0 = time.Date(2017, 6, 5, 9, 0, 0, 0, time.UTC)

// TestCrossShardOrderingPerTopic drives one publisher across many topics
// that hash to different shards and verifies that every topic's subscriber
// still observes its own events in publication order with strictly
// increasing sequence numbers.
func TestCrossShardOrderingPerTopic(t *testing.T) {
	b := New()
	defer b.Close()
	const topics = 64
	const perTopic = 100

	var mu sync.Mutex
	got := make(map[string][]Event, topics)
	var wg sync.WaitGroup
	wg.Add(topics * perTopic)
	for i := 0; i < topics; i++ {
		topic := fmt.Sprintf("topic-%02d", i)
		if _, err := b.Subscribe(topic, func(ev Event) {
			mu.Lock()
			got[ev.Topic] = append(got[ev.Topic], ev)
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
	for topic, evs := range got {
		if len(evs) != perTopic {
			t.Fatalf("%s delivered %d events, want %d", topic, len(evs), perTopic)
		}
		for n, ev := range evs {
			if ev.Payload.(int) != n {
				t.Fatalf("%s event %d carries payload %v, want %d", topic, n, ev.Payload, n)
			}
			if n > 0 && ev.Seq <= evs[n-1].Seq {
				t.Fatalf("%s seq not increasing: %d then %d", topic, evs[n-1].Seq, ev.Seq)
			}
		}
	}
}

// TestWithShardsRounding checks the shard-count normalization.
func TestWithShardsRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		b := New(WithShards(tc.in))
		if got := b.ShardCount(); got != tc.want {
			t.Fatalf("WithShards(%d) → %d shards, want %d", tc.in, got, tc.want)
		}
		b.Close()
	}
	b := New()
	defer b.Close()
	if b.ShardCount() != DefaultShards {
		t.Fatalf("default shard count = %d, want %d", b.ShardCount(), DefaultShards)
	}
}

// TestSingleShardBehavesIdentically reruns the fan-out and policy basics on
// a one-shard bus (the ablation configuration).
func TestSingleShardBehavesIdentically(t *testing.T) {
	b := New(WithShards(1))
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		if _, err := b.Subscribe("t", func(Event) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Publish("t", 1, shardT0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := b.Subscribers("t"); n != 2 {
		t.Fatalf("Subscribers = %d, want 2", n)
	}
}
