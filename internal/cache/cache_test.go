package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/run"
)

func result(payload string) run.Result {
	return run.Result{
		Stats:     run.Stats{Scenario: run.ScenarioVideogame},
		Artifacts: map[string][]byte{"a.txt": []byte(payload)},
	}
}

// lead opens a flight for key (asserting leadership) and completes it.
func lead(t *testing.T, c *Cache, key, payload string) {
	t.Helper()
	_, f, leader := c.Begin(key)
	if f == nil || !leader {
		t.Fatalf("expected to lead %q", key)
	}
	f.Complete(result(payload), nil)
}

// TestHitAfterComplete: a completed flight is a hit for the next Begin.
func TestHitAfterComplete(t *testing.T) {
	c := New(Config{})
	lead(t, c, "k1", "hello")

	res, f, _ := c.Begin("k1")
	if f != nil {
		t.Fatal("expected a hit, got a flight")
	}
	if string(res.Artifacts["a.txt"]) != "hello" {
		t.Fatalf("wrong artifact: %q", res.Artifacts["a.txt"])
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFailureNotCached: a flight completed with an error wakes followers
// but stores nothing.
func TestFailureNotCached(t *testing.T) {
	c := New(Config{})
	_, f, leader := c.Begin("k")
	if !leader {
		t.Fatal("not leader")
	}
	f.Complete(run.Result{}, errors.New("boom"))
	<-f.Done()
	if _, err := f.Result(); err == nil {
		t.Fatal("error lost")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failure was cached")
	}
	// The key is retryable: the next Begin leads a fresh flight.
	if _, _, leader := c.Begin("k"); !leader {
		t.Fatal("retry did not lead")
	}
}

// TestSingleflight: N concurrent Begins on one key elect exactly one
// leader, and every follower observes the leader's result.
func TestSingleflight(t *testing.T) {
	c := New(Config{})
	const n = 64
	var leaders, followers atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, f, leader := c.Begin("k")
			switch {
			case f == nil:
				// Late arrival after completion: a hit is fine too.
				followers.Add(1)
			case leader:
				leaders.Add(1)
				f.Complete(result("once"), nil)
				res.Result, _ = f.Result()
			default:
				followers.Add(1)
				<-f.Done()
				res.Result, _ = f.Result()
			}
			if string(res.Artifacts["a.txt"]) != "once" {
				t.Errorf("wrong result: %v", res.Artifacts)
			}
		}()
	}
	close(start)
	wg.Wait()
	if leaders.Load() != 1 || followers.Load() != n-1 {
		t.Fatalf("leaders=%d followers=%d", leaders.Load(), followers.Load())
	}
}

// TestEvictByEntries: the entry bound evicts least-recently-used first.
func TestEvictByEntries(t *testing.T) {
	c := New(Config{MaxEntries: 3, MaxBytes: 1 << 30})
	for i := 0; i < 3; i++ {
		lead(t, c, fmt.Sprintf("k%d", i), "x")
	}
	// Touch k0 so k1 is now the LRU victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	lead(t, c, "k3", "x")
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been evicted")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestEvictByBytes: the byte bound evicts even when the entry bound has
// room, but always keeps the newest entry.
func TestEvictByBytes(t *testing.T) {
	c := New(Config{MaxEntries: 100, MaxBytes: 3000})
	for i := 0; i < 4; i++ {
		lead(t, c, fmt.Sprintf("k%d", i), string(make([]byte, 1000)))
	}
	st := c.Stats()
	if st.Bytes > 3000 {
		t.Fatalf("over byte budget: %+v", st)
	}
	if st.Entries == 0 {
		t.Fatal("newest entry evicted")
	}
	if _, ok := c.Get("k3"); !ok {
		t.Fatal("newest entry k3 missing")
	}
}

// TestDedupedCounter: followers joining a live flight are counted.
func TestDedupedCounter(t *testing.T) {
	c := New(Config{})
	_, f, _ := c.Begin("k")
	for i := 0; i < 5; i++ {
		if _, ff, leader := c.Begin("k"); leader || ff != f {
			t.Fatal("expected to join the live flight")
		}
	}
	f.Complete(result("x"), nil)
	if st := c.Stats(); st.Deduped != 5 || st.InFlight != 0 {
		t.Fatalf("stats: %+v", st)
	}
}
