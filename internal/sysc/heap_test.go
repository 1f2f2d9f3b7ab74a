package sysc

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Cancelled items are skipped (and recycled) rather than fired: the queue
// reports the next live time, not the cancelled head.
func TestTimedQueueLazyCancellationSkipped(t *testing.T) {
	var q timedQueue
	sim := NewSimulator()
	e1, e2 := sim.NewEvent("e1"), sim.NewEvent("e2")
	it1 := q.push(5, e1)
	q.push(10, e2)
	q.cancel(it1)
	next, ok := q.nextTime()
	if !ok || next != 10 {
		t.Fatalf("nextTime = %v,%v; want 10,true (cancelled head skipped)", next, ok)
	}
	it := q.pop()
	if it.ev != e2 || it.when != 10 {
		t.Fatalf("pop = {%v %v}; want live e2@10", it.when, it.ev)
	}
	if !q.empty() {
		t.Fatal("queue should be empty after the only live item popped")
	}
}

// Equal-time items fire in schedule order: the (when, seq) tie-break.
func TestTimedQueueTieBreakScheduleOrder(t *testing.T) {
	var q timedQueue
	sim := NewSimulator()
	const n = 20
	evs := make([]*Event, n)
	for i := range evs {
		evs[i] = sim.NewEvent(fmt.Sprintf("e%d", i))
		q.push(42, evs[i])
	}
	for i := 0; i < n; i++ {
		if _, ok := q.nextTime(); !ok {
			t.Fatalf("queue empty after %d pops, want %d items", i, n)
		}
		it := q.pop()
		if it.ev != evs[i] {
			t.Fatalf("pop %d returned %q, want %q (schedule order)",
				i, it.ev.Name(), evs[i].Name())
		}
	}
}

// Released items are recycled: a push after a pop+release reuses the same
// timedItem instead of allocating.
func TestTimedQueuePoolReuse(t *testing.T) {
	var q timedQueue
	sim := NewSimulator()
	ev := sim.NewEvent("e")
	first := q.push(1, ev)
	got := q.pop()
	if got != first {
		t.Fatal("pop returned a different item than pushed")
	}
	q.release(got)
	second := q.push(2, ev)
	if second != first {
		t.Fatal("push after release did not recycle the pooled item")
	}
	if second.when != 2 || second.ev != ev || second.cancelled {
		t.Fatalf("recycled item not reset: %+v", second)
	}
}

// Cancelled items are also recycled when nextTime discards them.
func TestTimedQueueCancelRecyclesViaNextTime(t *testing.T) {
	var q timedQueue
	sim := NewSimulator()
	ev := sim.NewEvent("e")
	it := q.push(1, ev)
	q.cancel(it)
	if _, ok := q.nextTime(); ok {
		t.Fatal("queue with only a cancelled item should report empty")
	}
	again := q.push(3, ev)
	if again != it {
		t.Fatal("cancelled item was not recycled through the free list")
	}
}

// Once cancelled items exceed the live fraction the heap compacts eagerly,
// so a cancel-heavy workload (the WaitTimeout pattern) keeps the heap small.
func TestTimedQueueEagerCompaction(t *testing.T) {
	var q timedQueue
	sim := NewSimulator()
	ev := sim.NewEvent("e")
	n := compactMin * 2
	items := make([]*timedItem, n)
	for i := 0; i < n; i++ {
		items[i] = q.push(Time(i), ev)
	}
	// Cancel just over half: the queue must shed the dead entries.
	for i := 0; i < n/2+1; i++ {
		q.cancel(items[i])
	}
	if len(q.items) > n/2 {
		t.Fatalf("heap holds %d entries after heavy cancellation, want <= %d (compacted)",
			len(q.items), n/2)
	}
	if q.ncancel != 0 {
		t.Fatalf("ncancel = %d after compaction, want 0", q.ncancel)
	}
	// Survivors must still pop in (when, seq) order.
	last := Time(-1)
	for !q.empty() {
		it := q.pop()
		if it.when < last {
			t.Fatalf("order violated after compaction: %v after %v", it.when, last)
		}
		last = it.when
	}
	if last != Time(n-1) {
		t.Fatalf("last live item popped at %v, want %v", last, Time(n-1))
	}
}

// Shutdown must reclaim every goroutine, including threads parked deep in
// WaitEvent on events that will never fire, and threads inside WaitTimeout.
func TestShutdownReclaimsThreadsParkedInWaitEvent(t *testing.T) {
	sim := NewSimulator()
	never := sim.NewEvent("never")
	var threads []*Thread
	for i := 0; i < 8; i++ {
		threads = append(threads, sim.Spawn(fmt.Sprintf("w%d", i), func(th *Thread) {
			th.WaitEvent(never)
		}))
	}
	threads = append(threads, sim.Spawn("timeout", func(th *Thread) {
		th.WaitTimeout(MaxTime/2, never)
	}))
	if err := sim.Start(Ms); err != nil {
		t.Fatal(err)
	}
	sim.Shutdown()
	for _, th := range threads {
		if !th.Done() {
			t.Fatalf("thread %q not reclaimed by Shutdown", th.Name())
		}
	}
	// Shutdown is idempotent.
	sim.Shutdown()
}

// Shutdown leaves no thread goroutine behind, whatever state each thread
// reached: parked, returned, panicked, spawned but never run, or spawned
// after a capture and neutralized by LoadState.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, sim *Simulator)
	}{
		{"parked", func(t *testing.T, sim *Simulator) {
			never := sim.NewEvent("never")
			sim.Spawn("event", func(th *Thread) { th.WaitEvent(never) })
			sim.Spawn("timeout", func(th *Thread) { th.WaitTimeout(MaxTime/2, never) })
			if err := sim.Start(Ms); err != nil {
				t.Fatal(err)
			}
		}},
		{"returned", func(t *testing.T, sim *Simulator) {
			sim.Spawn("once", func(th *Thread) { th.Wait(Us) })
			if err := sim.Start(Ms); err != nil {
				t.Fatal(err)
			}
		}},
		{"panicked", func(t *testing.T, sim *Simulator) {
			sim.Spawn("bomb", func(th *Thread) {
				th.Wait(Us)
				panic("boom")
			})
			if err := sim.Start(Ms); err == nil {
				t.Fatal("expected the body panic as an error")
			}
		}},
		{"never run", func(t *testing.T, sim *Simulator) {
			sim.Spawn("idle", func(th *Thread) { th.Wait(Us) })
		}},
		{"neutralized", func(t *testing.T, sim *Simulator) {
			never := sim.NewEvent("never")
			sim.Spawn("pinned", func(th *Thread) { th.WaitEvent(never) })
			if err := sim.Start(Ms); err != nil {
				t.Fatal(err)
			}
			st, err := sim.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			sim.Spawn("late", func(th *Thread) { th.WaitEvent(never) })
			if err := sim.Start(2 * Ms); err != nil {
				t.Fatal(err)
			}
			if err := sim.LoadState(st); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			sim := NewSimulator()
			tc.build(t, sim)
			sim.Shutdown()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Shutdown, want at most %d", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// CurrentThread is nil while a method executes, and names the thread while
// its body runs.
func TestCurrentThreadNilInsideMethod(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("e")
	var inMethod *Thread = &Thread{} // sentinel: overwritten by the method
	sim.SpawnMethod("m", func() { inMethod = sim.CurrentThread() }, ev)
	var inThread *Thread
	th := sim.Spawn("t", func(th *Thread) {
		inThread = sim.CurrentThread()
		ev.Notify()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if inMethod != nil {
		t.Fatal("CurrentThread inside a method should be nil")
	}
	if inThread != th {
		t.Fatal("CurrentThread inside a thread should be the thread itself")
	}
}

// A long cancel/re-arm workload (the WaitTimeout pattern under load) must
// not grow the timed heap without bound.
func TestTimedQueueBoundedUnderCancelChurn(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("data")
	sim.Spawn("consumer", func(th *Thread) {
		for {
			th.WaitTimeout(100*Ms, ev) // timeout always loses to the notify
		}
	})
	sim.Spawn("producer", func(th *Thread) {
		for i := 0; i < 10000; i++ {
			th.Wait(Us)
			ev.Notify()
		}
	})
	if err := sim.Start(20 * Ms); err != nil {
		t.Fatal(err)
	}
	if n := len(sim.timed.items); n > compactMin*2 {
		t.Fatalf("timed heap grew to %d entries under cancel churn, want bounded", n)
	}
}
