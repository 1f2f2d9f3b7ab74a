package sysc

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// pendingTimed counts the events with a pending timed notification.
func pendingTimed(sim *Simulator) int {
	n := 0
	for _, e := range sim.events {
		if e.pendingKind == notifyTimed {
			n++
		}
	}
	return n
}

// heapConsistent reports whether the timed heap satisfies the (when, seq)
// heap order and every entry's event records the entry's index.
func heapConsistent(q *timedQueue) bool {
	for i, it := range q.items {
		if it.ev.heapIdx != int32(i) || it.ev.pendingKind != notifyTimed {
			return false
		}
		if i > 0 && q.less(i, (i-1)/2) {
			return false
		}
	}
	return true
}

// Cancel removes the entry at once: the heap holds exactly the events with
// a pending timed notification, and the next time is the earliest of them.
func TestTimedQueueCancelRemovesEntry(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	e1, e2, e3 := sim.NewEvent("e1"), sim.NewEvent("e2"), sim.NewEvent("e3")
	e1.NotifyAfter(5)
	e2.NotifyAfter(10)
	e3.NotifyAfter(7)
	e1.Cancel()
	q := &sim.timed
	if n, want := len(q.items), pendingTimed(sim); n != want || n != 2 {
		t.Fatalf("heap holds %d entries, want %d (one per pending event)", n, want)
	}
	if !heapConsistent(q) {
		t.Fatal("heap order or entry indices broken by cancel")
	}
	if next, ok := q.nextTime(); !ok || next != 7 {
		t.Fatalf("nextTime = %v,%v; want 7,true", next, ok)
	}
	e3.Cancel()
	if ev := q.pop(); ev != e2 {
		t.Fatalf("pop = %q; want e2", ev.Name())
	}
	if _, ok := q.nextTime(); ok {
		t.Fatal("queue should be empty after the only pending entry popped")
	}
}

// Equal-time items fire in schedule order: the (when, seq) tie-break.
func TestTimedQueueTieBreakScheduleOrder(t *testing.T) {
	sim := NewSimulator()
	q := &sim.timed
	const n = 20
	evs := make([]*Event, n)
	for i := range evs {
		evs[i] = sim.NewEvent(fmt.Sprintf("e%d", i))
		evs[i].NotifyAfter(42)
	}
	for i := 0; i < n; i++ {
		if _, ok := q.nextTime(); !ok {
			t.Fatalf("queue empty after %d pops, want %d items", i, n)
		}
		if ev := q.pop(); ev != evs[i] {
			t.Fatalf("pop %d returned %q, want %q (schedule order)",
				i, ev.Name(), evs[i].Name())
		}
	}
}

// A warm notify/cancel/fire round trip does not allocate: entries are
// values in a slice whose capacity the heap keeps.
func TestTimedQueueSteadyStateAllocs(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	evs := []*Event{sim.NewEvent("a"), sim.NewEvent("b"), sim.NewEvent("c")}
	var end Time
	round := func() {
		evs[0].NotifyAfter(3)
		evs[1].NotifyAfter(1)
		evs[2].NotifyAfter(2)
		evs[0].Cancel()
		end += 3
		if err := sim.Start(end); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("notify/cancel/fire round trip allocated %.1f times, want 0", allocs)
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

// A long cancel/re-arm workload (the WaitTimeout pattern under load) leaves
// the timed heap holding exactly the pending notifications.
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
	if n, want := len(sim.timed.items), pendingTimed(sim); n != want {
		t.Fatalf("timed heap holds %d entries under cancel churn, want %d (one per pending event)", n, want)
	}
}

// A captured heap lists each event at most once, since an event owns one
// heap entry. LoadState refuses a state that lists an event twice rather
// than corrupt the event's entry index.
func TestLoadStateRejectsDuplicateHeapEntry(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("e")
	ev.NotifyAfter(Ms)
	st, err := sim.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.LoadState(st); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	st.Heap = append(st.Heap, st.Heap[0])
	if err := sim.LoadState(st); err == nil {
		t.Fatal("LoadState accepted an event listed twice in the heap")
	}
}
