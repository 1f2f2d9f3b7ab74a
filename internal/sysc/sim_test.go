package sysc

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0 s"},
		{Sec, "1 s"},
		{5 * Ms, "5 ms"},
		{250 * Us, "250 us"},
		{3 * Ns, "3 ns"},
		{7 * Ps, "7 ps"},
		{1500 * Us, "1500 us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (2 * Sec).Seconds() != 2.0 {
		t.Errorf("Seconds: got %v", (2 * Sec).Seconds())
	}
	if (3 * Ms).Milliseconds() != 3.0 {
		t.Errorf("Milliseconds: got %v", (3 * Ms).Milliseconds())
	}
	if Ns.Picoseconds() != 1000 {
		t.Errorf("Picoseconds: got %v", Ns.Picoseconds())
	}
}

func TestThreadWaitAdvancesTime(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	var at []Time
	sim.Spawn("w", func(th *Thread) {
		th.Wait(5 * Ms)
		at = append(at, th.Now())
		th.Wait(3 * Ms)
		at = append(at, th.Now())
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 5*Ms || at[1] != 8*Ms {
		t.Fatalf("wait times = %v, want [5ms 8ms]", at)
	}
}

func TestStartHorizonStepsClock(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("never")
	sim.Spawn("idle", func(th *Thread) { th.WaitEvent(ev) })
	for i := 1; i <= 3; i++ {
		if err := sim.Start(Time(i) * Ms); err != nil {
			t.Fatal(err)
		}
		if sim.Now() != Time(i)*Ms {
			t.Fatalf("step %d: now = %v", i, sim.Now())
		}
	}
}

func TestEventNotifyWakesWaiter(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("go")
	var woke Time
	sim.Spawn("waiter", func(th *Thread) {
		th.WaitEvent(ev)
		woke = th.Now()
	})
	sim.Spawn("notifier", func(th *Thread) {
		th.Wait(7 * Ms)
		ev.Notify()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 7*Ms {
		t.Fatalf("woke at %v, want 7 ms", woke)
	}
}

func TestEventNotifyAfter(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("later")
	ev.NotifyAfter(4 * Ms)
	var woke Time = -1
	sim.Spawn("waiter", func(th *Thread) {
		th.WaitEvent(ev)
		woke = th.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 4*Ms {
		t.Fatalf("woke at %v, want 4 ms", woke)
	}
}

func TestEventEarlierTimedOverridesLater(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("e")
	ev.NotifyAfter(10 * Ms)
	ev.NotifyAfter(3 * Ms) // earlier wins
	ev.NotifyAfter(20 * Ms)
	var woke Time = -1
	sim.Spawn("waiter", func(th *Thread) {
		th.WaitEvent(ev)
		woke = th.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3*Ms {
		t.Fatalf("woke at %v, want 3 ms", woke)
	}
}

func TestEventCancel(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("e")
	ev.NotifyAfter(2 * Ms)
	ev.Cancel()
	fired := false
	sim.Spawn("waiter", func(th *Thread) {
		th.WaitEvent(ev)
		fired = true
	})
	if err := sim.Start(10 * Ms); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled notification still fired")
	}
	if sim.Now() != 10*Ms {
		t.Fatalf("now = %v, want 10 ms horizon", sim.Now())
	}
}

func TestEventDeltaOverridesTimed(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("e")
	var woke Time = -1
	var delta uint64
	sim.Spawn("waiter", func(th *Thread) {
		th.WaitEvent(ev)
		woke = th.Now()
		delta = th.Sim().DeltaCount()
	})
	sim.Spawn("notifier", func(th *Thread) {
		th.Wait(1 * Ms)
		ev.NotifyAfter(5 * Ms)
		ev.NotifyDelta() // overrides the timed notification
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 1*Ms {
		t.Fatalf("woke at %v, want 1 ms (delta override)", woke)
	}
	if delta == 0 {
		t.Fatal("expected at least one delta cycle")
	}
}

func TestWaitTimeout(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("slow")
	var timedOut bool
	var at Time
	sim.Spawn("waiter", func(th *Thread) {
		_, timedOut = th.WaitTimeout(5*Ms, ev)
		at = th.Now()
	})
	sim.Spawn("late", func(th *Thread) {
		th.Wait(50 * Ms)
		ev.Notify()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || at != 5*Ms {
		t.Fatalf("timedOut=%v at=%v, want timeout at 5 ms", timedOut, at)
	}
}

func TestWaitTimeoutEventWins(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("fast")
	var timedOut bool
	var fired *Event
	sim.Spawn("waiter", func(th *Thread) {
		fired, timedOut = th.WaitTimeout(50*Ms, ev)
	})
	sim.Spawn("early", func(th *Thread) {
		th.Wait(2 * Ms)
		ev.Notify()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if timedOut || fired != ev {
		t.Fatalf("timedOut=%v fired=%v, want event win", timedOut, fired)
	}
}

func TestWaitOnMultipleEvents(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	a := sim.NewEvent("a")
	b := sim.NewEvent("b")
	var got []string
	sim.Spawn("waiter", func(th *Thread) {
		for i := 0; i < 2; i++ {
			e := th.WaitEvent(a, b)
			got = append(got, e.Name())
		}
	})
	sim.Spawn("driver", func(th *Thread) {
		th.Wait(1 * Ms)
		b.Notify()
		th.Wait(1 * Ms)
		a.Notify()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("got %v, want [b a]", got)
	}
}

func TestImmediateNotifyNotPersistent(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("e")
	ev.Notify() // nobody waiting: lost
	woke := false
	sim.Spawn("late-waiter", func(th *Thread) {
		th.WaitEvent(ev)
		woke = true
	})
	if err := sim.Start(Ms); err != nil {
		t.Fatal(err)
	}
	if woke {
		t.Fatal("event persisted to a later waiter")
	}
}

func TestMethodStaticSensitivity(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("trigger")
	count := 0
	sim.SpawnMethod("m", func() { count++ }, ev)
	sim.Spawn("driver", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Wait(1 * Ms)
			ev.Notify()
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("method ran %d times, want 3", count)
	}
}

func TestSignalUpdateSemantics(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	sig := NewSignal(sim, "s", 0)
	var seenDuringWrite, seenAfterDelta int
	sim.Spawn("writer", func(th *Thread) {
		sig.Write(42)
		seenDuringWrite = sig.Read() // old value until update phase
		th.YieldDelta()
		seenAfterDelta = sig.Read()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if seenDuringWrite != 0 {
		t.Errorf("read during write delta = %d, want 0", seenDuringWrite)
	}
	if seenAfterDelta != 42 {
		t.Errorf("read after delta = %d, want 42", seenAfterDelta)
	}
}

func TestSignalValueChangedEvent(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	sig := NewSignal(sim, "s", 0)
	changes := 0
	sim.SpawnMethod("watcher", func() { changes++ }, sig.ValueChanged())
	sim.Spawn("writer", func(th *Thread) {
		th.Wait(Ms)
		sig.Write(1)
		th.Wait(Ms)
		sig.Write(1) // no change: no event
		th.Wait(Ms)
		sig.Write(2)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if changes != 2 {
		t.Fatalf("value_changed fired %d times, want 2", changes)
	}
}

func TestSignalLastWriteWins(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	sig := NewSignal(sim, "s", 0)
	var got int
	sim.Spawn("writer", func(th *Thread) {
		sig.Write(1)
		sig.Write(2)
		sig.Write(3)
		th.YieldDelta()
		got = sig.Read()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("got %d, want 3 (last write wins)", got)
	}
}

func TestBoolSignalEdges(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	sig := NewBoolSignal(sim, "b", false)
	pos, neg := 0, 0
	sim.SpawnMethod("pw", func() { pos++ }, sig.Posedge())
	sim.SpawnMethod("nw", func() { neg++ }, sig.Negedge())
	sim.Spawn("writer", func(th *Thread) {
		th.Wait(Ms)
		sig.Write(true)
		th.Wait(Ms)
		sig.Write(false)
		th.Wait(Ms)
		sig.Write(true)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if pos != 2 || neg != 1 {
		t.Fatalf("pos=%d neg=%d, want 2/1", pos, neg)
	}
}

func TestClockTicks(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	clk := NewClock(sim, "clk", 2*Ms)
	rises := 0
	sim.SpawnMethod("counter", func() { rises++ }, clk.Posedge())
	if err := sim.Start(10 * Ms); err != nil {
		t.Fatal(err)
	}
	// Rising edges at 1,3,5,7,9 ms (period 2 ms, first half-period low).
	if rises != 5 {
		t.Fatalf("rises = %d, want 5", rises)
	}
	if clk.Period() != 2*Ms {
		t.Fatalf("period = %v", clk.Period())
	}
}

func TestTickerPeriodicEvents(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	tick := NewTicker(sim, "sys", 1*Ms)
	var times []Time
	sim.SpawnMethod("counter", func() { times = append(times, sim.Now()) }, tick.Event())
	if err := sim.Start(5 * Ms); err != nil {
		t.Fatal(err)
	}
	want := []Time{1 * Ms, 2 * Ms, 3 * Ms, 4 * Ms, 5 * Ms}
	if len(times) != len(want) {
		t.Fatalf("ticks = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

// wantAbort checks that a run ended in the process-panic abort with exactly
// the given text: Start and Err report it, the run is stopped and no
// coroutine is left claiming to step.
func wantAbort(t *testing.T, sim *Simulator, err error, want string) {
	t.Helper()
	if err == nil || err.Error() != want {
		t.Fatalf("Start err = %v, want %q", err, want)
	}
	if sim.Err() != err {
		t.Fatalf("Err() = %v, want the error Start returned", sim.Err())
	}
	if !sim.Stopped() {
		t.Fatal("run not stopped after a process panic")
	}
	if c := sim.CurrentCoro(); c != nil {
		t.Fatalf("CurrentCoro = %q after the abort, want nil", c.Name())
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	sim.Spawn("bomb", func(th *Thread) {
		th.Wait(Ms)
		panic("boom")
	})
	wantAbort(t, sim, sim.Run(), `sysc: coroutine "bomb" panicked: boom`)
	if sim.Now() != Ms {
		t.Fatalf("aborted at %v, want 1ms", sim.Now())
	}
}

func TestMethodPanicPropagates(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("e")
	sim.SpawnMethod("bomb", func() { panic("boom") }, ev)
	ran := false
	sim.SpawnMethod("after", func() { ran = true }, ev)
	ev.NotifyAfter(Ms)
	err := sim.Run()
	wantAbort(t, sim, err, `sysc: method "bomb" panicked: boom`)
	if ran {
		t.Fatal("a process ran after the abort")
	}
	// The first panic wins: a later Start runs nothing and reports it again.
	if again := sim.Start(10 * Ms); again != err {
		t.Fatalf("second Start = %v, want the first abort", again)
	}
}

// TestCoroPanicPropagates: a panicking coroutine step aborts the run in the
// coroutine's name and does not mark it done.
func TestCoroPanicPropagates(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	c := sim.SpawnCoro("bomb", func(c *Coro) {
		if c.Fired() == nil && c.Now() == 0 {
			c.Wait(Ms)
			return
		}
		panic(fmt.Errorf("boom at %v", c.Now()))
	})
	wantAbort(t, sim, sim.Run(), `sysc: coroutine "bomb" panicked: boom at 1 ms`)
	if c.Done() {
		t.Fatal("panicking coroutine marked done")
	}
}

// panicObserver panics from the callback its fields select.
type panicObserver struct{ quiescent, advance any }

func (o panicObserver) Quiescent(Time) {
	if o.quiescent != nil {
		panic(o.quiescent)
	}
}

func (o panicObserver) TimeAdvance(Time, Time) {
	if o.advance != nil {
		panic(o.advance)
	}
}

// TestElapseObserverPanicNamesCoroutine: an observer that panics inside
// Coro.Elapse runs with CurrentCoro cleared, yet the abort still names the
// coroutine whose step called Elapse.
func TestElapseObserverPanicNamesCoroutine(t *testing.T) {
	for _, o := range []panicObserver{{quiescent: "in Quiescent"}, {advance: "in TimeAdvance"}} {
		sim := NewSimulator()
		sim.SetObserver(o)
		sim.SpawnCoro("elapser", func(c *Coro) {
			c.Elapse(Ms)
			t.Error("Elapse returned past a panicking observer")
		})
		want := fmt.Sprintf(`sysc: coroutine "elapser" panicked: %v`, o.quiescent)
		if o.quiescent == nil {
			want = fmt.Sprintf(`sysc: coroutine "elapser" panicked: %v`, o.advance)
		}
		wantAbort(t, sim, sim.Start(10*Ms), want)
		sim.Shutdown()
	}
}

// TestPanicOutsideProcessPropagates: a panic raised while no process is
// stepping (here an observer at a scheduler quiescent point) is not turned
// into a run error; it propagates out of Start.
func TestPanicOutsideProcessPropagates(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	sim.SetObserver(panicObserver{quiescent: "outside"})
	sim.SpawnCoro("idle", func(c *Coro) {})
	defer func() {
		if r := recover(); r != "outside" {
			t.Fatalf("recovered %v, want the observer's panic", r)
		}
		if sim.Err() != nil {
			t.Fatalf("Err() = %v, want nil", sim.Err())
		}
	}()
	sim.Start(10 * Ms)
	t.Fatal("Start returned instead of propagating the panic")
}

func TestStopEndsSimulation(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	n := 0
	sim.Spawn("loop", func(th *Thread) {
		for {
			th.Wait(Ms)
			n++
			if n == 3 {
				th.Sim().Stop()
			}
		}
	})
	if err := sim.Start(100 * Ms); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("iterations = %d, want 3", n)
	}
	if !sim.Stopped() {
		t.Fatal("Stopped() should be true")
	}
}

func TestSpawnDuringSimulation(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	var childRan Time = -1
	sim.Spawn("parent", func(th *Thread) {
		th.Wait(2 * Ms)
		th.Sim().Spawn("child", func(c *Thread) {
			c.Wait(3 * Ms)
			childRan = c.Now()
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if childRan != 5*Ms {
		t.Fatalf("child finished at %v, want 5 ms", childRan)
	}
}

func TestShutdownReclaimsBlockedThreads(t *testing.T) {
	sim := NewSimulator()
	ev := sim.NewEvent("never")
	th := sim.Spawn("stuck", func(t *Thread) { t.WaitEvent(ev) })
	if err := sim.Start(Ms); err != nil {
		t.Fatal(err)
	}
	sim.Shutdown()
	if !th.Done() {
		t.Fatal("thread not reclaimed by Shutdown")
	}
	if err := sim.Start(2 * Ms); err == nil {
		t.Fatal("Start after Shutdown should fail")
	}
}

func TestDeterministicRunnableOrder(t *testing.T) {
	run := func() []string {
		sim := NewSimulator()
		defer sim.Shutdown()
		var order []string
		ev := sim.NewEvent("go")
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("t%d", i)
			sim.Spawn(name, func(th *Thread) {
				th.WaitEvent(ev)
				order = append(order, th.Name())
			})
		}
		sim.Spawn("notifier", func(th *Thread) {
			th.Wait(Ms)
			ev.Notify()
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("non-deterministic order: %v vs %v", got, first)
		}
	}
	want := []string{"t0", "t1", "t2", "t3", "t4"}
	if fmt.Sprint(first) != fmt.Sprint(want) {
		t.Fatalf("order %v, want registration order %v", first, want)
	}
}

// Property: for any set of positive delays, every thread wakes exactly at
// its scheduled time and the set of wake times observed matches the input.
func TestPropertyTimedWakeups(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		sim := NewSimulator()
		defer sim.Shutdown()
		wake := make([]Time, len(raw))
		for i, r := range raw {
			d := Time(int64(r)%1000+1) * Us
			idx := i
			sim.Spawn(fmt.Sprintf("p%d", i), func(th *Thread) {
				th.Wait(d)
				wake[idx] = th.Now()
			})
		}
		if err := sim.Run(); err != nil {
			return false
		}
		for i, r := range raw {
			if wake[i] != Time(int64(r)%1000+1)*Us {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// applyTimedOp notifies or cancels one of evs, chosen by op, at time zero,
// and mirrors the SystemC override rules in want: an earlier timed
// notification replaces a later one, and Cancel clears it.
func applyTimedOp(evs []*Event, want map[*Event]Time, op uint16) {
	e := evs[int(op)%len(evs)]
	if op&0x8 != 0 {
		e.Cancel()
		delete(want, e)
		return
	}
	d := Time(op>>4) % 64
	e.NotifyAfter(d)
	if w, ok := want[e]; !ok || d < w {
		want[e] = d
	}
}

// Property: under random notify and cancel sequences the heap holds exactly
// the pending notifications, and pops them in nondecreasing time order with
// FIFO order among equal times.
func TestPropertyHeapOrdering(t *testing.T) {
	f := func(ops []uint16) bool {
		sim := NewSimulator()
		evs := make([]*Event, 8)
		for i := range evs {
			evs[i] = sim.NewEvent(fmt.Sprintf("e%d", i))
		}
		want := map[*Event]Time{}
		for _, op := range ops {
			applyTimedOp(evs, want, op)
			if !heapConsistent(&sim.timed) || len(sim.timed.items) != len(want) {
				return false
			}
		}
		var last Time = -1
		var lastSeq uint64
		for len(sim.timed.items) > 0 {
			it := sim.timed.items[0]
			if ev := sim.timed.pop(); ev != it.ev || want[ev] != it.when {
				return false
			}
			delete(want, it.ev)
			if it.when < last {
				return false
			}
			if it.when == last && it.seq < lastSeq {
				return false
			}
			last, lastSeq = it.when, it.seq
		}
		return len(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Event.When reports exactly the pending timed notification of
// each event after every step of a random notify and cancel sequence.
func TestPropertyEventWhen(t *testing.T) {
	f := func(ops []uint16) bool {
		sim := NewSimulator()
		evs := make([]*Event, 8)
		for i := range evs {
			evs[i] = sim.NewEvent(fmt.Sprintf("e%d", i))
		}
		want := map[*Event]Time{}
		for _, op := range ops {
			applyTimedOp(evs, want, op)
			for _, e := range evs {
				w, pending := want[e]
				got, ok := e.When()
				if ok != pending || got != w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEventPendingIntrospection(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ev := sim.NewEvent("e")
	if ev.Pending() {
		t.Fatal("fresh event pending")
	}
	ev.NotifyAfter(Ms)
	if !ev.Pending() {
		t.Fatal("timed notification should be pending")
	}
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("cancel should clear pending")
	}
}

func TestWaitEventEmptySetPanics(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	sim.Spawn("bad", func(th *Thread) { th.WaitEvent() })
	if err := sim.Run(); err == nil {
		t.Fatal("expected error for empty wait set")
	}
}

// TestStartQuiescentAtHorizon: a Start that moves the clock to its horizon
// with nothing due there reports a quiescent point at the horizon, as if
// an event had fired there. A second Start to the same horizon reports the
// one every Start reports before it looks at the timed queue.
func TestStartQuiescentAtHorizon(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	var log []string
	sim.SetObserver(logObserver{sim: sim, log: &log})
	ev := sim.NewEvent("ev")
	sim.SpawnMethod("m", func() {}, ev)
	ev.NotifyAfter(2 * Ms)
	for _, until := range []Time{5 * Ms, 5 * Ms} {
		if err := sim.Start(until); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"Q 0 s cur=false", "T 0 s->2 ms", "Q 2 ms cur=false",
		"T 2 ms->5 ms", "Q 5 ms cur=false", "Q 5 ms cur=false"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("observer log %q, want %q", log, want)
	}
}

// TestTimedWake: every process the timed phase wakes at an instant reports
// TimedWake, including one that runs after a process notified at that
// instant, and so does a coroutine Elapse moves to a new instant. Processes
// an immediate or delta notification makes runnable do not, nor does code
// between Start calls.
func TestTimedWake(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	var log []string
	note := func(who string) {
		log = append(log, fmt.Sprintf("%s %v %v", who, sim.Now(), sim.TimedWake()))
	}
	imm, dlt, never := sim.NewEvent("imm"), sim.NewEvent("dlt"), sim.NewEvent("never")
	sim.SpawnMethod("imm", func() { note("imm") }, imm)
	sim.SpawnMethod("dlt", func() { note("dlt") }, dlt)
	step := 0
	sim.SpawnCoro("a", func(c *Coro) {
		switch step++; step {
		case 1:
			c.Wait(2 * Ms)
		case 2:
			note("a")
			imm.Notify()
			dlt.NotifyDelta()
			c.Wait(Ms)
		default:
			note("a")
			if !c.Elapse(Ms) {
				t.Fatal("Elapse refused with nothing else pending")
			}
			note("a")
			c.WaitEvent(never)
		}
	})
	woke := false
	sim.SpawnCoro("b", func(c *Coro) {
		if woke {
			note("b")
			return
		}
		woke = true
		c.Wait(2 * Ms)
	})
	if err := sim.Start(10 * Ms); err != nil {
		t.Fatal(err)
	}
	note("outside")
	want := []string{"a 2 ms true", "b 2 ms true", "imm 2 ms false", "dlt 2 ms false",
		"a 3 ms true", "a 4 ms true", "outside 10 ms false"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log %q, want %q", log, want)
	}
}
