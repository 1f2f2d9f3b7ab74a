package sysc

import (
	"fmt"
	"testing"
)

// The microbenchmarks isolate the per-handoff cost of the two ways to write
// a suspendable process. Both run as coroutines: a Thread's step hands
// control to its goroutine body and waits for it to park ("goroutine"),
// while a plain Coro's step function returns having armed its wait
// ("continuation"). Each pair is structurally identical — same events,
// same notification discipline, same step count — so the delta is exactly
// the cost of the goroutine round trip.

// BenchmarkContextSwitch measures a two-process ping-pong: each round is one
// delta notification plus one process-to-process handoff in each direction.
func BenchmarkContextSwitch(b *testing.B) {
	b.Run("goroutine", func(b *testing.B) {
		b.ReportAllocs()
		sim := NewSimulator()
		defer sim.Shutdown()
		ping := sim.NewEvent("ping")
		pong := sim.NewEvent("pong")
		sim.Spawn("A", func(th *Thread) {
			for {
				ping.NotifyDelta()
				th.WaitEvent(pong)
			}
		})
		n := 0
		sim.Spawn("B", func(th *Thread) {
			for {
				th.WaitEvent(ping)
				n++
				if n >= b.N {
					sim.Stop()
					return
				}
				pong.NotifyDelta()
			}
		})
		b.ResetTimer()
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("continuation", func(b *testing.B) {
		b.ReportAllocs()
		sim := NewSimulator()
		defer sim.Shutdown()
		ping := sim.NewEvent("ping")
		pong := sim.NewEvent("pong")
		sim.SpawnCoro("A", func(c *Coro) {
			ping.NotifyDelta()
			c.WaitEvent(pong)
		})
		n := 0
		sim.SpawnCoro("B", func(c *Coro) {
			if c.Fired() == nil { // first step: arm only
				c.WaitEvent(ping)
				return
			}
			n++
			if n >= b.N {
				sim.Stop()
				return
			}
			pong.NotifyDelta()
			c.WaitEvent(ping)
		})
		b.ResetTimer()
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkYieldResume measures a single process yielding to the timed phase
// and resuming one tick later: timer arm, heap push/pop, trigger, resume.
func BenchmarkYieldResume(b *testing.B) {
	b.Run("goroutine", func(b *testing.B) {
		b.ReportAllocs()
		sim := NewSimulator()
		defer sim.Shutdown()
		sim.Spawn("Y", func(th *Thread) {
			for i := 0; i < b.N; i++ {
				th.Wait(1)
			}
			sim.Stop()
		})
		b.ResetTimer()
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("continuation", func(b *testing.B) {
		b.ReportAllocs()
		sim := NewSimulator()
		defer sim.Shutdown()
		i := 0
		sim.SpawnCoro("Y", func(c *Coro) {
			if i >= b.N {
				sim.Stop()
				return
			}
			i++
			c.Wait(1)
		})
		b.ResetTimer()
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkTimedQueue measures the timer-queue round trip of the
// WaitTimeout pattern: each op arms a coroutine's timeout and a data event,
// the data event fires first, and TimedOut cancels the timeout. A ticker
// keeps re-arming its generator and 16 long timers that never fire sit in
// the heap throughout.
func BenchmarkTimedQueue(b *testing.B) {
	b.ReportAllocs()
	sim := NewSimulator()
	defer sim.Shutdown()
	NewTicker(sim, "tick", 10)
	for i := 0; i < 16; i++ {
		sim.NewEvent(fmt.Sprintf("idle%d", i)).NotifyAfter(MaxTime/2 + Time(i))
	}
	data := sim.NewEvent("data")
	n := 0
	sim.SpawnCoro("waiter", func(c *Coro) {
		if c.Fired() != nil {
			if c.TimedOut() {
				b.Error("timeout beat the data event")
				sim.Stop()
				return
			}
			if n++; n >= b.N {
				sim.Stop()
				return
			}
		}
		data.NotifyAfter(3)
		c.WaitTimeout(1000, data)
	})
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// nopObserver fills the observer slot without doing anything.
type nopObserver struct{}

func (nopObserver) Quiescent(Time)         {}
func (nopObserver) TimeAdvance(Time, Time) {}

// BenchmarkElapse measures one inline clock advance (Coro.Elapse) of a
// coroutine that is alone in the model, with the observer slot empty and
// filled: the difference is the two observer callbacks per advance that an
// unobserved run no longer pays.
func BenchmarkElapse(b *testing.B) {
	for _, bc := range []struct {
		name string
		obs  Observer
	}{{"unobserved", nil}, {"observed", nopObserver{}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			sim := NewSimulator()
			defer sim.Shutdown()
			sim.SetObserver(bc.obs)
			sim.SpawnCoro("E", func(c *Coro) {
				for i := 0; i < b.N; i++ {
					if !c.Elapse(1) {
						b.Error("Elapse fell back with nothing else in the model")
						return
					}
				}
			})
			b.ResetTimer()
			if err := sim.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestContinuationSteadyStateZeroAlloc asserts the coroutine
// steady-state data path — timer self-yields, event ping-pong handoffs, and
// the WaitTimeout path — performs zero heap allocations per Start window
// once warm. The timed queue holds its entries by value in a slice that
// keeps its capacity, trigger keeps waiter backing arrays, and WaitTimeout
// arms its timer and events straight into the coroutine's reusable wait-set
// buffer, so nothing on this path should ever reach the allocator after
// warmup.
func TestContinuationSteadyStateZeroAlloc(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	ping := sim.NewEvent("ping")
	pong := sim.NewEvent("pong")
	never := sim.NewEvent("never")

	// Timer self-yield: one handoff per time unit.
	sim.SpawnCoro("yield", func(c *Coro) { c.Wait(1) })
	// Event ping-pong: exercises WaitEvent arming and trigger wakeup.
	sim.SpawnCoro("A", func(c *Coro) {
		ping.NotifyAfter(1)
		c.WaitEvent(pong)
	})
	sim.SpawnCoro("B", func(c *Coro) {
		if c.Fired() != nil {
			pong.NotifyAfter(1)
		}
		c.WaitEvent(ping)
	})
	// WaitTimeout path: the timeout always wins, detaching the coroutine
	// from the never-firing event each round.
	sim.SpawnCoro("tmo", func(c *Coro) {
		if c.Fired() != nil && !c.TimedOut() {
			t.Error("tmo: unexpected event fire")
		}
		c.WaitTimeout(1, never)
	})

	// Warm up: stabilize runnable-queue, waiter-list, wait-set and
	// timed-heap capacities.
	var end Time = 1000
	if err := sim.Start(end); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(50, func() {
		end += 1000
		if err := sim.Start(end); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("continuation steady state allocated %.1f times per 1000-handoff window, want 0", allocs)
	}
}
