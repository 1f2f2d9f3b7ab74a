package core_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/sched"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// rig wires a sysc simulator, a priority scheduler, an event bus, a GANTT
// recorder and the SIM_API library together for tests.
type rig struct {
	sim *sysc.Simulator
	api *core.SimAPI
	bus *event.Bus
	g   *trace.Gantt
}

func newRigWith(s core.Scheduler) *rig {
	sim := sysc.NewSimulator()
	bus := event.NewBus()
	event.AttachSimulator(bus, sim)
	g := trace.NewGantt()
	trace.AttachGantt(bus, g)
	return &rig{sim: sim, api: core.NewSimAPI(sim, s, bus), bus: bus, g: g}
}

func newRig() *rig { return newRigWith(sched.NewPriority()) }

func newRRRig() *rig { return newRigWith(sched.NewRoundRobin()) }

func cost(d sysc.Time, e core.Energy) core.Cost { return core.Cost{Time: d, Energy: e} }

func (r *rig) mustRun(t *testing.T, until sysc.Time) {
	t.Helper()
	if err := r.sim.Start(until); err != nil {
		t.Fatal(err)
	}
}

func TestTaskLifecycle(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	var ran int
	task := r.api.CreateThread("t1", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(5*sysc.Ms, 2*petri.MilliJ), trace.CtxTask, "work")
		ran++
	})
	if task.State() != core.StateDormant {
		t.Fatalf("initial state %v", task.State())
	}
	if err := r.api.Activate(task); err != nil {
		t.Fatal(err)
	}
	r.mustRun(t, 100*sysc.Ms)
	if ran != 1 {
		t.Fatalf("body ran %d times", ran)
	}
	if task.State() != core.StateDormant {
		t.Fatalf("state after exit %v", task.State())
	}
	if task.CET() != 5*sysc.Ms {
		t.Fatalf("CET = %v", task.CET())
	}
	if task.CEE() != 2*petri.MilliJ {
		t.Fatalf("CEE = %v", task.CEE())
	}
	if task.Cycles() != 1 {
		t.Fatalf("cycles = %d", task.Cycles())
	}
	// Re-activation runs another cycle (cyclic object).
	if err := r.api.Activate(task); err != nil {
		t.Fatal(err)
	}
	r.mustRun(t, 200*sysc.Ms)
	if ran != 2 || task.Cycles() != 2 {
		t.Fatalf("ran=%d cycles=%d", ran, task.Cycles())
	}
}

func TestActivateNonDormantFails(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	task := r.api.CreateThread("t1", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(10*sysc.Ms, 0), trace.CtxTask, "")
	})
	_ = r.api.Activate(task)
	r.mustRun(t, 2*sysc.Ms) // mid-execution
	if err := r.api.Activate(task); err == nil {
		t.Fatal("double activation should fail")
	}
}

func TestPriorityPreemption(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	var bStart, bEnd, aEnd sysc.Time
	a := r.api.CreateThread("low", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(10*sysc.Ms, 10*petri.MilliJ), trace.CtxTask, "low-work")
		aEnd = tt.Sim().Now()
	})
	b := r.api.CreateThread("high", core.KindTask, 5, func(tt *core.TThread) {
		bStart = tt.Sim().Now()
		tt.Consume(cost(5*sysc.Ms, 5*petri.MilliJ), trace.CtxTask, "high-work")
		bEnd = tt.Sim().Now()
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(3 * sysc.Ms)
		if err := r.api.Activate(b); err != nil {
			panic(err)
		}
	})
	r.mustRun(t, sysc.Sec)
	if bStart != 3*sysc.Ms || bEnd != 8*sysc.Ms {
		t.Fatalf("high ran %v..%v, want 3..8 ms", bStart, bEnd)
	}
	if aEnd != 15*sysc.Ms {
		t.Fatalf("low finished at %v, want 15 ms", aEnd)
	}
	if a.CET() != 10*sysc.Ms || b.CET() != 5*sysc.Ms {
		t.Fatalf("CET a=%v b=%v", a.CET(), b.CET())
	}
	if r.api.Preemptions() != 1 {
		t.Fatalf("preemptions = %d", r.api.Preemptions())
	}
	if _, _, overlap := r.g.CheckNoOverlap(); overlap {
		t.Fatal("GANTT segments overlap on a single CPU")
	}
	// Energy was charged pro rata: low got 3/10 then 7/10.
	if diff := a.CEE().Joules() - (10 * petri.MilliJ).Joules(); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("low CEE = %v", a.CEE())
	}
}

func TestEqualPriorityDoesNotPreempt(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	var order []string
	mk := func(name string) *core.TThread {
		return r.api.CreateThread(name, core.KindTask, 10, func(tt *core.TThread) {
			tt.Consume(cost(5*sysc.Ms, 0), trace.CtxTask, "")
			order = append(order, name)
		})
	}
	a, b := mk("a"), mk("b")
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(1 * sysc.Ms)
		_ = r.api.Activate(b)
	})
	r.mustRun(t, sysc.Sec)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v (same priority must be FIFO, no preemption)", order)
	}
	_ = b
}

func TestPreemptedTaskKeepsPrecedence(t *testing.T) {
	// A preempted task goes to the HEAD of its priority class: after the
	// high-priority task finishes, the preempted one resumes before a peer
	// that became ready later.
	r := newRig()
	defer r.sim.Shutdown()
	var order []string
	note := func(name string) { order = append(order, name) }
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(10*sysc.Ms, 0), trace.CtxTask, "")
		note("a")
	})
	peer := r.api.CreateThread("peer", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(1*sysc.Ms, 0), trace.CtxTask, "")
		note("peer")
	})
	hi := r.api.CreateThread("hi", core.KindTask, 1, func(tt *core.TThread) {
		tt.Consume(cost(2*sysc.Ms, 0), trace.CtxTask, "")
		note("hi")
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(3 * sysc.Ms)
		_ = r.api.Activate(peer) // joins ready queue behind nothing
		_ = r.api.Activate(hi)   // preempts a -> a goes to head, before peer
	})
	r.mustRun(t, sysc.Sec)
	want := "hi,a,peer"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("completion order %q, want %q", got, want)
	}
}

func TestDispatchLockDefersPreemption(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	var bStart sysc.Time
	a := r.api.CreateThread("svc", core.KindTask, 10, func(tt *core.TThread) {
		// Service-call atomicity: consume under dispatch lock.
		r.api.LockDispatch()
		tt.Consume(cost(10*sysc.Ms, 0), trace.CtxService, "atomic-service")
		r.api.UnlockDispatch()
		tt.Consume(cost(5*sysc.Ms, 0), trace.CtxTask, "")
	})
	b := r.api.CreateThread("hi", core.KindTask, 1, func(tt *core.TThread) {
		bStart = tt.Sim().Now()
		tt.Consume(cost(1*sysc.Ms, 0), trace.CtxTask, "")
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(2 * sysc.Ms)
		_ = r.api.Activate(b) // would preempt, but dispatch is locked
	})
	r.mustRun(t, sysc.Sec)
	if bStart != 10*sysc.Ms {
		t.Fatalf("high started at %v, want 10 ms (after the atomic service)", bStart)
	}
}

func TestBlockAndRelease(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	var wokeAt sysc.Time
	var relCode error
	a := r.api.CreateThread("sleeper", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(1*sysc.Ms, 0), trace.CtxTask, "")
		relCode = r.api.BlockCurrent("semaphore#1")
		wokeAt = tt.Sim().Now()
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(5 * sysc.Ms)
		if a.State() != core.StateWaiting {
			panic("task should be WAITING")
		}
		if a.WaitObject() != "semaphore#1" {
			panic("wait object not recorded")
		}
		r.api.Release(a, nil)
	})
	r.mustRun(t, sysc.Sec)
	if wokeAt != 5*sysc.Ms {
		t.Fatalf("woke at %v", wokeAt)
	}
	if relCode != nil {
		t.Fatalf("release code = %v", relCode)
	}
	if a.State() != core.StateDormant {
		t.Fatalf("final state %v", a.State())
	}
}

func TestReleaseDeliversCode(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	sentinel := &testError{"E_TMOUT"}
	var got error
	a := r.api.CreateThread("sleeper", core.KindTask, 10, func(tt *core.TThread) {
		got = r.api.BlockCurrent("flag#2")
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(2 * sysc.Ms)
		r.api.Release(a, sentinel)
	})
	r.mustRun(t, sysc.Sec)
	if got != sentinel {
		t.Fatalf("release code = %v", got)
	}
}

type testError struct{ s string }

func (e *testError) Error() string { return e.s }

func TestReleaseNonWaitingReturnsFalse(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	a := r.api.CreateThread("t", core.KindTask, 10, func(tt *core.TThread) {})
	if r.api.Release(a, nil) {
		t.Fatal("release of dormant thread should report false")
	}
}

func TestInterruptPausesTask(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	var taskEnd, isrStart, isrEnd sysc.Time
	task := r.api.CreateThread("task", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(10*sysc.Ms, 0), trace.CtxTask, "")
		taskEnd = tt.Sim().Now()
	})
	isr := r.api.CreateThread("isr", core.KindISR, 0, func(tt *core.TThread) {
		isrStart = tt.Sim().Now()
		tt.Consume(cost(2*sysc.Ms, 0), trace.CtxHandler, "irq0")
		isrEnd = tt.Sim().Now()
	})
	_ = r.api.Activate(task)
	r.sim.Spawn("intc", func(th *sysc.Thread) {
		th.Wait(4 * sysc.Ms)
		if err := r.api.EnterInterrupt(isr); err != nil {
			panic(err)
		}
	})
	r.mustRun(t, sysc.Sec)
	if isrStart != 4*sysc.Ms || isrEnd != 6*sysc.Ms {
		t.Fatalf("isr ran %v..%v", isrStart, isrEnd)
	}
	if taskEnd != 12*sysc.Ms {
		t.Fatalf("task finished at %v, want 12 ms (10 + 2 borrowed)", taskEnd)
	}
	if _, _, overlap := r.g.CheckNoOverlap(); overlap {
		t.Fatal("GANTT overlap")
	}
	if r.api.Interrupts() != 1 {
		t.Fatalf("interrupts = %d", r.api.Interrupts())
	}
}

func TestNestedInterrupts(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	var ends []sysc.Time
	task := r.api.CreateThread("task", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(20*sysc.Ms, 0), trace.CtxTask, "")
		ends = append(ends, tt.Sim().Now())
	})
	low := r.api.CreateThread("isr-low", core.KindISR, 2, func(tt *core.TThread) {
		tt.Consume(cost(6*sysc.Ms, 0), trace.CtxHandler, "")
		ends = append(ends, tt.Sim().Now())
	})
	high := r.api.CreateThread("isr-high", core.KindISR, 1, func(tt *core.TThread) {
		tt.Consume(cost(2*sysc.Ms, 0), trace.CtxHandler, "")
		ends = append(ends, tt.Sim().Now())
	})
	_ = r.api.Activate(task)
	r.sim.Spawn("intc", func(th *sysc.Thread) {
		th.Wait(5 * sysc.Ms)
		_ = r.api.EnterInterrupt(low)
		th.Wait(2 * sysc.Ms) // low has run 2 of 6 ms
		_ = r.api.EnterInterrupt(high)
	})
	r.mustRun(t, sysc.Sec)
	// high: 7..9; low: 5..7 then 9..13; task: 0..5 then 13..28.
	if len(ends) != 3 {
		t.Fatalf("ends = %v", ends)
	}
	if ends[0] != 9*sysc.Ms {
		t.Fatalf("high ended at %v, want 9 ms", ends[0])
	}
	if ends[1] != 13*sysc.Ms {
		t.Fatalf("low ended at %v, want 13 ms", ends[1])
	}
	if ends[2] != 28*sysc.Ms {
		t.Fatalf("task ended at %v, want 28 ms", ends[2])
	}
	if r.api.MaxInterruptDepth() != 2 {
		t.Fatalf("max interrupt depth = %d", r.api.MaxInterruptDepth())
	}
	if _, _, overlap := r.g.CheckNoOverlap(); overlap {
		t.Fatal("GANTT overlap")
	}
}

func TestDelayedDispatching(t *testing.T) {
	// A dispatch raised inside an interrupt handler (waking a high-priority
	// task) is postponed until the handler returns.
	r := newRig()
	defer r.sim.Shutdown()
	var hiStart sysc.Time
	lo := r.api.CreateThread("lo", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(20*sysc.Ms, 0), trace.CtxTask, "")
	})
	hi := r.api.CreateThread("hi", core.KindTask, 1, func(tt *core.TThread) {
		hiStart = tt.Sim().Now()
		tt.Consume(cost(1*sysc.Ms, 0), trace.CtxTask, "")
	})
	isr := r.api.CreateThread("isr", core.KindISR, 0, func(tt *core.TThread) {
		// Wake the high-priority task from handler context...
		_ = r.api.Activate(hi)
		if r.api.Current() == hi {
			panic("dispatch must be delayed inside a handler")
		}
		// ...then keep running: dispatch must wait for handler return.
		tt.Consume(cost(3*sysc.Ms, 0), trace.CtxHandler, "")
	})
	_ = r.api.Activate(lo)
	r.sim.Spawn("intc", func(th *sysc.Thread) {
		th.Wait(5 * sysc.Ms)
		_ = r.api.EnterInterrupt(isr)
	})
	r.mustRun(t, sysc.Sec)
	if hiStart != 8*sysc.Ms {
		t.Fatalf("hi started at %v, want 8 ms (interrupt entry 5 + handler 3)", hiStart)
	}
}

func TestHandlerOverrunRejected(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	isr := r.api.CreateThread("isr", core.KindISR, 0, func(tt *core.TThread) {
		tt.Consume(cost(10*sysc.Ms, 0), trace.CtxHandler, "")
	})
	var second error
	r.sim.Spawn("intc", func(th *sysc.Thread) {
		th.Wait(1 * sysc.Ms)
		_ = r.api.EnterInterrupt(isr)
		th.Wait(2 * sysc.Ms)
		second = r.api.EnterInterrupt(isr) // still running: overrun
	})
	r.mustRun(t, sysc.Sec)
	if second == nil {
		t.Fatal("re-entering a running handler must fail")
	}
}

func TestEnterInterruptRejectsTask(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	task := r.api.CreateThread("t", core.KindTask, 5, func(tt *core.TThread) {})
	if err := r.api.EnterInterrupt(task); err == nil {
		t.Fatal("EnterInterrupt must reject task-kind threads")
	}
}

func TestSuspendResume(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	var end sysc.Time
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(10*sysc.Ms, 0), trace.CtxTask, "")
		end = tt.Sim().Now()
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(3 * sysc.Ms)
		_ = r.api.SuspendForce(a)
		if a.State() != core.StateSuspended {
			panic("not suspended")
		}
		_ = r.api.SuspendForce(a) // nest
		th.Wait(5 * sysc.Ms)
		_ = r.api.ResumeForce(a)
		if a.State() != core.StateSuspended {
			panic("nested suspension should persist")
		}
		th.Wait(2 * sysc.Ms)
		_ = r.api.ResumeForce(a)
	})
	r.mustRun(t, sysc.Sec)
	// Ran 0..3, suspended 3..10, resumed at 10, remaining 7 -> ends 17.
	if end != 17*sysc.Ms {
		t.Fatalf("end = %v, want 17 ms", end)
	}
}

func TestSuspendWaitingTask(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	var woke sysc.Time
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		_ = r.api.BlockCurrent("mbx#1")
		woke = tt.Sim().Now()
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(1 * sysc.Ms)
		_ = r.api.SuspendForce(a)
		if a.State() != core.StateWaitSuspended {
			panic("state should be WAITING-SUSPENDED")
		}
		th.Wait(1 * sysc.Ms)
		r.api.Release(a, nil) // wait ends, still suspended
		if a.State() != core.StateSuspended {
			panic("state should be SUSPENDED after release")
		}
		th.Wait(3 * sysc.Ms)
		_ = r.api.ResumeForce(a)
	})
	r.mustRun(t, sysc.Sec)
	if woke != 5*sysc.Ms {
		t.Fatalf("woke at %v, want 5 ms", woke)
	}
}

func TestTerminateRunning(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	finished := false
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(100*sysc.Ms, 0), trace.CtxTask, "")
		finished = true
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(5 * sysc.Ms)
		if err := r.api.Terminate(a); err != nil {
			panic(err)
		}
	})
	r.mustRun(t, sysc.Sec)
	if finished {
		t.Fatal("terminated body must not complete")
	}
	if a.State() != core.StateDormant {
		t.Fatalf("state %v", a.State())
	}
	if a.CET() != 5*sysc.Ms {
		t.Fatalf("CET = %v (partial run before terminate)", a.CET())
	}
	// The thread is reusable after termination.
	if err := r.api.Activate(a); err != nil {
		t.Fatal(err)
	}
	r.mustRun(t, 2*sysc.Sec)
	if !finished {
		t.Fatal("reactivated thread should complete")
	}
}

func TestTerminateWaiting(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		_ = r.api.BlockCurrent("sem#9")
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(2 * sysc.Ms)
		if err := r.api.Terminate(a); err != nil {
			panic(err)
		}
	})
	r.mustRun(t, sysc.Sec)
	if a.State() != core.StateDormant {
		t.Fatalf("state %v", a.State())
	}
	if a.WaitObject() != "" {
		t.Fatal("wait object should be cleared")
	}
}

func TestTerminateDormantFails(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {})
	if err := r.api.Terminate(a); err == nil {
		t.Fatal("terminating a dormant thread must fail")
	}
}

func TestChangePriorityPreempts(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	var order []string
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(10*sysc.Ms, 0), trace.CtxTask, "")
		order = append(order, "a")
	})
	b := r.api.CreateThread("b", core.KindTask, 20, func(tt *core.TThread) {
		tt.Consume(cost(5*sysc.Ms, 0), trace.CtxTask, "")
		order = append(order, "b")
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(1 * sysc.Ms)
		_ = r.api.Activate(b) // lower priority: stays ready
		th.Wait(1 * sysc.Ms)
		r.api.ChangePriority(b, 5) // now outranks a: preempts
	})
	r.mustRun(t, sysc.Sec)
	if strings.Join(order, ",") != "b,a" {
		t.Fatalf("order %v", order)
	}
	if b.BasePriority() != 5 || b.Priority() != 5 {
		t.Fatalf("priority %d/%d", b.Priority(), b.BasePriority())
	}
}

func TestEffectivePriorityKeepsBase(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {})
	r.api.SetEffectivePriority(a, 3)
	if a.Priority() != 3 || a.BasePriority() != 10 {
		t.Fatalf("effective=%d base=%d", a.Priority(), a.BasePriority())
	}
}

func TestRoundRobinRotation(t *testing.T) {
	r := newRRRig()
	defer r.sim.Shutdown()
	var slices []string
	mk := func(name string) *core.TThread {
		return r.api.CreateThread(name, core.KindTask, 0, func(tt *core.TThread) {
			for i := 0; i < 2; i++ {
				tt.Consume(cost(1*sysc.Ms, 0), trace.CtxTask, "")
				slices = append(slices, name)
			}
		})
	}
	a, b := mk("a"), mk("b")
	_ = r.api.Activate(a)
	_ = r.api.Activate(b)
	// Time-slice rotation every 1 ms, like RTK-Spec I on a tick.
	r.sim.Spawn("tick", func(th *sysc.Thread) {
		for i := 0; i < 10; i++ {
			th.Wait(1 * sysc.Ms)
			r.api.YieldCurrent()
		}
	})
	r.mustRun(t, 20*sysc.Ms)
	got := strings.Join(slices, ",")
	if got != "a,b,a,b" {
		t.Fatalf("slices = %q, want round-robin a,b,a,b", got)
	}
}

func TestQueuedActivation(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	runs := 0
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(2*sysc.Ms, 0), trace.CtxTask, "")
		runs++
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(1 * sysc.Ms)
		r.api.QueueActivation(a) // queued while running
	})
	r.mustRun(t, sysc.Sec)
	if runs != 2 {
		t.Fatalf("runs = %d, want 2 (queued activation)", runs)
	}
}

func TestDeleteThread(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {})
	id := a.ID()
	if err := r.api.DeleteThread(a); err != nil {
		t.Fatal(err)
	}
	if r.api.Lookup(id) != nil {
		t.Fatal("deleted thread still in registry")
	}
	if a.State() != core.StateNonExistent {
		t.Fatalf("state %v", a.State())
	}
	b := r.api.CreateThread("b", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(2*sysc.Ms, 0), trace.CtxTask, "")
	})
	_ = r.api.Activate(b)
	r.mustRun(t, 1*sysc.Ms) // mid-execution
	if err := r.api.DeleteThread(b); err == nil {
		t.Fatal("delete of a running thread should fail")
	}
}

func TestPetriNetTokenInvariant(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(4*sysc.Ms, 0), trace.CtxTask, "")
		_ = r.api.BlockCurrent("x")
		tt.Consume(cost(4*sysc.Ms, 0), trace.CtxTask, "")
	})
	b := r.api.CreateThread("b", core.KindTask, 5, func(tt *core.TThread) {
		tt.Consume(cost(2*sysc.Ms, 0), trace.CtxTask, "")
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(2 * sysc.Ms)
		_ = r.api.Activate(b)
		th.Wait(5 * sysc.Ms) // a blocks at 6 ms; release strictly after
		r.api.Release(a, nil)
	})
	r.mustRun(t, sysc.Sec)
	for _, tt := range r.api.Threads() {
		if got := tt.TokenPlace(); got != "dormant" {
			t.Fatalf("thread %s: token at %s after the run, want dormant", tt.Name(), got)
		}
	}
	// a's last cycle fired: Es, Ec(4ms), Ew, wakeup, Ex, Ec(4ms), exit and
	// one pause/Ex pair from b's preemption.
	cv := a.CharacteristicVector()
	sum := 0
	for _, v := range cv {
		sum += v
	}
	if sum < 7 {
		t.Fatalf("characteristic vector %v too short", cv)
	}
}

// TestLoadStateRejectsBadMarking: a captured marking is one-hot over the
// four Figure 2 places, and a restore refuses one with no token, two
// tokens or the wrong length.
func TestLoadStateRejectsBadMarking(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(4*sysc.Ms, 0), trace.CtxTask, "")
	})
	_ = r.api.Activate(a)
	r.mustRun(t, 2*sysc.Ms) // mid-Consume: a's token is at running
	for _, m := range [][]int{{0, 0, 0, 0}, {1, 1, 0, 0}, {0, 2, 0, 0}, {0, 1, 0}} {
		st, err := r.api.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		st.Threads[0].Marking = m
		if err := r.api.LoadState(st); err == nil {
			t.Errorf("LoadState accepted marking %v", m)
		}
	}
	st, err := r.api.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Threads[0].Marking; !slices.Equal(got, []int{0, 1, 0, 0}) {
		t.Fatalf("captured marking %v, want [0 1 0 0]", got)
	}
	if err := r.api.LoadState(st); err != nil {
		t.Fatal(err)
	}
	if got := a.TokenPlace(); got != "running" {
		t.Fatalf("token at %s after restore, want running", got)
	}
}

// TestLoadStateRefusalChangesNothing: a restore refused for the last
// thread's marking leaves the threads ahead of it untouched, still READY on
// the ready queue, and they run to completion afterwards.
func TestLoadStateRefusalChangesNothing(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	body := func(tt *core.TThread) { tt.Consume(cost(4*sysc.Ms, 0), trace.CtxTask, "") }
	hi := r.api.CreateThread("hi", core.KindTask, 1, body)
	a := r.api.CreateThread("a", core.KindTask, 10, body)
	b := r.api.CreateThread("b", core.KindTask, 10, body)
	for _, th := range []*core.TThread{hi, a, b} {
		if err := r.api.Activate(th); err != nil {
			t.Fatal(err)
		}
	}
	r.mustRun(t, 2*sysc.Ms) // hi runs; a and b wait READY
	st, err := r.api.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	st.Threads[1].Priority = 30 // a change LoadState must not apply
	st.Threads[2].Marking = nil // b's marking is refused
	if err := r.api.LoadState(st); err == nil {
		t.Fatal("LoadState accepted an empty marking")
	}
	if a.State() != core.StateReady || b.State() != core.StateReady || r.api.ReadyCount() != 2 {
		t.Fatalf("after refusal: a %v, b %v, %d ready, want both READY and queued",
			a.State(), b.State(), r.api.ReadyCount())
	}
	if a.Priority() != 10 {
		t.Fatalf("refused restore changed a's priority to %d", a.Priority())
	}
	r.mustRun(t, 20*sysc.Ms)
	if a.Cycles() != 1 || b.Cycles() != 1 {
		t.Fatalf("cycles after refusal: a %d, b %d, want 1 each", a.Cycles(), b.Cycles())
	}
}

func TestEnergyReportAndGantt(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(5*sysc.Ms, 5*petri.MilliJ), trace.CtxTask, "step")
	})
	_ = r.api.Activate(a)
	r.mustRun(t, 10*sysc.Ms)
	var sb strings.Builder
	r.api.EnergyReport(&sb)
	out := sb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "TOTAL") {
		t.Fatalf("energy report missing rows:\n%s", out)
	}
	if r.api.BusyTime() != 5*sysc.Ms {
		t.Fatalf("busy = %v", r.api.BusyTime())
	}
	if len(r.g.Segments) == 0 {
		t.Fatal("no GANTT segments recorded")
	}
	if r.g.Segments[0].Ctx != trace.CtxTask || r.g.Segments[0].Note != "step" {
		t.Fatalf("segment %+v", r.g.Segments[0])
	}
}

func TestChargeObserver(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	var total core.Energy
	r.bus.Subscribe(func(e event.Event) {
		total += core.Energy(e.Energy)
	}, event.KindRunSlice)
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(5*sysc.Ms, 3*petri.MilliJ), trace.CtxTask, "")
	})
	_ = r.api.Activate(a)
	r.mustRun(t, 10*sysc.Ms)
	if total != 3*petri.MilliJ {
		t.Fatalf("observed energy %v", total)
	}
}

func TestZeroCostConsumeFiresEc(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(core.Cost{Energy: 1 * petri.MicroJ}, trace.CtxService, "zero-time")
	})
	_ = r.api.Activate(a)
	r.mustRun(t, sysc.Ms)
	if a.CEE() != 1*petri.MicroJ {
		t.Fatalf("CEE = %v", a.CEE())
	}
	if a.CET() != 0 {
		t.Fatalf("CET = %v", a.CET())
	}
}

func TestLookupByName(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	a := r.api.CreateThread("alpha", core.KindTask, 1, func(tt *core.TThread) {})
	if r.api.LookupByName("alpha") != a {
		t.Fatal("LookupByName failed")
	}
	if r.api.LookupByName("nope") != nil {
		t.Fatal("unknown name should return nil")
	}
}

func TestStatsCounters(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	a := r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(cost(10*sysc.Ms, 0), trace.CtxTask, "")
	})
	b := r.api.CreateThread("b", core.KindTask, 1, func(tt *core.TThread) {
		tt.Consume(cost(1*sysc.Ms, 0), trace.CtxTask, "")
	})
	_ = r.api.Activate(a)
	r.sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(2 * sysc.Ms)
		_ = r.api.Activate(b)
	})
	r.mustRun(t, sysc.Sec)
	if r.api.ContextSwitches() < 3 {
		t.Fatalf("ctx switches = %d", r.api.ContextSwitches())
	}
	if r.api.Preemptions() != 1 {
		t.Fatalf("preemptions = %d", r.api.Preemptions())
	}
}

// Waiters of one event resume in the order they armed their waits,
// whatever their process kind — threads and coroutines share a single wait
// list — and statically sensitive methods run after all of them. Inside a
// closure T-THREAD body, CurrentThread, CurrentCoro and ExecutingThread
// all name the body's own process.
func TestWakeOrderAndExecutingThread(t *testing.T) {
	r := newRig()
	defer r.sim.Shutdown()
	ev := r.sim.NewEvent("go")
	var order []string
	r.sim.SpawnMethod("method", func() { order = append(order, "method") }, ev)
	// Elaboration runs processes in spawn order, so each arms in turn.
	r.sim.Spawn("threadA", func(th *sysc.Thread) {
		th.WaitEvent(ev)
		order = append(order, "threadA")
	})
	r.sim.SpawnCoro("coro", func(c *sysc.Coro) {
		if c.Fired() == ev {
			order = append(order, "coro")
			return
		}
		c.WaitEvent(ev)
	})
	r.sim.Spawn("threadB", func(th *sysc.Thread) {
		th.WaitEvent(ev)
		order = append(order, "threadB")
	})
	ev.NotifyAfter(sysc.Ms)

	var inBody bool
	task := r.api.CreateThread("task", core.KindTask, 10, func(tt *core.TThread) {
		inBody = true
		th := r.sim.CurrentThread()
		if th == nil || th.Name() != "tthread.task" {
			t.Errorf("CurrentThread in a closure body = %v", th)
		} else if th.Coro() != r.sim.CurrentCoro() {
			t.Error("CurrentCoro in a closure body is not its thread's coroutine")
		}
		if got := r.api.ExecutingThread(); got != tt {
			t.Errorf("ExecutingThread in a closure body = %v, want %v", got, tt)
		}
	})
	if err := r.api.Activate(task); err != nil {
		t.Fatal(err)
	}
	r.mustRun(t, 2*sysc.Ms)
	if !inBody {
		t.Fatal("closure body never ran")
	}
	if r.api.ExecutingThread() != nil || r.sim.CurrentThread() != nil || r.sim.CurrentCoro() != nil {
		t.Fatal("an executing process is reported outside the run")
	}
	want := "threadA coro threadB method"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("wake order %q, want %q", got, want)
	}
}
