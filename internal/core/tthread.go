package core

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// Cost aliases the Petri-net cost model: an execution-time (ETM) and
// execution-energy (EEM) contribution of one atomic step.
type Cost = petri.Cost

// Energy aliases the energy quantity used throughout the simulator.
type Energy = petri.Energy

// resetSignal unwinds a T-THREAD body when the thread is terminated or
// reset; it is recovered by the thread's run loop.
type resetSignal struct{}

// Indexes of the transitions in a T-THREAD's Petri net (Figure 2). The net
// has four places — dormant, running, ready, waiting — and one token.
const (
	trEs  = iota // Es: startup — dormant -> running (source transition To)
	trEc         // Ec: continue-run — running -> running (one atomic step)
	trPx         // paused: running -> ready (preempted or interrupted out)
	trEx         // Ex/Ei: redispatch — ready -> running
	trEw         // Ew wait: running -> waiting (voluntary sleep)
	trWk         // Ew arrival: waiting -> ready (wakeup/release)
	trXt         // exit: running -> dormant
	trTmR        // terminate from ready/suspended -> dormant
	trTmW        // terminate from waiting -> dormant
)

// Place indexes of the T-THREAD net.
const (
	plDormant = iota
	plRunning
	plReady
	plWaiting
)

// tthreadPlaces and tthreadArcs describe the cyclic state-machine net of
// Figure 2, indexed by the pl*/tr* constants above.
var (
	tthreadPlaces = []string{"dormant", "running", "ready", "waiting"}
	tthreadArcs   = []petri.Arc{
		{Name: "Es", In: plDormant, Out: plRunning},
		{Name: "Ec", In: plRunning, Out: plRunning},
		{Name: "paused", In: plRunning, Out: plReady},
		{Name: "Ex", In: plReady, Out: plRunning},
		{Name: "Ew", In: plRunning, Out: plWaiting},
		{Name: "wakeup", In: plWaiting, Out: plReady},
		{Name: "exit", In: plRunning, Out: plDormant},
		{Name: "term-ready", In: plReady, Out: plDormant},
		{Name: "term-wait", In: plWaiting, Out: plDormant},
	}
)

// newTThreadNet builds the cyclic state-machine net of Figure 2.
func newTThreadNet(name string) *petri.Net {
	return petri.NewStateMachine(name, tthreadPlaces, plDormant, tthreadArcs)
}

// TThread is the paper's controllable process model: a cyclic object whose
// single token moves through atomic transitions as kernel events occur, and
// which can be interrupted and preempted at preemption points while
// gathering execution time and energy statistics.
type TThread struct {
	api  *SimAPI
	id   int
	name string
	kind Kind
	body func(*TThread)

	priority     int
	basePriority int

	th         *sysc.Thread
	dispatchEv *sysc.Event // Es/Ex/Ei carrier: fired when given the CPU
	preemptEv  *sysc.Event // asks the thread to yield at its next preemption point

	// Continuation engine: the coroutine driving a compiled body, the body
	// machine itself, and the saved frames of in-flight resumable
	// primitives (see step.go). nil/zero for goroutine-backed threads.
	co       *sysc.Coro
	compiled CompiledBody
	crInBody bool // the compiled body is mid-cycle
	cs       consumeState
	bs       blockPhase

	state      State
	suspCount  int    // forced-suspension nesting (tk_sus_tsk)
	terminated bool   // reset request: unwind body to the top of the cycle
	waitObj    string // what the thread is waiting on (for DS listings)
	relCode    error  // wait release code delivered by Release
	actCount   int    // queued activation requests

	// Latched release for the decide-to-block window (see Release).
	pendingRel    error
	hasPendingRel bool

	exinf any // user extended information (µITRON exinf)

	ready ReadyNode // intrusive ready-queue link (owned by the scheduler)

	net    *petri.Net
	seq    *petri.FiringSequence
	acc    petri.Accumulator
	lastCV []int // characteristic vector of the last completed cycle
}

// --- registry-facing accessors (SIM_HashTB record fields) ---

// ID returns the registry identifier assigned at creation.
func (t *TThread) ID() int { return t.id }

// Name returns the thread's name.
func (t *TThread) Name() string { return t.name }

// Kind returns the embedded-software object kind the thread wraps.
func (t *TThread) Kind() Kind { return t.kind }

// State returns the current scheduling state.
func (t *TThread) State() State { return t.state }

// Priority returns the current (possibly boosted) priority.
func (t *TThread) Priority() int { return t.priority }

// BasePriority returns the priority assigned at creation/last change,
// ignoring temporary boosts (mutex priority inheritance).
func (t *TThread) BasePriority() int { return t.basePriority }

// WaitObject names the kernel object the thread is blocked on ("" if none).
func (t *TThread) WaitObject() string { return t.waitObj }

// SetWaitObject relabels the wait object of a blocked thread (used when a
// wait's nature changes mid-block, e.g. a rendezvous call that has been
// accepted now waits for the reply).
func (t *TThread) SetWaitObject(obj string) {
	if t.state == StateWaiting || t.state == StateWaitSuspended {
		t.waitObj = obj
	}
}

// SuspendCount returns the forced-suspension nesting depth.
func (t *TThread) SuspendCount() int { return t.suspCount }

// SetExinf attaches user extended information to the thread.
func (t *TThread) SetExinf(v any) { t.exinf = v }

// Exinf returns the user extended information.
func (t *TThread) Exinf() any { return t.exinf }

// CET returns the consumed execution time accumulated over all cycles.
func (t *TThread) CET() sysc.Time { return t.acc.CET }

// CEE returns the consumed execution energy accumulated over all cycles.
func (t *TThread) CEE() Energy { return t.acc.CEE }

// Cycles returns the number of completed execution cycles (activations).
func (t *TThread) Cycles() int { return t.acc.Cycles }

// CharacteristicVector returns S̄ of the last completed firing sequence:
// per-transition firing counts of one execution cycle.
func (t *TThread) CharacteristicVector() []int {
	out := make([]int, len(t.lastCV))
	copy(out, t.lastCV)
	return out
}

// Sim returns the owning sysc simulator.
func (t *TThread) Sim() *sysc.Simulator { return t.api.sim }

// Now returns the current simulation time.
func (t *TThread) Now() sysc.Time { return t.api.sim.Now() }

// API returns the owning SIM_API library.
func (t *TThread) API() *SimAPI { return t.api }

// Net exposes the underlying Petri net (read-only use: markings, structure).
func (t *TThread) Net() *petri.Net { return t.net }

// tokenPlace returns the index of the place currently holding the token.
func (t *TThread) tokenPlace() int {
	for i, p := range t.net.Places {
		if p.Tokens > 0 {
			return i
		}
	}
	return -1
}

// fire fires transition idx and records it in the current firing sequence.
// A fire that is not enabled is a broken execution-semantics invariant.
func (t *TThread) fire(idx int, cost Cost) {
	tr := t.net.Transitions[idx]
	if err := t.net.Fire(tr); err != nil {
		panic(fmt.Sprintf("core: T-THREAD %q: %v (state %v, token at %d)",
			t.name, err, t.state, t.tokenPlace()))
	}
	t.seq.Record(tr, cost)
	if a := t.api; a.bus.Wants(event.KindToken) {
		a.bus.Publish(event.Event{
			Kind: event.KindToken, Time: a.sim.Now(),
			Thread: t.name, Code: idx, Obj: tr.Name,
		})
	}
}

// pauseFire moves the token running->ready if it is at running (used when
// the thread is scheduled out by preemption, interruption, or forced
// suspension; tolerant because a freshly dispatched thread may be paused
// again before executing a single step).
func (t *TThread) pauseFire() {
	if t.tokenPlace() == plRunning {
		t.fire(trPx, Cost{})
	}
}

// resumeFire moves the token back to running: Es from dormant (startup) or
// Ex/Ei from ready (redispatch).
func (t *TThread) resumeFire() {
	switch t.tokenPlace() {
	case plDormant:
		t.fire(trEs, Cost{})
	case plReady:
		t.fire(trEx, Cost{})
	}
}

// ownsCPU reports whether the thread currently owns the processor: the top
// of the interrupt stack if any handler is active, the current task
// otherwise.
func (t *TThread) ownsCPU() bool {
	a := t.api
	if n := len(a.istack); n > 0 {
		return a.istack[n-1] == t
	}
	return a.current == t
}

// waitForCPU parks the thread's sysc process until it owns the CPU again.
// Flags are re-checked before every sleep so a terminate/reset raised just
// before parking is never lost.
func (t *TThread) waitForCPU() {
	for {
		if t.terminated {
			panic(resetSignal{})
		}
		if t.ownsCPU() {
			return
		}
		t.th.WaitEvent(t.dispatchEv)
	}
}

// AwaitCPU parks the thread until it owns the processor. Kernel layers call
// it before taking the dispatch lock at a service-call entry: a task that
// was preempted in the zero-time window between two annotated steps must
// not begin a new atomic service body until it is dispatched again —
// otherwise it would disable dispatching while parked and deadlock the
// system.
func (t *TThread) AwaitCPU() { t.waitForCPU() }

// Access is one timed device access split into its two halves: the budget
// the executing T-THREAD consumes (Cost, in trace.CtxBFM under Name), and
// the effect that takes hold once the budget is spent (Apply). The
// access's arguments are latched when it is built, before the budget.
type Access struct {
	Name  string
	Cost  Cost
	Apply func()
}

// Consume is SIM_Wait: the thread consumes cost.Time of execution time and
// cost.Energy of energy in the given context. The wait is a preemption
// point: if the thread is preempted or interrupted partway, the consumed
// fraction of time and energy is charged pro rata, a trace segment is
// emitted, and the thread suspends until it is dispatched again, then
// resumes the remaining budget. Completion fires one Ec transition.
//
// Consume must be called from within the thread's own closure body.
// Compiled bodies cannot park inside an opaque closure: time they consume
// belongs in a Work op, and a device access in an Io op.
func (t *TThread) Consume(cost Cost, ctx trace.Context, note string) {
	if t.th == nil {
		panic(fmt.Sprintf("core: thread %q: Consume from a compiled body (express the cost as a Work op, a device access as an Io op)", t.name))
	}
	if t.api.consumeShaper != nil {
		cost = t.api.consumeShaper(t, cost, ctx)
	}
	t.waitForCPU()
	total := cost.Time
	remaining := total
	if remaining <= 0 {
		// Zero-time step: record the marker and the energy, fire Ec.
		t.charge(t.th.Now(), t.th.Now(), cost.Energy, ctx, note)
		t.fire(trEc, cost)
		return
	}
	for remaining > 0 {
		start := t.th.Now()
		_, timedOut := t.th.WaitTimeout(remaining, t.preemptEv)
		consumed := t.th.Now() - start
		if consumed > 0 || timedOut {
			frac := float64(consumed) / float64(total)
			t.charge(start, start+consumed, Energy(float64(cost.Energy)*frac), ctx, note)
			remaining -= consumed
		}
		if timedOut {
			break
		}
		if t.terminated {
			panic(resetSignal{})
		}
		t.waitForCPU()
	}
	// The step may have completed at the same instant the thread was
	// scheduled out; the Ec transition fires once it owns the CPU again.
	t.waitForCPU()
	t.fire(trEc, cost)
}

// Exit ends the current execution cycle from within the thread's own body
// (tk_ext_tsk): termination bookkeeping is performed and the body unwinds
// immediately. It never returns.
func (t *TThread) Exit() {
	_ = t.api.Terminate(t)
	panic(resetSignal{})
}

// charge books a completed run slice into the thread statistics and
// publishes it on the event bus (where the Gantt recorder, the Perfetto
// exporter and the metrics collector subscribe).
func (t *TThread) charge(start, end sysc.Time, e Energy, ctx trace.Context, note string) {
	t.acc.AddCost(Cost{Time: end - start, Energy: e})
	a := t.api
	a.busy += end - start
	if a.bus.Wants(event.KindRunSlice) {
		a.bus.Publish(event.Event{
			Kind: event.KindRunSlice, Time: end, Start: start,
			Thread: t.name, Ctx: uint8(ctx), Energy: petri.Energy(e), Obj: note,
		})
	}
}

// cycleEnd performs end-of-cycle bookkeeping when the body returns or the
// thread is reset: store the characteristic vector and reset the sequence.
func (t *TThread) cycleEnd() {
	t.lastCV = t.seq.AppendCharacteristicVector(t.lastCV)
	t.acc.Cycles++
	t.seq.Reset()
}

// run is the sysc process wrapping the cyclic T-THREAD object.
func (t *TThread) run(th *sysc.Thread) {
	t.th = th
	for {
		// Park until dispatched for a new cycle (Es).
		t.safeWaitForCPU(th)
		t.execBody()
		if t.terminated {
			// Reset path: Terminate already performed the bookkeeping
			// (including the terminate transition, so it lands in this
			// cycle's firing sequence).
			t.terminated = false
			t.cycleEnd()
			continue
		}
		// Exit bookkeeping fires the exit transition before the cycle's
		// firing sequence is snapshotted.
		t.api.threadExited(t)
		t.cycleEnd()
	}
}

// safeWaitForCPU parks for dispatch at the top of the cycle, absorbing
// reset signals (a terminate aimed at an already-dormant thread).
func (t *TThread) safeWaitForCPU(th *sysc.Thread) {
	for {
		if t.ownsCPU() && !t.terminated {
			return
		}
		t.terminated = false
		th.WaitEvent(t.dispatchEv)
	}
}

// execBody runs one cycle of the body, converting reset signals into a
// normal return with t.terminated still set.
func (t *TThread) execBody() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(resetSignal); ok {
				return
			}
			panic(r)
		}
	}()
	t.body(t)
}

// String summarizes the thread for diagnostics.
func (t *TThread) String() string {
	return fmt.Sprintf("T-THREAD %d %q kind=%v prio=%d state=%v CET=%v CEE=%v",
		t.id, t.name, t.kind, t.priority, t.state, t.CET(), t.CEE())
}
