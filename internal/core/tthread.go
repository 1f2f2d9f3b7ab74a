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

// resetSignal unwinds a closure T-THREAD body when the thread is terminated
// or reset; closureBody.Step recovers it.
type resetSignal struct{}

// exitSignal unwinds a closure T-THREAD body that calls Exit;
// closureBody.Step recovers it as a return.
type exitSignal struct{}

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
// Figure 2, indexed by the pl*/tr* constants above. The net carries one
// token, so a thread's marking is the index of the place that holds it.
var (
	tthreadPlaces = [...]string{"dormant", "running", "ready", "waiting"}
	tthreadArcs   = [...]petri.Arc{
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

// TThread is the paper's controllable process model: a cyclic object whose
// single token moves through atomic transitions as kernel events occur, and
// which can be interrupted and preempted at preemption points while
// gathering execution time and energy statistics.
type TThread struct {
	api    *SimAPI
	subj   event.Subject // SIM_HashTB identity: registry id and name
	byName string        // "by <name>": the Obj of a preempt event this thread causes
	kind   Kind

	priority     int
	basePriority int

	th         *sysc.Thread // the closure body's thread, nil for a compiled body
	dispatchEv *sysc.Event  // Es/Ex/Ei carrier: fired when given the CPU
	preemptEv  *sysc.Event  // asks the thread to yield at its next preemption point

	// The coroutine the thread runs on (its closure thread's, or the one
	// driving its compiled body), the body machine (a closureBody for a
	// closure), and the saved frames of in-flight resumable primitives (see
	// step.go).
	co       *sysc.Coro
	compiled CompiledBody
	crInBody bool // the body is mid-cycle
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

	place  int // the Figure 2 place holding the token (pl*)
	seq    *petri.FiringSequence
	acc    petri.Accumulator
	lastCV []int // characteristic vector of the last completed cycle
}

// --- registry-facing accessors (SIM_HashTB record fields) ---

// ID returns the registry identifier assigned at creation.
func (t *TThread) ID() int { return t.subj.Index }

// Name returns the thread's name.
func (t *TThread) Name() string { return t.subj.Name }

// Subject returns the identity the thread's bus events carry, nil for a nil
// thread (an event about the kernel itself).
func (t *TThread) Subject() *event.Subject {
	if t == nil {
		return nil
	}
	return &t.subj
}

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

// TokenPlace names the Figure 2 place holding the thread's token.
func (t *TThread) TokenPlace() string { return tthreadPlaces[t.place] }

// fire fires transition idx and records it in the current firing sequence.
// A fire that is not enabled is a broken execution-semantics invariant.
func (t *TThread) fire(idx int, cost Cost) {
	arc := &tthreadArcs[idx]
	if t.place != arc.In {
		panic(fmt.Sprintf("core: T-THREAD %q: transition %q not enabled (state %v, token at %s)",
			t.Name(), arc.Name, t.state, tthreadPlaces[t.place]))
	}
	t.place = arc.Out
	t.seq.Record(idx, cost)
	if a := t.api; a.bus.Wants(event.KindToken) {
		a.bus.Publish(event.Event{
			Kind: event.KindToken, Time: a.sim.Now(),
			Thread: &t.subj, Code: int32(idx), Obj: arc.Name,
		})
	}
}

// pauseFire moves the token running->ready if it is at running (used when
// the thread is scheduled out by preemption, interruption, or forced
// suspension; tolerant because a freshly dispatched thread may be paused
// again before executing a single step).
func (t *TThread) pauseFire() {
	if t.place == plRunning {
		t.fire(trPx, Cost{})
	}
}

// resumeFire moves the token back to running: Es from dormant (startup) or
// Ex/Ei from ready (redispatch).
func (t *TThread) resumeFire() {
	switch t.place {
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

// Park carries out one outcome of a resumable primitive for a closure
// body: StepWait parks the body until the armed wait fires and reports
// that the primitive must be re-entered, StepReset unwinds the body, and
// StepDone reports that the primitive finished. The blocking forms below
// and a kernel's own resumable frames (a service call) loop over it.
//
// A compiled body cannot park inside an opaque closure: time it consumes
// belongs in a Work op, a device access in an Io op, and a service call in
// a service op.
func (t *TThread) Park(s Step) bool {
	if t.th == nil {
		panic(fmt.Sprintf("core: thread %q: blocking call from a compiled body (express time as a Work op, a device access as an Io op, a service call as a service op)", t.Name()))
	}
	switch s {
	case StepWait:
		t.th.Park()
		return true
	case StepReset:
		panic(resetSignal{})
	}
	return false
}

// AwaitCPU parks the thread until it owns the processor. Kernel layers call
// it before taking the dispatch lock at a service-call entry: a task that
// was preempted in the zero-time window between two annotated steps must
// not begin a new atomic service body until it is dispatched again —
// otherwise it would disable dispatching while parked and deadlock the
// system.
func (t *TThread) AwaitCPU() {
	for t.Park(t.StepAwaitCPU()) {
	}
}

// Access is one timed device access split into its two halves: the budget
// the executing T-THREAD consumes (Cost, in trace.CtxBFM under Name), and
// the effect that takes hold once the budget is spent (Effect, run by
// Apply). The access carries its operands, latched when it is built,
// before the budget: Arg (the value written, the device selected) and Dst
// (where a read lands). Devices bind Effect once per register, so building
// an access allocates nothing.
type Access struct {
	Name   string
	Cost   Cost
	Effect func(a Access)
	Arg    int
	Dst    *byte
}

// Apply runs the access's effect on its operands; effect-free accesses do
// nothing.
func (a Access) Apply() {
	if a.Effect != nil {
		a.Effect(a)
	}
}

// Consume is SIM_Wait: the thread consumes cost.Time of execution time and
// cost.Energy of energy in the given context. The wait is a preemption
// point: if the thread is preempted or interrupted partway, the consumed
// fraction of time and energy is charged pro rata, a trace segment is
// emitted, and the thread suspends until it is dispatched again, then
// resumes the remaining budget. Completion fires one Ec transition.
//
// Consume must be called from within the thread's own closure body (see
// Park).
func (t *TThread) Consume(cost Cost, ctx trace.Context, note string) {
	for t.Park(t.StepConsume(cost, ctx, note)) {
	}
}

// Exit ends the current execution cycle from within the thread's own body
// (tk_ext_tsk) exactly as a return from the body does: the body unwinds
// immediately, running its deferred calls, and the cycle ends with the exit
// bookkeeping, so a queued activation starts the next cycle. It never
// returns.
func (t *TThread) Exit() {
	panic(exitSignal{})
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
			Thread: &t.subj, Ctx: uint8(ctx), Energy: petri.Energy(e), Obj: note,
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

// String summarizes the thread for diagnostics.
func (t *TThread) String() string {
	return fmt.Sprintf("T-THREAD %d %q kind=%v prio=%d state=%v CET=%v CEE=%v",
		t.ID(), t.Name(), t.kind, t.priority, t.state, t.CET(), t.CEE())
}
