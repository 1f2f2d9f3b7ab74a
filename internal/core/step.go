package core

import (
	"repro/internal/event"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// This file holds the resumable T-THREAD primitives (StepAwaitCPU,
// StepConsume, StepBlock) and the T-THREAD cycle driver, which steps
// compiled and closure bodies alike.
//
// A Step* primitive arms its wait on the T-THREAD's sysc.Coro and returns
// StepWait; re-entering it resumes from its recorded phase. A consume slice
// that nothing can interrupt elapses inline instead (sysc.Coro.Elapse): the
// primitive continues into its csSlice phase as if the timeout had fired.
// They are the only implementation of these primitives: a compiled body
// re-enters them on its next coroutine step, and the blocking forms a
// closure body calls (AwaitCPU, Consume, BlockCurrent) loop over them,
// parking the body's thread on every StepWait.

// Step is the outcome of driving one resumable primitive.
type Step uint8

// Step outcomes.
const (
	// StepDone: the primitive completed; the machine proceeds.
	StepDone Step = iota
	// StepWait: a wait was armed on the coroutine; the machine must return
	// BodyWait and re-enter the same primitive on the next step.
	StepWait
	// StepReset: the thread was terminated mid-primitive; the machine must
	// unwind and return BodyReset (a closure body unwinds with the
	// resetSignal panic instead).
	StepReset
)

// BodyStep is the outcome of one step of a compiled T-THREAD body.
type BodyStep uint8

// Body outcomes.
const (
	// BodyDone: the body finished its cycle (a closure body returned or
	// called Exit). The machine has rewound itself for the next activation.
	BodyDone BodyStep = iota
	// BodyWait: the body parked at a yield point; step again when the armed
	// wait fires.
	BodyWait
	// BodyReset: the body observed a terminate/reset mid-cycle and has
	// rewound itself for the next activation.
	BodyReset
)

// CompiledBody is a T-THREAD body expressed as a resumable state machine
// driven inline by a sysc coroutine. Step drives the body until it
// completes, parks, or is reset; on BodyDone/BodyReset the implementation
// must have rewound its own state so the next Step begins a fresh cycle.
type CompiledBody interface {
	Step(t *TThread) BodyStep
}

// closureBody is a Go closure as a CompiledBody. Step runs one whole cycle
// of the closure on the thread's own goroutine, which parks inside the
// body at every wait (TThread.Park), so it never returns BodyWait. The
// resetSignal unwind becomes BodyReset and the exitSignal unwind (Exit)
// BodyDone, as a return does; every other panic propagates, including the
// sysc Shutdown unwind.
type closureBody func(*TThread)

func (b closureBody) Step(t *TThread) (s BodyStep) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case resetSignal:
				s = BodyReset
			case exitSignal:
				s = BodyDone
			default:
				panic(r)
			}
		}
	}()
	b(t)
	return BodyDone
}

// consumePhase tracks where inside Consume a resumable thread is parked.
type consumePhase uint8

const (
	csIdle      consumePhase = iota
	csAcquire                // initial CPU acquisition (and first-slice arm)
	csSlice                  // parked in WaitTimeout(remaining, preemptEv)
	csReacquire              // CPU reacquisition after a preemption mid-budget
	csFinal                  // final CPU acquisition before the Ec fire
)

// consumeState is the saved frame of one in-flight StepConsume.
type consumeState struct {
	phase     consumePhase
	cost      Cost
	ctx       trace.Context
	note      string
	total     sysc.Time
	remaining sysc.Time
	start     sysc.Time
}

// blockPhase tracks where inside BlockCurrent a resumable thread is parked.
type blockPhase uint8

const (
	bsIdle    blockPhase = iota
	bsAcquire            // pre-commit CPU acquisition + pendingRel fast path
	bsPark               // committed to WAITING, parked for redispatch
)

// StepAwaitCPU is the resumable AwaitCPU: re-enter until it stops
// returning StepWait. Flags are re-checked before every park so a
// terminate/reset raised just before parking is never lost.
func (t *TThread) StepAwaitCPU() Step {
	if t.terminated {
		return StepReset
	}
	if t.ownsCPU() {
		return StepDone
	}
	t.co.WaitEvent(t.dispatchEv)
	return StepWait
}

// StepConsume is the resumable Consume (SIM_Wait). The cost/ctx/note
// arguments are captured on the first entry of an episode and ignored while
// one is in flight, so the machine may pass them on every re-entry.
func (t *TThread) StepConsume(cost Cost, ctx trace.Context, note string) Step {
	cs := &t.cs
	for {
		switch cs.phase {
		case csIdle:
			if t.api.consumeShaper != nil {
				cost = t.api.consumeShaper(t, cost, ctx)
			}
			cs.cost, cs.ctx, cs.note = cost, ctx, note
			cs.total = cost.Time
			cs.remaining = cs.total
			cs.phase = csAcquire
		case csAcquire:
			if t.terminated {
				cs.phase = csIdle
				return StepReset
			}
			if !t.ownsCPU() {
				t.co.WaitEvent(t.dispatchEv)
				return StepWait
			}
			if cs.remaining <= 0 {
				// Zero-time step: record the marker and the energy, fire Ec.
				t.charge(t.Now(), t.Now(), cs.cost.Energy, cs.ctx, cs.note)
				t.fire(trEc, cs.cost)
				cs.phase = csIdle
				return StepDone
			}
			cs.start = t.Now()
			cs.phase = csSlice
			if t.co.Elapse(cs.remaining) {
				continue
			}
			t.co.WaitTimeout(cs.remaining, t.preemptEv)
			return StepWait
		case csSlice:
			timedOut := t.co.TimedOut()
			consumed := t.Now() - cs.start
			if consumed > 0 || timedOut {
				frac := float64(consumed) / float64(cs.total)
				t.charge(cs.start, cs.start+consumed,
					Energy(float64(cs.cost.Energy)*frac), cs.ctx, cs.note)
				cs.remaining -= consumed
			}
			if timedOut {
				cs.phase = csFinal
				continue
			}
			if t.terminated {
				cs.phase = csIdle
				return StepReset
			}
			cs.phase = csReacquire
		case csReacquire:
			if t.terminated {
				cs.phase = csIdle
				return StepReset
			}
			if !t.ownsCPU() {
				t.co.WaitEvent(t.dispatchEv)
				return StepWait
			}
			if cs.remaining > 0 {
				cs.start = t.Now()
				cs.phase = csSlice
				if t.co.Elapse(cs.remaining) {
					continue
				}
				t.co.WaitTimeout(cs.remaining, t.preemptEv)
				return StepWait
			}
			cs.phase = csFinal
		case csFinal:
			// The step may have completed at the same instant the thread was
			// scheduled out; the Ec transition fires once it owns the CPU
			// again.
			if t.terminated {
				cs.phase = csIdle
				return StepReset
			}
			if !t.ownsCPU() {
				t.co.WaitEvent(t.dispatchEv)
				return StepWait
			}
			t.fire(trEc, cs.cost)
			cs.phase = csIdle
			return StepDone
		}
	}
}

// StepBlock is the resumable BlockCurrent (SIM_Sleep). On StepDone the
// returned error is the release code Release delivered (nil for a normal
// wakeup); it is meaningless for other outcomes.
func (t *TThread) StepBlock(waitObj string) (Step, error) {
	a := t.api
	for {
		switch t.bs {
		case bsIdle:
			if len(a.istack) > 0 {
				panic("core: BlockCurrent from handler context")
			}
			t.bs = bsAcquire
		case bsAcquire:
			if t.terminated {
				t.bs = bsIdle
				return StepReset, nil
			}
			if !t.ownsCPU() {
				t.co.WaitEvent(t.dispatchEv)
				return StepWait, nil
			}
			if t.hasPendingRel {
				t.hasPendingRel = false
				t.bs = bsIdle
				return StepDone, t.pendingRel
			}
			t.state = StateWaiting
			t.waitObj = waitObj
			t.relCode = nil
			a.publish(event.KindBlock, t, waitObj)
			t.fire(trEw, Cost{})
			a.current = nil
			a.RequestDispatch()
			t.bs = bsPark
		case bsPark:
			if t.terminated {
				t.bs = bsIdle
				return StepReset, nil
			}
			if !t.ownsCPU() {
				t.co.WaitEvent(t.dispatchEv)
				return StepWait, nil
			}
			t.bs = bsIdle
			return StepDone, t.relCode
		}
	}
}

// coroStep is the T-THREAD cycle driver: it moves the token around the
// Figure 2 net once per activation. One invocation drives the body as far
// as it can go — through whole cycles when activations chain — and returns
// with exactly one wait armed.
func (t *TThread) coroStep(c *sysc.Coro) {
	for {
		if !t.crInBody {
			// Park until dispatched for a new cycle (Es), absorbing a
			// terminate aimed at an already-dormant thread.
			if t.ownsCPU() && !t.terminated {
				t.crInBody = true
				continue
			}
			t.terminated = false
			c.WaitEvent(t.dispatchEv)
			return
		}
		switch t.compiled.Step(t) {
		case BodyWait:
			return
		case BodyReset:
			// Reset path: Terminate already performed the bookkeeping
			// (including the terminate transition, so it lands in this
			// cycle's firing sequence).
			t.terminated = false
			t.cycleEnd()
			t.crInBody = false
		case BodyDone:
			// Exit bookkeeping fires the exit transition before the cycle's
			// firing sequence is snapshotted.
			t.api.bodyReturned(t)
			t.cycleEnd()
			t.crInBody = false
		}
	}
}

// CreateThreadCompiled registers a new T-THREAD whose body is a compiled
// state machine driven inline by a sysc coroutine. The thread is
// indistinguishable from a closure-bodied one to the scheduler, the kernel
// layers and every observer.
func (a *SimAPI) CreateThreadCompiled(name string, kind Kind, priority int, body CompiledBody) *TThread {
	t := a.newThread(name, kind, priority)
	t.compiled = body
	t.co = a.sim.SpawnCoro("tthread."+name, t.coroStep)
	a.bindCoro(t)
	return t
}

// Compiled reports whether the thread's body is a compiled state machine
// rather than a Go closure.
func (t *TThread) Compiled() bool { return t.th == nil }
