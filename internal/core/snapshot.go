package core

import (
	"fmt"
	"slices"

	"repro/internal/petri"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// This file is the SIM_API layer of the kernel snapshot stack
// (internal/snapshot): quiescent-point capture and in-place restore of
// every T-THREAD's dynamic state and of the library's own dispatching
// state. It sits directly above sysc.SaveState/LoadState — the sysc layer
// owns process wait sets and the timed heap; this layer owns the Petri
// markings, the firing sequences, the saved primitive frames, the
// ready-queue order and the interrupt stack.

// ConsumeState is the exported mirror of the consumeState frame: where
// inside an in-flight Consume episode a thread is parked, and the
// episode's remaining budget.
type ConsumeState struct {
	Phase     uint8
	Cost      Cost
	Ctx       trace.Context
	Note      string
	Total     sysc.Time
	Remaining sysc.Time
	Start     sysc.Time
}

// TThreadState is the captured dynamic state of one T-THREAD.
type TThreadState struct {
	ID            int // registry identifier, for cross-checks only
	Priority      int
	BasePriority  int
	State         State
	SuspCount     int
	Terminated    bool
	WaitObj       string
	RelCode       error // T-Kernel ER singletons or nil
	ActCount      int
	PendingRel    error
	HasPendingRel bool

	// Resumption state of the resumable primitives (CrInBody: the body is
	// mid-cycle, which only a compiled body can resume from a capture).
	CrInBody bool
	Consume  ConsumeState
	Block    uint8 // blockPhase

	// Petri-net execution model.
	Marking []int
	Seq     petri.SequenceState
	Acc     petri.Accumulator
	LastCV  []int
}

// APIState is the captured dynamic state of the SIM_API library.
type APIState struct {
	Threads []TThreadState // registry (creation) order
	Ready   []int          // thread IDs in scheduler dequeue order
	Current int            // RUNNING task's ID, -1 when the CPU idles
	IStack  []int          // nested handler thread IDs, bottom first

	DispatchLocked  int
	PendingDispatch bool
	Busy            sysc.Time

	CtxSwitches uint64
	Preemptions uint64
	Interrupts  uint64
	MaxIStack   int
}

// CompiledBody returns the state machine driving the thread: the compiled
// body, or the closure as a CompiledBody. The kernel snapshot layer uses it
// to reach a compiled machine's own resumption state (program counter,
// service phase).
func (t *TThread) CompiledBody() CompiledBody { return t.compiled }

// readyWalker is the optional scheduler capability snapshotting needs:
// visiting the ready population in dequeue order without mutating it.
// Both internal/sched implementations provide it.
type readyWalker interface{ Walk(fn func(*TThread)) }

// SaveState captures the library's dynamic state at a sysc quiescent
// point. It fails when the installed scheduler cannot enumerate its queue.
func (a *SimAPI) SaveState() (*APIState, error) {
	w, ok := a.sched.(readyWalker)
	if !ok {
		return nil, fmt.Errorf("core: scheduler %T does not support state capture (no Walk)", a.sched)
	}
	st := &APIState{
		Threads:         make([]TThreadState, len(a.order)),
		Current:         -1,
		DispatchLocked:  a.dispatchLocked,
		PendingDispatch: a.pendingDispatch,
		Busy:            a.busy,
		CtxSwitches:     a.ctxSwitches,
		Preemptions:     a.preemptions,
		Interrupts:      a.interrupts,
		MaxIStack:       a.maxIStack,
	}
	for i, t := range a.order {
		st.Threads[i] = TThreadState{
			ID:            t.ID(),
			Priority:      t.priority,
			BasePriority:  t.basePriority,
			State:         t.state,
			SuspCount:     t.suspCount,
			Terminated:    t.terminated,
			WaitObj:       t.waitObj,
			RelCode:       t.relCode,
			ActCount:      t.actCount,
			PendingRel:    t.pendingRel,
			HasPendingRel: t.hasPendingRel,
			CrInBody:      t.crInBody,
			Consume: ConsumeState{
				Phase:     uint8(t.cs.phase),
				Cost:      t.cs.cost,
				Ctx:       t.cs.ctx,
				Note:      t.cs.note,
				Total:     t.cs.total,
				Remaining: t.cs.remaining,
				Start:     t.cs.start,
			},
			Block:   uint8(t.bs),
			Marking: oneHot(t.place),
			Seq:     t.seq.SaveState(),
			Acc:     t.acc,
			LastCV:  append([]int(nil), t.lastCV...),
		}
	}
	w.Walk(func(t *TThread) { st.Ready = append(st.Ready, t.ID()) })
	if a.current != nil {
		st.Current = a.current.ID()
	}
	for _, h := range a.istack {
		st.IStack = append(st.IStack, h.ID())
	}
	return st, nil
}

// LoadState restores a state captured from this same construction: same
// thread registry, same scheduler. The whole state is checked before
// anything changes, so a refused restore leaves the library as it was. The
// ready queue is drained and rebuilt in captured dequeue order after every
// thread's priority is restored, so the scheduler's internal structure
// (bitmap, class lists) comes back identical.
func (a *SimAPI) LoadState(st *APIState) error {
	if err := a.checkState(st); err != nil {
		return err
	}
	// Drain whatever the scheduler currently holds; the intrusive links know
	// their own list, so stale priorities cannot corrupt the dequeue.
	for {
		t := a.sched.Peek()
		if t == nil {
			break
		}
		a.sched.Dequeue(t)
	}
	for i, t := range a.order {
		ts := &st.Threads[i]
		t.priority = ts.Priority
		t.basePriority = ts.BasePriority
		t.state = ts.State
		t.suspCount = ts.SuspCount
		t.terminated = ts.Terminated
		t.waitObj = ts.WaitObj
		t.relCode = ts.RelCode
		t.actCount = ts.ActCount
		t.pendingRel = ts.PendingRel
		t.hasPendingRel = ts.HasPendingRel
		t.crInBody = ts.CrInBody
		t.cs = consumeState{
			phase:     consumePhase(ts.Consume.Phase),
			cost:      ts.Consume.Cost,
			ctx:       ts.Consume.Ctx,
			note:      ts.Consume.Note,
			total:     ts.Consume.Total,
			remaining: ts.Consume.Remaining,
			start:     ts.Consume.Start,
		}
		t.bs = blockPhase(ts.Block)
		t.place, _ = markingPlace(ts.Marking)
		_ = t.seq.LoadState(ts.Seq) // checked above
		t.acc = ts.Acc
		t.lastCV = append(t.lastCV[:0], ts.LastCV...)
	}
	for _, id := range st.Ready {
		a.sched.Enqueue(a.table[id])
	}
	a.current = nil
	if st.Current >= 0 {
		a.current = a.table[st.Current]
	}
	a.istack = a.istack[:0]
	for _, id := range st.IStack {
		a.istack = append(a.istack, a.table[id])
	}
	a.dispatchLocked = st.DispatchLocked
	a.pendingDispatch = st.PendingDispatch
	a.busy = st.Busy
	a.ctxSwitches = st.CtxSwitches
	a.preemptions = st.Preemptions
	a.interrupts = st.Interrupts
	a.maxIStack = st.MaxIStack
	return nil
}

// checkState refuses a state LoadState cannot restore onto this registry:
// a different thread roster, a marking that is not one token on the Figure
// 2 places, a firing sequence of the wrong width, or a ready queue, current
// task or interrupt stack naming a thread that is not registered.
func (a *SimAPI) checkState(st *APIState) error {
	if len(a.order) != len(st.Threads) {
		return fmt.Errorf("core: state mismatch: captured %d threads, registry has %d",
			len(st.Threads), len(a.order))
	}
	for i, t := range a.order {
		ts := &st.Threads[i]
		if t.ID() != ts.ID {
			return fmt.Errorf("core: state mismatch: registry slot %d holds thread %d, capture has %d",
				i, t.ID(), ts.ID)
		}
		if _, ok := markingPlace(ts.Marking); !ok {
			return fmt.Errorf("core: thread %q: marking %v is not one token on the %d T-THREAD places",
				t.Name(), ts.Marking, len(tthreadPlaces))
		}
		if err := t.seq.CheckState(ts.Seq); err != nil {
			return fmt.Errorf("core: thread %q: %w", t.Name(), err)
		}
	}
	for _, id := range st.Ready {
		if a.Lookup(id) == nil {
			return fmt.Errorf("core: ready queue references unknown thread %d", id)
		}
	}
	if st.Current >= 0 && a.Lookup(st.Current) == nil {
		return fmt.Errorf("core: current references unknown thread %d", st.Current)
	}
	for _, id := range st.IStack {
		if a.Lookup(id) == nil {
			return fmt.Errorf("core: interrupt stack references unknown thread %d", id)
		}
	}
	return nil
}

// oneHot renders a token at place as the marking of the Figure 2 places
// that snapshots carry.
func oneHot(place int) []int {
	m := make([]int, len(tthreadPlaces))
	m[place] = 1
	return m
}

// markingPlace returns the place holding the token of a captured marking,
// which must be one-hot over the Figure 2 places.
func markingPlace(m []int) (int, bool) {
	place := slices.Index(m, 1)
	if place < 0 || place >= len(tthreadPlaces) || !slices.Equal(m, oneHot(place)) {
		return 0, false
	}
	return place, true
}
