package sysc

import "fmt"

// This file implements quiescent-point state capture and in-place restore
// for the discrete-event core — the bottom layer of the kernel snapshot
// stack (internal/snapshot).
//
// The contract: capture is legal only *between* Start calls, when the
// model is stable — nothing runnable, no pending update or delta. At that
// instant the whole dynamic state of the simulator is plain data: the
// clock, the delta counter, the timed heap's (when, seq, event)
// triples, each event's wait list, and each coroutine's armed wait set.
//
// A Thread is a coroutine whose resumption state also includes a parked
// goroutine stack, which cannot be serialized. Threads are handled by
// *pinning*: LoadState verifies that every coroutine carrying a thread is
// still parked on exactly the wait set it held at the capture (or still
// done) — meaning its goroutine has not moved since, so its stack needs no
// rewinding at all. A thread that advanced between capture and restore
// fails the check and the load is refused; callers fall back to a cold
// run. Snapshottable configurations run their T-THREADs as compiled
// bodies, so their only live threads are pinned ones (the INIT boot task
// parked forever at the top of its cycle).
//
// LoadState writes a captured state back into the *same* construction.
// Pointer identities (events, coroutines, closures) are stable across one
// construction, so wait lists rebuild from registry indices onto the
// original objects and the step closures resume exactly where the capture
// left them. Processes created *after* the capture (a warm fork may spawn
// per-variant fault threads) are neutralized: notifications cancelled,
// wait-list membership dropped, so they can never fire into the restored
// timeline.

// ErrThreadMoved reports a restore attempt after a thread advanced past
// its captured park point. Callers treat it as "this configuration is not
// warm-restorable", not as a fault.
type ErrThreadMoved struct{ Name string }

func (e *ErrThreadMoved) Error() string {
	return fmt.Sprintf("sysc: thread %q moved since the capture; goroutine stacks cannot be rewound", e.Name)
}

// TimedItemState is one entry of the timed notification heap. Seq is
// the original push sequence number: restoring with the exact sequence
// preserves same-instant firing order bit-for-bit.
type TimedItemState struct {
	When Time
	Seq  uint64
	Ev   int32 // event registry index
}

// EventState is the per-event dynamic state. Pending notifications are
// not stored here — the heap list is their single source of truth — so an
// event's own state is its wait list, in wake (arm) order.
type EventState struct {
	CWaiters []int32 // coro registry indices
}

// CoroState is the resumption state of one coroutine between steps.
type CoroState struct {
	Waiting []int32 // armed wait set, event registry indices in arm order
	TrigEv  int32   // event that resumed the last step, -1 if none
	Armed   bool
	Done    bool
}

// SimState is the complete captured dynamic state of a Simulator at a
// quiescent point. All fields are plain data; the snapshot package owns
// the binary encoding.
type SimState struct {
	Now        Time
	DeltaCount uint64
	HeapSeq    uint64           // timed queue's next-seq counter
	Heap       []TimedItemState // entries sorted by (When, Seq)
	Events     []EventState     // registry order
	Coros      []CoroState      // registry order
}

// SaveState captures the simulator's dynamic state. It must be called
// between Start calls; it fails when the model is not quiescent (which
// cannot happen between Start calls of a healthy run).
func (s *Simulator) SaveState() (*SimState, error) {
	if s.shutdown {
		return nil, fmt.Errorf("sysc: cannot capture state after shutdown")
	}
	if s.err != nil {
		return nil, fmt.Errorf("sysc: cannot capture state of a failed simulation: %w", s.err)
	}
	if s.runHead < len(s.runnable) || len(s.updates) > 0 || len(s.deltaQ) > 0 {
		return nil, fmt.Errorf("sysc: capture requires a quiescent model (runnable=%d updates=%d delta=%d)",
			len(s.runnable)-s.runHead, len(s.updates), len(s.deltaQ))
	}
	st := &SimState{
		Now:        s.now,
		DeltaCount: s.deltaCount,
		HeapSeq:    s.timed.seq,
		Events:     make([]EventState, len(s.events)),
		Coros:      make([]CoroState, len(s.coros)),
	}
	for _, it := range s.timed.items {
		st.Heap = append(st.Heap, TimedItemState{When: it.when, Seq: it.seq, Ev: it.ev.idx})
	}
	sortHeapState(st.Heap)
	for i, e := range s.events {
		if e.pendingKind == notifyDelta {
			return nil, fmt.Errorf("sysc: event %q has a pending delta at a quiescent point", e.name)
		}
		if n := len(e.cwaiters); n > 0 {
			ws := make([]int32, n)
			for j, c := range e.cwaiters {
				ws[j] = c.idx
			}
			st.Events[i].CWaiters = ws
		}
	}
	for i, c := range s.coros {
		cs := CoroState{TrigEv: -1, Armed: c.armed, Done: c.done}
		if c.trigEv != nil {
			cs.TrigEv = c.trigEv.idx
		}
		if n := len(c.waiting); n > 0 {
			ws := make([]int32, n)
			for j, e := range c.waiting {
				ws[j] = e.idx
			}
			cs.Waiting = ws
		}
		st.Coros[i] = cs
	}
	return st, nil
}

// LoadState restores a state captured from this same construction. The
// registries may have grown since the capture (processes spawned after a
// fork); the extras are neutralized. Shrunken registries mean the state
// belongs to a different construction and the load is refused, as is any
// thread that moved past its captured park point.
func (s *Simulator) LoadState(st *SimState) error {
	if s.shutdown {
		return fmt.Errorf("sysc: cannot restore state after shutdown")
	}
	if s.err != nil {
		return fmt.Errorf("sysc: cannot restore state into a failed simulation: %w", s.err)
	}
	if len(s.events) < len(st.Events) || len(s.coros) < len(st.Coros) {
		return fmt.Errorf("sysc: state mismatch: captured %d events/%d coros, simulator has %d/%d",
			len(st.Events), len(st.Coros), len(s.events), len(s.coros))
	}
	// Verify every captured thread is exactly where the capture left it
	// before mutating anything: done threads must still be done, live ones
	// must still hold the identical armed wait set.
	for i, cs := range st.Coros {
		c := s.coros[i]
		if c.th != nil && (c.done != cs.Done || !sameWaitSet(c.waiting, cs.Waiting)) {
			return &ErrThreadMoved{Name: c.name}
		}
	}
	s.now = st.Now
	s.deltaCount = st.DeltaCount
	s.stopRequested = false
	s.cancelled = false
	s.runnable = s.runnable[:0]
	s.runHead = 0
	s.woken = 0
	s.updates = s.updates[:0]
	s.deltaQ = s.deltaQ[:0]

	// Clear every event's dynamic state, then rebuild from the capture.
	for _, e := range s.events {
		e.pendingKind = notifyNone
		clearWaiters(e)
	}
	clear(s.timed.items)
	s.timed.items = s.timed.items[:0]
	s.timed.seq = st.HeapSeq
	for i := range st.Heap {
		h := &st.Heap[i]
		if int(h.Ev) >= len(s.events) {
			return fmt.Errorf("sysc: heap entry references unknown event %d", h.Ev)
		}
		ev := s.events[h.Ev]
		if ev.pendingKind == notifyTimed {
			return fmt.Errorf("sysc: event %q has two heap entries", ev.name)
		}
		ev.pendingKind = notifyTimed
		s.timed.push(ev, h.When, h.Seq)
	}
	for i := range st.Events {
		e := s.events[i]
		for _, ci := range st.Events[i].CWaiters {
			if int(ci) >= len(s.coros) {
				return fmt.Errorf("sysc: event %q wait list references unknown coro %d", e.name, ci)
			}
			e.cwaiters = append(e.cwaiters, s.coros[ci])
		}
	}
	for i, c := range s.coros {
		c.queued = false
		if i >= len(st.Coros) {
			// Spawned after the capture: park it forever (a started
			// thread's goroutine stays parked until Shutdown unwinds it).
			c.waiting = c.waiting[:0]
			c.trigEv = nil
			c.armed = false
			c.done = true
			continue
		}
		cs := &st.Coros[i]
		c.armed = cs.Armed
		c.done = cs.Done
		c.trigEv = nil
		if cs.TrigEv >= 0 {
			c.trigEv = s.events[cs.TrigEv]
		}
		c.waiting = c.waiting[:0]
		for _, ei := range cs.Waiting {
			c.waiting = append(c.waiting, s.events[ei])
		}
	}
	return nil
}

// sameWaitSet reports whether a live wait set matches a captured one.
func sameWaitSet(evs []*Event, idx []int32) bool {
	if len(evs) != len(idx) {
		return false
	}
	for j, e := range evs {
		if e.idx != idx[j] {
			return false
		}
	}
	return true
}

// clearWaiters empties an event's dynamic wait list without freeing the
// backing array.
func clearWaiters(e *Event) {
	for i := range e.cwaiters {
		e.cwaiters[i] = nil
	}
	e.cwaiters = e.cwaiters[:0]
}

// sortHeapState orders heap entries by (When, Seq) — insertion sort; the
// heaps at quiescent points are small and nearly ordered.
func sortHeapState(h []TimedItemState) {
	for i := 1; i < len(h); i++ {
		for j := i; j > 0; j-- {
			a, b := &h[j-1], &h[j]
			if a.When < b.When || (a.When == b.When && a.Seq < b.Seq) {
				break
			}
			h[j-1], h[j] = h[j], h[j-1]
		}
	}
}
