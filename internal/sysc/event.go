package sysc

// Event is a synchronization primitive with SystemC sc_event semantics.
// Processes wait on events dynamically (Thread.Wait*, Coro.Wait*) or are
// statically sensitive to them (Method processes). An event holds at most
// one pending notification; re-notification follows the SystemC override
// rules: an immediate notification discards any pending one, a delta
// notification overrides a timed one, and an earlier timed notification
// overrides a later one.
//
// Events are not persistent: notifying an event nobody is waiting on has no
// effect on later waiters.
type Event struct {
	sim  *Simulator
	name string
	idx  int32 // position in the simulator's creation-order registry

	// cwaiters are the coroutines (threads included) dynamically waiting on
	// this event, in arm order.
	cwaiters []*Coro
	// static are processes statically sensitive to this event.
	static []*Method

	// pending notification state. A timed notification's time lives in
	// its heap entry.
	pendingKind notifyKind
	heapIdx     int32 // timed-heap position, valid when pendingKind == notifyTimed
}

type notifyKind uint8

const (
	notifyNone notifyKind = iota
	notifyDelta
	notifyTimed
)

// NewEvent creates a named event bound to the simulator.
func (s *Simulator) NewEvent(name string) *Event {
	e := &Event{sim: s, name: name, idx: int32(len(s.events))}
	s.events = append(s.events, e)
	return e
}

// Name returns the event's diagnostic name.
func (e *Event) Name() string { return e.name }

// Notify triggers the event immediately, in the current evaluation phase:
// all processes waiting on it become runnable right away. Any pending
// delayed notification is cancelled first.
func (e *Event) Notify() {
	e.Cancel()
	e.sim.trigger(e)
}

// NotifyDelta schedules the event to trigger in the next delta cycle at the
// current simulation time. It overrides a pending timed notification and is
// a no-op if a delta notification is already pending.
func (e *Event) NotifyDelta() {
	switch e.pendingKind {
	case notifyDelta:
		return
	case notifyTimed:
		e.Cancel()
	}
	e.pendingKind = notifyDelta
	e.sim.deltaQ = append(e.sim.deltaQ, e)
}

// NotifyAfter schedules the event to trigger d after the current simulation
// time. A pending delta notification wins over any timed one; among timed
// notifications the earlier wins. Negative d is treated as zero (a timed
// notification at the current time, still later than any delta).
func (e *Event) NotifyAfter(d Time) {
	if d < 0 {
		d = 0
	}
	when := e.sim.now + d
	switch e.pendingKind {
	case notifyDelta:
		return
	case notifyTimed:
		if e.sim.timed.when(e) <= when {
			return
		}
		e.Cancel()
	}
	e.pendingKind = notifyTimed
	q := &e.sim.timed
	q.seq++
	q.push(e, when, q.seq)
}

// Cancel removes any pending delta or timed notification.
func (e *Event) Cancel() {
	switch e.pendingKind {
	case notifyDelta:
		// Lazy removal: the delta queue checks pendingKind on fire.
	case notifyTimed:
		e.sim.timed.remove(e)
	}
	e.pendingKind = notifyNone
}

// Pending reports whether a delta or timed notification is outstanding.
func (e *Event) Pending() bool { return e.pendingKind != notifyNone }

// When returns the time of the pending timed notification; ok is false
// when none is pending.
func (e *Event) When() (t Time, ok bool) {
	if e.pendingKind != notifyTimed {
		return 0, false
	}
	return e.sim.timed.when(e), true
}

// addStatic registers a method process as statically sensitive.
func (e *Event) addStatic(m *Method) { e.static = append(e.static, m) }

// removeCoroWaiter detaches a coroutine from the waiter list (when it is
// resumed by a different event of its wait set). Swap-delete: the relative
// order of the remaining waiters is not preserved, which is fine — wake
// order is fixed per run (the list mutates identically on every run), so
// the simulation stays deterministic.
func (e *Event) removeCoroWaiter(c *Coro) {
	for i, w := range e.cwaiters {
		if w == c {
			last := len(e.cwaiters) - 1
			e.cwaiters[i] = e.cwaiters[last]
			e.cwaiters[last] = nil
			e.cwaiters = e.cwaiters[:last]
			return
		}
	}
}
