package sysc

import "fmt"

// Coro is a continuation-style process: a resumable step function driven
// inline by the scheduler loop. A step *returns* having armed its next
// wait, and the scheduler simply calls it again when that wait fires — the
// steady-state data path runs on a single goroutine with zero channel
// operations per context switch. Coros are the only suspendable process
// kind: a Thread is a Coro whose step resumes a goroutine body.
//
// The yield-point contract: a step must arm at most one wait (WaitEvent /
// WaitTimeout / Wait / YieldDelta) and then return. Returning without
// arming terminates the coroutine. State that must survive across steps
// lives in variables the step closure captures (or in an explicit state
// machine the closure drives); the Fired/TimedOut accessors report what
// resumed the current step.
type Coro struct {
	sim  *Simulator
	id   int
	idx  int32 // position in the simulator's creation-order registry
	name string
	step func(*Coro)
	th   *Thread // the thread this coroutine runs, nil for a plain step function

	queued  bool     // already on the runnable queue
	waiting []*Event // events of the armed wait set
	trigEv  *Event   // event that fired the current resumption
	timer   *Event   // per-coroutine timer for Wait/WaitTimeout

	armed bool // a wait was armed during the current step
	done  bool
}

// SpawnCoro creates a coroutine process. It becomes runnable immediately:
// at elaboration it runs when Start is first called, and when spawned from
// a running process it runs within the current evaluation phase. It owns
// no goroutine.
func (s *Simulator) SpawnCoro(name string, step func(*Coro)) *Coro {
	s.nextID++
	c := &Coro{sim: s, id: s.nextID, name: name, step: step, idx: int32(len(s.coros))}
	s.coros = append(s.coros, c)
	c.timer = s.NewEvent(name + ".timer")
	s.makeRunnable(procRef{c: c})
	return c
}

// Name returns the coroutine's diagnostic name.
func (c *Coro) Name() string { return c.name }

// Index returns the coroutine's position in its simulator's creation order:
// dense from 0, so callers can keep per-coroutine data in a slice.
func (c *Coro) Index() int { return int(c.idx) }

// Sim returns the owning simulator.
func (c *Coro) Sim() *Simulator { return c.sim }

// Now returns the current simulation time.
func (c *Coro) Now() Time { return c.sim.now }

// Done reports whether the coroutine has terminated (a step returned
// without arming a wait).
func (c *Coro) Done() bool { return c.done }

// Fired returns the event that resumed the current step (nil on the first
// step and after a Wait timeout).
func (c *Coro) Fired() *Event { return c.trigEv }

// WaitEvent arms the coroutine to resume when one of the given events
// triggers, then the step must return. The next step's Fired reports which
// event it was. Arming twice in one step panics: a coroutine can be parked
// on only one wait set at a time.
func (c *Coro) WaitEvent(evs ...*Event) {
	if len(evs) == 0 {
		panic(fmt.Sprintf("sysc: coroutine %q waits on empty event set", c.name))
	}
	c.arm(nil, evs)
}

// arm parks c on first (when non-nil) followed by evs, in that order: the
// wait set and each event's waiter list grow one element at a time, which
// the compiler turns into plain stores rather than a runtime bulk copy.
func (c *Coro) arm(first *Event, evs []*Event) {
	if c.armed {
		panic(fmt.Sprintf("sysc: coroutine %q armed two waits in one step", c.name))
	}
	w := c.waiting[:0]
	if first != nil {
		w = append(w, first)
		first.cwaiters = append(first.cwaiters, c)
	}
	for _, e := range evs {
		w = append(w, e)
		e.cwaiters = append(e.cwaiters, c)
	}
	c.waiting = w
	c.trigEv = nil
	c.armed = true
}

// Wait arms the coroutine to resume after duration d of simulated time.
func (c *Coro) Wait(d Time) {
	c.timer.NotifyAfter(d)
	c.arm(c.timer, nil)
}

// WaitTimeout arms the coroutine to resume when one of evs triggers or d
// elapses. The resumed step calls TimedOut to resolve which it was. The
// wait set is the coroutine's timer followed by evs, armed directly into
// the coroutine's reusable wait-set buffer, so the call does not allocate.
func (c *Coro) WaitTimeout(d Time, evs ...*Event) {
	c.timer.NotifyAfter(d)
	c.arm(c.timer, evs)
}

// TimedOut resolves the WaitTimeout that parked the previous step: it
// reports whether the timeout fired, and cancels the pending timer
// notification when another event of the set fired first.
func (c *Coro) TimedOut() bool {
	if c.trigEv == c.timer {
		return true
	}
	c.timer.Cancel()
	return false
}

// Elapse lets d of simulated time pass inside the current step when
// nothing else can run before it ends, and reports whether it did. It is
// the inline form of WaitTimeout(d, ...) followed by a timeout: on success
// the step continues at now+d with TimedOut reporting true; on false
// nothing changed and the step arms its wait as usual.
//
// It succeeds only when c is the coroutine stepping right now and has not
// armed a wait in this step, d > 0, the run is not stopping, no other
// process is runnable, no update or delta is pending, c's timer is idle,
// now+d is within the Start horizon and every pending timed notification
// is strictly later than now+d (an equal time falls back so seq order
// decides as before). The scheduler would then
// reach a quiescent point, advance the clock to c's timer and resume c;
// Elapse does the same inline: it polls the StartContext cancellation,
// fires Observer.Quiescent with CurrentCoro cleared, draws the heap seq the
// timer push would have drawn (so HeapSeq and every later entry's seq
// match), advances the clock, counts c as woken by the timed phase
// (TimedWake) and fires Observer.TimeAdvance. With the
// observer slot empty (the event bus fills it only while someone listens
// for quiescent points or clock advances) both callbacks cost one nil test.
// An observer that panics here aborts the run in c's name, as a panic in
// c's own step would.
func (c *Coro) Elapse(d Time) bool {
	s := c.sim
	if s.curCoro != c || d <= 0 || c.armed || s.stopRequested ||
		s.runHead != len(s.runnable) || len(s.deltaQ) > 0 || len(s.updates) > 0 ||
		c.timer.pendingKind != notifyNone || d > s.until-s.now {
		return false
	}
	if next, ok := s.timed.nextTime(); ok && next <= s.now+d {
		return false
	}
	if s.cancel != nil && s.cancel.Load() {
		return false
	}
	if s.observer != nil {
		s.curCoro = nil
		s.observer.Quiescent(s.now)
		s.curCoro = c
	}
	s.timed.seq++
	s.woken = s.runHead
	prev := s.now
	s.now += d
	if s.observer != nil {
		s.observer.TimeAdvance(prev, s.now)
	}
	c.trigEv = c.timer
	return true
}

// YieldDelta arms the coroutine to resume in the next delta cycle, after
// all currently runnable processes have run.
func (c *Coro) YieldDelta() {
	c.timer.NotifyDelta()
	c.arm(c.timer, nil)
}

// runCoro executes one step of a coroutine inline on the scheduler
// goroutine. CurrentCoro names the stepping coroutine for the duration (and
// CurrentThread its thread). It sets up no recover of its own: a panicking
// step unwinds to the one guard in Start, which turns it into a simulation
// abort naming the coroutine, leaves it not done and clears CurrentCoro.
func (s *Simulator) runCoro(c *Coro) {
	prev := s.curCoro
	s.curCoro = c
	c.armed = false
	c.step(c)
	if !c.armed {
		c.done = true
	}
	s.curCoro = prev
}
