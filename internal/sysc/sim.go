package sysc

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Simulator owns a complete discrete-event simulation: the time wheel, the
// runnable queue, delta and timed notification queues, and all processes.
// Build a model by spawning processes and creating events/signals, then call
// Start. Start may be called repeatedly with increasing horizons to step the
// simulation (the paper's "step mode"). Call Shutdown when finished to
// reclaim thread goroutines.
type Simulator struct {
	now        Time
	deltaCount uint64

	runnable []procRef
	runHead  int // index of the next runnable entry (index-based drain)
	deltaQ   []*Event
	timed    timedQueue
	updates  []updater

	// woken counts the runnable entries the timed phase queued when it last
	// advanced the clock (Coro.Elapse counts its coroutine the same way);
	// it is zero once that evaluation phase has drained (TimedWake).
	woken int

	events  []*Event // every event ever created, in creation order (state.go)
	coros   []*Coro  // every coroutine ever spawned, in creation order
	curCoro *Coro    // coroutine currently stepping (nil outside a step)
	nextID  int

	// stepping is the process the evaluation phase last handed control to.
	// It is cleared when the phase ends, so while it is set any panic comes
	// from that process: Start's one recover names it from here, even when
	// the panic is raised by an observer inside Coro.Elapse (which clears
	// curCoro for that callback).
	stepping procRef

	// observer, when set, watches scheduler milestones: quiescent points
	// (no runnable process, no pending update, no pending delta at the
	// current time, immediately before the timed phase advances the clock)
	// and timed-phase clock advances.
	observer Observer

	// cancel, when non-nil, is polled at every quiescent point (the model
	// is stable there): once set, the run stops before the clock advances
	// again and cancelled records that the stop came from the context, not
	// the model (StartContext). It is a flag rather than the context's
	// channel so the poll is a plain load, not a select.
	cancel    *atomic.Bool
	cancelled bool

	// until is the horizon of the Start in progress: Coro.Elapse never
	// advances the clock past it.
	until Time

	stopRequested bool
	shutdown      bool
	err           error
}

// updater is anything with update semantics in the update phase (signals).
type updater interface{ update() }

// NewSimulator returns an empty simulation ready for model construction.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// CurrentThread returns the thread process executing right now (nil when
// called from outside the evaluation of a thread, e.g. from a Method).
func (s *Simulator) CurrentThread() *Thread {
	if c := s.curCoro; c != nil {
		return c.th
	}
	return nil
}

// CurrentCoro returns the coroutine process stepping right now (nil when
// called from outside a coroutine step).
func (s *Simulator) CurrentCoro() *Coro { return s.curCoro }

// DeltaCount returns the number of delta cycles executed so far.
func (s *Simulator) DeltaCount() uint64 { return s.deltaCount }

// TimedWake reports whether the running process is one the timed phase
// woke when it advanced the clock to now (or a coroutine Coro.Elapse moved
// to now), rather than one a notification made at now has made runnable
// since.
func (s *Simulator) TimedWake() bool { return s.runHead > 0 && s.runHead <= s.woken }

// Observer watches the simulator's phase milestones. Quiescent fires at
// every quiescent point: all activity at the current time has drained and
// the timed phase is about to advance the clock (or the run is about to end
// at its horizon, including right after the clock moved there with no
// event due). At that instant the model state is stable, which makes it
// the natural place for live invariant checking. TimeAdvance fires after the
// timed phase moves the clock from `from` to `to`. Observers must only
// observe — they must not spawn processes or notify events.
//
// A quiescent point may also be reached inside a coroutine step, when
// Coro.Elapse advances the clock without parking: both callbacks then fire
// exactly as the scheduler would have fired them (CurrentCoro reads nil
// during Quiescent), so an observer sees the same stream either way.
type Observer interface {
	Quiescent(now Time)
	TimeAdvance(from, to Time)
}

// SetObserver installs the simulator's single observer slot (nil removes
// it). Multi-consumer fan-out belongs to the event bus layered on top,
// which fills the slot only while some subscriber wants quiescent points or
// clock advances: an empty slot costs the scheduler one nil test per
// milestone instead of two interface calls.
func (s *Simulator) SetObserver(o Observer) { s.observer = o }

// Observer returns the observer installed by SetObserver (nil when the
// slot is empty).
func (s *Simulator) Observer() Observer { return s.observer }

// Stop requests that the simulation stop at the end of the current delta
// cycle (sc_stop semantics).
func (s *Simulator) Stop() { s.stopRequested = true }

// Stopped reports whether Stop has been requested.
func (s *Simulator) Stopped() bool { return s.stopRequested }

// Err returns the first process panic converted to an error, if any.
func (s *Simulator) Err() error { return s.err }

// makeRunnable appends a process to the runnable queue exactly once.
func (s *Simulator) makeRunnable(p procRef) {
	switch {
	case p.m != nil:
		if p.m.queued {
			return
		}
		p.m.queued = true
	case p.c != nil:
		if p.c.queued || p.c.done {
			return
		}
		p.c.queued = true
	}
	s.runnable = append(s.runnable, p)
}

// requestUpdate queues a primitive-channel update for the update phase.
func (s *Simulator) requestUpdate(u updater) {
	s.updates = append(s.updates, u)
}

// trigger fires an event immediately: every dynamically waiting coroutine
// (threads included), in arm order, and then every statically sensitive
// method becomes runnable in the current evaluation phase.
func (s *Simulator) trigger(e *Event) {
	if len(e.cwaiters) > 0 {
		// Keep the backing array for the next wait generation: nothing can
		// re-append to e.cwaiters while this loop runs (woken coroutines
		// only become runnable here; they step later in the phase).
		cs := e.cwaiters
		e.cwaiters = cs[:0]
		for _, c := range cs {
			// Detach the coroutine from the other events of its wait set.
			for _, other := range c.waiting {
				if other != e {
					other.removeCoroWaiter(c)
				}
			}
			c.waiting = c.waiting[:0]
			c.trigEv = e
			s.makeRunnable(procRef{c: c})
		}
	}
	for _, m := range e.static {
		s.makeRunnable(procRef{m: m})
	}
}

// Start runs the simulation until no activity remains, Stop is called, a
// process panics, or simulated time would pass `until`. When the model goes
// quiet before the horizon, time advances to `until` so that successive
// Start calls step the clock deterministically. It returns the first process
// panic as an error; a panic outside any process (an observer at a
// quiescent point, a signal update) propagates.
func (s *Simulator) Start(until Time) (err error) {
	if s.shutdown {
		return fmt.Errorf("sysc: simulator already shut down")
	}
	s.until = until
	// The one panic guard of the run: methods and coroutine steps set up no
	// recover of their own, so a step costs no deferred call.
	defer func() {
		p := s.stepping
		if p == (procRef{}) {
			return // no process was stepping: let any panic propagate
		}
		s.stepping = procRef{}
		r := recover()
		if r == nil {
			return
		}
		s.curCoro = nil
		if s.err == nil {
			if p.m != nil {
				s.err = fmt.Errorf("sysc: method %q panicked: %v", p.m.name, r)
			} else {
				s.err = fmt.Errorf("sysc: coroutine %q panicked: %v", p.c.name, r)
			}
		}
		s.stopRequested = true
		if s.runHead == len(s.runnable) {
			s.runnable = s.runnable[:0]
			s.runHead = 0
			s.woken = 0
		}
		err = s.err
	}()
	for !s.stopRequested {
		// Evaluation phase: run until no process is runnable. Methods and
		// coroutines execute inline on the scheduler goroutine (a thread's
		// step hands control to its body and waits for it to park). The
		// queue drains by index so the head pop neither copies nor pins the
		// whole backing array; once empty it resets to reuse the capacity.
		for s.runHead < len(s.runnable) && !s.stopRequested {
			p := s.runnable[s.runHead]
			s.runHead++
			if m := p.m; m != nil {
				m.queued = false
				s.stepping = p
				m.fn()
				continue
			}
			c := p.c
			c.queued = false
			if c.done {
				continue
			}
			s.stepping = p
			s.runCoro(c)
		}
		s.stepping = procRef{}
		if s.runHead == len(s.runnable) {
			s.runnable = s.runnable[:0]
			s.runHead = 0
			s.woken = 0
		}
		if s.stopRequested {
			break
		}

		// Update phase: primitive channel updates (may schedule deltas).
		if len(s.updates) > 0 {
			ups := s.updates
			s.updates = ups[:0]
			for _, u := range ups {
				u.update()
			}
		}

		// Delta notification phase. The slice is reused: trigger only queues
		// processes, so nothing appends to deltaQ while dq is iterated.
		if len(s.deltaQ) > 0 {
			s.deltaCount++
			dq := s.deltaQ
			s.deltaQ = dq[:0]
			fired := false
			for _, e := range dq {
				if e.pendingKind != notifyDelta {
					continue // cancelled or overridden
				}
				e.pendingKind = notifyNone
				s.trigger(e)
				fired = true
			}
			if fired || s.runHead < len(s.runnable) || len(s.updates) > 0 {
				continue
			}
		}
		if s.runHead < len(s.runnable) || len(s.updates) > 0 {
			continue
		}

		// Timed notification phase: advance to the next event time. The
		// model is quiescent at s.now here — nothing runnable, no updates,
		// no deltas — so observers get a stable snapshot.
		if s.cancel != nil && s.cancel.Load() {
			s.cancelled = true
			return s.err
		}
		if s.observer != nil {
			s.observer.Quiescent(s.now)
		}
		next, ok := s.timed.nextTime()
		if !ok || next > until {
			// Step mode: advance the clock to the horizon so successive
			// Start calls tick deterministically — except for an unbounded
			// Run, which stops at the last event. The model is quiescent
			// at the horizon too, as if an event had fired there.
			if until > s.now && until != MaxTime {
				prev := s.now
				s.now = until
				if s.observer != nil {
					s.observer.TimeAdvance(prev, s.now)
					s.observer.Quiescent(s.now)
				}
			}
			break
		}
		prev := s.now
		s.now = next
		if s.observer != nil {
			s.observer.TimeAdvance(prev, s.now)
		}
		for len(s.timed.items) > 0 && s.timed.items[0].when == s.now {
			ev := s.timed.pop()
			ev.pendingKind = notifyNone
			s.trigger(ev)
		}
		s.woken = len(s.runnable)
	}
	return s.err
}

// Run is Start with an unbounded horizon: it returns when the model goes
// quiet or Stop is called.
func (s *Simulator) Run() error { return s.Start(MaxTime) }

// StartContext runs like Start but observes ctx at every quiescent point:
// once ctx is done the run stops at the next stable instant — before the
// clock advances again — and the context's cause is returned. Model state
// stays consistent, so the caller can still harvest partial results (the
// server's per-job deadline and cancellation path, and the CLIs' -timeout
// flags). A simulation that completes its horizon first returns exactly
// what Start would, even if ctx expires afterwards.
func (s *Simulator) StartContext(ctx context.Context, until Time) error {
	if ctx.Done() == nil {
		return s.Start(until)
	}
	// A context that is already done sets the flag here: AfterFunc would
	// set it from a new goroutine, racing the first poll.
	done := new(atomic.Bool)
	if ctx.Err() != nil {
		done.Store(true)
	} else {
		stop := context.AfterFunc(ctx, func() { done.Store(true) })
		defer stop()
	}
	s.cancel = done
	s.cancelled = false
	defer func() { s.cancel = nil }()
	if err := s.Start(until); err != nil {
		return err
	}
	if s.cancelled {
		return context.Cause(ctx)
	}
	return nil
}

// Shutdown terminates every thread and unwinds the goroutine of each one
// that started and is still live. The simulator cannot be restarted
// afterwards. It is safe to call multiple times.
func (s *Simulator) Shutdown() {
	if s.shutdown {
		return
	}
	s.shutdown = true
	s.stopRequested = true
	for _, c := range s.coros {
		t := c.th
		if t == nil {
			continue
		}
		c.done = true
		if t.live {
			t.killed = true
			t.resume <- struct{}{}
			<-t.park
		}
	}
}
