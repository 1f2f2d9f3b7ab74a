package sysc

// Thread is an SC_THREAD-style process: a function running on its own
// goroutine and blocking simulated time through the Wait* methods. It is a
// Coro whose step resumes the body: the scheduler goroutine hands control to
// the body and sleeps until the body parks on the wait it armed on its
// coroutine, returns (the thread terminates) or panics. Exactly one of the
// two goroutines runs at a time, so the body sees the same single-threaded
// simulator as every other process.
type Thread struct {
	co *Coro
	fn func(*Thread)

	// The handoff channels are buffered (capacity 1) so neither side ever
	// blocks on send: at most one token is in flight per direction. park
	// carries nil when the body parks or returns, and the panic value when
	// it panics.
	resume chan struct{}
	park   chan any

	live   bool // the body goroutine has started and not yet ended
	killed bool // Shutdown is unwinding the body
}

// killedSentinel unwinds a thread goroutine during Simulator.Shutdown.
type killedSentinel struct{}

// Spawn creates a thread process. The thread becomes runnable immediately
// (at elaboration it runs when Start is first called; when spawned from a
// running process it runs within the current evaluation phase). Its
// goroutine starts on the thread's first step.
func (s *Simulator) Spawn(name string, fn func(*Thread)) *Thread {
	t := &Thread{fn: fn, resume: make(chan struct{}, 1), park: make(chan any, 1)}
	t.co = s.SpawnCoro(name, t.step)
	t.co.th = t
	return t
}

// step is the coroutine step of a thread: it resumes the body (starting its
// goroutine on the first step) and blocks until the body hands control
// back. A body panic is re-raised here so runCoro records it; the coroutine
// is marked done first, so Shutdown never waits on a dead body.
func (t *Thread) step(c *Coro) {
	if t.live {
		t.resume <- struct{}{}
	} else {
		t.live = true
		go t.main()
	}
	if r := <-t.park; r != nil {
		t.live = false
		c.done = true
		panic(r)
	}
	if !c.armed {
		t.live = false // the body returned
	}
}

func (t *Thread) main() {
	defer func() {
		r := recover()
		if t.killed {
			r = nil // Shutdown drops whatever the unwinding body raised
		}
		t.park <- r
	}()
	t.fn(t)
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.co.name }

// Sim returns the owning simulator.
func (t *Thread) Sim() *Simulator { return t.co.sim }

// Now returns the current simulation time.
func (t *Thread) Now() Time { return t.co.sim.now }

// Done reports whether the thread body has returned.
func (t *Thread) Done() bool { return t.co.done }

// Coro returns the coroutine that runs the thread. A body arms a wait on it
// (the resumable kernel primitives do) and then calls Park.
func (t *Thread) Coro() *Coro { return t.co }

// Park suspends the body until the wait armed on its coroutine fires. It
// panics with killedSentinel when the simulator is shutting down.
func (t *Thread) Park() {
	t.park <- nil
	<-t.resume
	if t.killed {
		panic(killedSentinel{})
	}
}

// Wait suspends the thread for duration d of simulated time.
func (t *Thread) Wait(d Time) {
	t.co.Wait(d)
	t.Park()
}

// WaitEvent suspends the thread until one of the given events triggers and
// returns the event that fired. It panics if called with no events (the
// thread could never resume).
func (t *Thread) WaitEvent(evs ...*Event) *Event {
	t.co.WaitEvent(evs...)
	t.Park()
	return t.co.trigEv
}

// WaitTimeout suspends the thread until one of evs triggers or d elapses.
// It returns the triggering event and false, or nil and true on timeout.
func (t *Thread) WaitTimeout(d Time, evs ...*Event) (fired *Event, timedOut bool) {
	t.co.WaitTimeout(d, evs...)
	t.Park()
	if t.co.TimedOut() {
		return nil, true
	}
	return t.co.trigEv, false
}

// YieldDelta suspends the thread for one delta cycle: it resumes at the same
// simulation time, after all currently runnable processes have run.
func (t *Thread) YieldDelta() {
	t.co.YieldDelta()
	t.Park()
}

// Method is an SC_METHOD-style process: a function invoked (never blocking)
// each time one of the events in its static sensitivity list triggers.
type Method struct {
	sim    *Simulator
	id     int
	name   string
	fn     func()
	queued bool
}

// SpawnMethod creates a method process statically sensitive to the given
// events. Unlike threads, methods do not run at elaboration; they run only
// when triggered.
func (s *Simulator) SpawnMethod(name string, fn func(), sensitivity ...*Event) *Method {
	s.nextID++
	m := &Method{sim: s, id: s.nextID, name: name, fn: fn}
	for _, e := range sensitivity {
		e.addStatic(m)
	}
	return m
}

// Name returns the method's diagnostic name.
func (m *Method) Name() string { return m.name }

// procRef is one entry in the runnable queue: exactly one of m, c is set.
type procRef struct {
	m *Method
	c *Coro
}
