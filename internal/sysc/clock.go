package sysc

// Clock is an sc_clock-style periodic boolean signal. The paper's BFM uses a
// real-time clock with a 1 ms default resolution to drive the kernel's
// central module; a Clock with period 1 ms provides exactly that tick.
//
// The generator is a method process re-arming its own timed event, not a
// thread: a clock edge costs zero goroutine handoffs, which matters because
// clocks and tickers dominate the event population of RTOS-level models.
type Clock struct {
	*BoolSignal
	period Time
	gen    *Event
	high   bool
}

// NewClock creates a free-running clock with the given period (first rising
// edge at one period after time zero; 50% duty cycle).
func NewClock(s *Simulator, name string, period Time) *Clock {
	if period <= 0 {
		panic("sysc: clock period must be positive")
	}
	c := &Clock{BoolSignal: NewBoolSignal(s, name, false), period: period}
	half := period / 2
	if half == 0 {
		half = 1
	}
	c.gen = s.NewEvent(name + ".gen")
	s.SpawnMethod(name+".gen", func() {
		c.high = !c.high
		c.Write(c.high)
		if c.high {
			c.gen.NotifyAfter(half)
		} else {
			c.gen.NotifyAfter(period - half)
		}
	}, c.gen)
	c.gen.NotifyAfter(period - half)
	return c
}

// Period returns the clock period.
func (c *Clock) Period() Time { return c.period }

// Ticker is a lighter-weight periodic event source (no signal semantics):
// its event fires every period. Kernel tick dispatch in the central module
// is naturally modelled as a method sensitive to a Ticker. Like Clock, the
// generator is a self-re-arming method process with no goroutine of its own.
type Ticker struct {
	ev     *Event
	gen    *Event
	period Time
}

// NewTicker creates a periodic event firing first at `period` and then
// every `period` thereafter.
func NewTicker(s *Simulator, name string, period Time) *Ticker {
	if period <= 0 {
		panic("sysc: ticker period must be positive")
	}
	tk := &Ticker{ev: s.NewEvent(name + ".tick"), period: period}
	tk.gen = s.NewEvent(name + ".gen")
	s.SpawnMethod(name+".gen", func() {
		tk.ev.Notify()
		tk.gen.NotifyAfter(period)
	}, tk.gen)
	tk.gen.NotifyAfter(period)
	return tk
}

// Event returns the periodic event.
func (tk *Ticker) Event() *Event { return tk.ev }

// Period returns the tick period.
func (tk *Ticker) Period() Time { return tk.period }

// Gen returns the internal generator event. A warp hook passes it to
// Simulator.NextTimedExcluding to ask what, besides this ticker, needs to
// run next.
func (tk *Ticker) Gen() *Event { return tk.gen }

// NextFire returns the time of the next tick (the generator's pending timed
// notification); ok is false when the generator is not armed.
func (tk *Ticker) NextFire() (Time, bool) {
	if tk.gen.pendingKind != notifyTimed {
		return 0, false
	}
	return tk.gen.sim.timed.when(tk.gen), true
}

// SkipTo fast-forwards the ticker across firings that are known to be no-ops:
// the generator is re-armed at the first point of the tick grid at or after
// `when`, preserving phase, and the number of skipped firings is returned so
// the caller can keep tick accounting exact. A `when` at or before the next
// fire is a no-op.
func (tk *Ticker) SkipTo(when Time) int {
	next, ok := tk.NextFire()
	if !ok || when <= next {
		return 0
	}
	n := (when - next + tk.period - 1) / tk.period
	tk.gen.Cancel()
	tk.gen.NotifyAfter(next + n*tk.period - tk.gen.sim.now)
	return int(n)
}

// EnsureFire pulls the generator back so a tick fires at the first grid
// point at or after `when` — the backstop undoing an earlier SkipTo when a
// new deadline lands inside the skipped gap. It returns the number of
// firings re-instated (to subtract from any skip credit). No-op when the
// next fire is already at or before that grid point.
func (tk *Ticker) EnsureFire(when Time) int {
	next, ok := tk.NextFire()
	if !ok || next-when <= 0 {
		return 0
	}
	g := next - ((next-when)/tk.period)*tk.period
	if g == next {
		return 0
	}
	tk.gen.Cancel()
	tk.gen.NotifyAfter(g - tk.gen.sim.now)
	return int((next - g) / tk.period)
}
