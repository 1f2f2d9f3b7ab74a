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
	period Time
}

// NewTicker creates a periodic event firing first at `period` and then
// every `period` thereafter.
func NewTicker(s *Simulator, name string, period Time) *Ticker {
	if period <= 0 {
		panic("sysc: ticker period must be positive")
	}
	tk := &Ticker{ev: s.NewEvent(name + ".tick"), period: period}
	gen := s.NewEvent(name + ".gen")
	s.SpawnMethod(name+".gen", func() {
		tk.ev.Notify()
		gen.NotifyAfter(period)
	}, gen)
	gen.NotifyAfter(period)
	return tk
}

// Event returns the periodic event.
func (tk *Ticker) Event() *Event { return tk.ev }

// Period returns the tick period.
func (tk *Ticker) Period() Time { return tk.period }
