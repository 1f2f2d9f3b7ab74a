package bfm

// InterruptController models the 8051 interrupt controller: numbered
// request lines with per-line enable bits and a global enable (EA). A raise
// on an enabled line invokes the attached sink — typically the kernel's
// Interrupt Dispatch (RaiseInterrupt) — at the current simulation time.
// Raises on disabled lines are latched and delivered on enable, as the
// 8051's level-latched IE flags do.
type InterruptController struct {
	b       *BFM
	sink    func(line int)
	enabled map[int]bool
	latched map[int]bool
	ea      bool // global enable

	dropped uint64
}

func newInterruptController(b *BFM) *InterruptController {
	return &InterruptController{
		b:       b,
		enabled: map[int]bool{},
		latched: map[int]bool{},
		ea:      true,
	}
}

// SetSink connects the controller to the software side (the kernel's
// interrupt dispatch).
func (c *InterruptController) SetSink(fn func(line int)) { c.sink = fn }

// EnableLine unmasks a request line; a latched pending request fires
// immediately.
func (c *InterruptController) EnableLine(line int) {
	c.b.call(1, "ie.set")
	c.enabled[line] = true
	c.deliverLatched(line)
}

// DisableLine masks a request line.
func (c *InterruptController) DisableLine(line int) {
	c.b.call(1, "ie.clr")
	c.enabled[line] = false
}

// SetGlobalEnable sets the EA bit; enabling delivers all latched requests.
func (c *InterruptController) SetGlobalEnable(on bool) {
	c.b.call(1, "ea")
	c.ea = on
	if on {
		for line, pending := range c.latched {
			if pending && c.enabled[line] {
				c.deliverLatched(line)
			}
		}
	}
}

// Raise asserts an interrupt request line from the hardware side (no CPU
// cycles are charged — this is the peripheral's doing).
func (c *InterruptController) Raise(line int) {
	c.b.probe("int.req", uint64(line))
	if !c.ea || !c.enabled[line] {
		c.latched[line] = true
		return
	}
	c.fire(line)
}

func (c *InterruptController) deliverLatched(line int) {
	if c.ea && c.enabled[line] && c.latched[line] {
		c.latched[line] = false
		c.fire(line)
	}
}

func (c *InterruptController) fire(line int) {
	if c.sink != nil {
		c.sink(line)
	} else {
		c.dropped++
	}
}

// Dropped returns requests delivered with no sink attached.
func (c *InterruptController) Dropped() uint64 { return c.dropped }

// Pending reports whether a latched (undelivered) request exists on line.
func (c *InterruptController) Pending(line int) bool { return c.latched[line] }
