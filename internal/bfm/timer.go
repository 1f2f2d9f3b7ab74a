package bfm

import (
	"fmt"

	"repro/internal/sysc"
)

// Timer models one of the 8051 on-chip timer/counters in the two software
// modes the kernel cares about: mode 1 (16-bit, overflow interrupt, reload
// by software) and mode 2 (8-bit auto-reload — the classic baud/tick
// generator). The timer counts machine cycles; on overflow it raises its
// interrupt line through the interrupt controller.
//
// It is evaluated lazily: instead of an event per count, the overflow
// instant is scheduled directly, so a running timer costs one simulation
// event per overflow (the same abstraction the RTC uses), while the
// register interface (THx/TLx/TRx) behaves like the hardware's.
type Timer struct {
	b       *BFM
	index   int // 0 or 1
	intLine int

	mode    int // 1 = 16-bit, 2 = 8-bit auto-reload
	running bool
	reload  uint16 // TH:TL at the last start (mode 2: TH only)
	started sysc.Time
	gen     int // invalidates scheduled overflows on stop/rewrite

	overflows uint64

	// Trace names of the register accesses and of the overflow event and
	// method, formed at construction.
	tmodName, thlName, tconName string
	ovfName, ovfmName           string
}

// Timer interrupt lines (8051 vectors order: INT0=0, T0=1, INT1=2, T1=3).
const (
	Timer0IntLine = 1
	Timer1IntLine = 3
)

// NewTimer creates timer 0 or 1 wired to the BFM's interrupt controller.
func NewTimer(b *BFM, index int) *Timer {
	line := Timer0IntLine
	if index != 0 {
		line = Timer1IntLine
	}
	return &Timer{b: b, index: index, intLine: line, mode: 1,
		tmodName: fmt.Sprintf("tmod.t%d", index),
		thlName:  fmt.Sprintf("thl.t%d", index),
		tconName: fmt.Sprintf("tcon.tr%d", index),
		ovfName:  fmt.Sprintf("t%d.ovf", index),
		ovfmName: fmt.Sprintf("t%d.ovfm", index),
	}
}

// SetMode selects mode 1 (16-bit) or mode 2 (8-bit auto-reload); TMOD write
// costs one machine cycle.
func (t *Timer) SetMode(mode int) error {
	t.b.call(1, t.tmodName)
	if mode != 1 && mode != 2 {
		return fmt.Errorf("bfm: timer mode %d not supported (1 or 2)", mode)
	}
	t.mode = mode
	return nil
}

// Load writes TH:TL (one machine cycle each on real hardware; merged here).
func (t *Timer) Load(value uint16) {
	t.b.call(2, t.thlName)
	t.reload = value
	if t.running {
		t.restart()
	}
}

// Start sets TRx: the timer counts machine cycles from its current load.
func (t *Timer) Start() {
	t.b.call(1, t.tconName)
	if t.running {
		return
	}
	t.running = true
	t.restart()
}

// Stop clears TRx.
func (t *Timer) Stop() {
	t.b.call(1, t.tconName)
	t.running = false
	t.gen++
}

// Running reports TRx.
func (t *Timer) Running() bool { return t.running }

// Overflows returns the number of overflow interrupts raised.
func (t *Timer) Overflows() uint64 { return t.overflows }

// PeriodMode2 returns the overflow period in mode 2 for the current reload.
func (t *Timer) PeriodMode2() sysc.Time {
	return sysc.Time(256-int64(t.reload&0xFF)) * t.b.machineCycle
}

// restart schedules the next overflow from now.
func (t *Timer) restart() {
	t.gen++
	gen := t.gen
	var until sysc.Time
	if t.mode == 2 {
		until = sysc.Time(256-int64(t.reload&0xFF)) * t.b.machineCycle
	} else {
		until = sysc.Time(0x10000-int64(t.reload)) * t.b.machineCycle
	}
	ev := t.b.sim.NewEvent(t.ovfName)
	t.b.sim.SpawnMethod(t.ovfmName, func() {
		if !t.running || t.gen != gen {
			return
		}
		t.overflows++
		t.b.IntC.Raise(t.intLine)
		if t.mode == 2 {
			t.restart() // auto-reload
		} else {
			// Mode 1 rolls over to 0 and keeps counting a full period
			// until software reloads.
			t.reload = 0
			t.restart()
		}
	}, ev)
	ev.NotifyAfter(until)
}
