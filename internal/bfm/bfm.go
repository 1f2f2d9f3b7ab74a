// Package bfm is the bus functional model of the case study (Section 5.1):
// a cycle-budgeted transaction-level abstraction of an i8051 MCU and its
// surrounding hardware. It follows the paper's driver model: the software
// side interacts through handshake functions (BFM calls), each associated
// with a cycle budget based on the 8051 timing characteristics and an
// estimate of the energy consumed during the access.
//
// The model consists of a real-time clock driving the kernel's central
// module (default resolution 1 ms), a memory controller (external RAM), an
// interrupt controller, a serial I/O channel, and a multiplexed parallel
// I/O interface to which external peripheral devices (LCD, keypad,
// seven-segment display) are connected.
package bfm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/petri"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// Config parameterizes the BFM timing and energy characteristics.
type Config struct {
	// ClockHz is the oscillator frequency (default 12 MHz — the classic
	// 8051 rate giving a 1 us machine cycle at 12 clocks per cycle).
	ClockHz int64
	// ClocksPerMachineCycle is 12 on a standard 8051.
	ClocksPerMachineCycle int
	// EnergyPerCycle is the estimated energy of one machine cycle of bus
	// activity.
	EnergyPerCycle petri.Energy
	// TickPeriod is the real-time clock resolution (default 1 ms).
	TickPeriod sysc.Time
	// XRAMSize is the external RAM size (default 64 KiB).
	XRAMSize int
	// BaudRate is the serial line rate (default 9600).
	BaudRate int
	// VCD, when non-nil, records signal changes for the waveform viewer.
	VCD *trace.VCD
}

// DefaultConfig returns the case-study configuration.
func DefaultConfig() Config {
	return Config{
		ClockHz:               12_000_000,
		ClocksPerMachineCycle: 12,
		EnergyPerCycle:        2 * petri.NanoJ,
		TickPeriod:            1 * sysc.Ms,
		XRAMSize:              64 * 1024,
		BaudRate:              9600,
	}
}

// BFM is one instance of the i8051 bus functional model.
type BFM struct {
	sim *sysc.Simulator
	api *core.SimAPI // for attributing access budgets to the calling T-THREAD
	cfg Config

	machineCycle sysc.Time

	RTC    *RTC
	Mem    *MemoryController
	IntC   *InterruptController
	Serial *SerialIO
	Ports  [4]*Port // P0..P3

	accesses uint64
	cycles   uint64
}

// New builds the BFM on a simulator. api may be nil (no cost attribution;
// useful for hardware-only tests).
func New(sim *sysc.Simulator, api *core.SimAPI, cfg Config) *BFM {
	if cfg.ClockHz <= 0 {
		cfg.ClockHz = 12_000_000
	}
	if cfg.ClocksPerMachineCycle <= 0 {
		cfg.ClocksPerMachineCycle = 12
	}
	if cfg.TickPeriod <= 0 {
		cfg.TickPeriod = 1 * sysc.Ms
	}
	if cfg.XRAMSize <= 0 {
		cfg.XRAMSize = 64 * 1024
	}
	if cfg.BaudRate <= 0 {
		cfg.BaudRate = 9600
	}
	b := &BFM{sim: sim, api: api, cfg: cfg}
	b.machineCycle = sysc.Time(int64(sysc.Sec) * int64(cfg.ClocksPerMachineCycle) / cfg.ClockHz)
	b.RTC = newRTC(sim, cfg.TickPeriod)
	b.Mem = newMemoryController(b, cfg.XRAMSize)
	b.IntC = newInterruptController(b)
	b.Serial = newSerialIO(b, cfg.BaudRate)
	for i := range b.Ports {
		b.Ports[i] = newPort(b, i)
	}
	return b
}

// Sim returns the underlying simulator.
func (b *BFM) Sim() *sysc.Simulator { return b.sim }

// SetAPI attaches the SIM_API instance used to attribute access budgets to
// the calling T-THREAD (breaks the construction cycle: the kernel takes the
// BFM's RTC period, the BFM needs the kernel's SIM_API).
func (b *BFM) SetAPI(api *core.SimAPI) { b.api = api }

// MachineCycle returns the duration of one machine cycle.
func (b *BFM) MachineCycle() sysc.Time { return b.machineCycle }

// Accesses returns the number of BFM calls performed.
func (b *BFM) Accesses() uint64 { return b.accesses }

// BusCycles returns the total machine cycles consumed by BFM calls.
func (b *BFM) BusCycles() uint64 { return b.cycles }

// access completes one BFM call of the given cycle budget — cycles ×
// machine-cycle of execution time and cycles × energy-per-cycle of energy —
// and counts it. a carries the call's name, effect and operands.
func (b *BFM) access(cycles int, a core.Access) core.Access {
	b.accesses++
	b.cycles += uint64(cycles)
	a.Cost = core.Cost{
		Time:   sysc.Time(cycles) * b.machineCycle,
		Energy: petri.Energy(cycles) * b.cfg.EnergyPerCycle,
	}
	return a
}

// Do runs an access from closure code: the calling T-THREAD (if any)
// consumes the budget in the BFM context of the trace, then the effect
// applies. Program bodies run accesses as Io ops instead.
func (b *BFM) Do(a core.Access) {
	if b.api != nil {
		if tt := b.api.ExecutingThread(); tt != nil {
			tt.Consume(a.Cost, trace.CtxBFM, a.Name)
		}
	}
	a.Apply()
}

// call charges an effect-free BFM access to the calling T-THREAD.
func (b *BFM) call(cycles int, name string) { b.Do(b.access(cycles, core.Access{Name: name})) }

// probe records a VCD change when a waveform recorder is attached.
func (b *BFM) probe(signal string, val uint64) {
	if b.cfg.VCD != nil {
		b.cfg.VCD.Change(signal, b.sim.Now(), val)
	}
}

// RTC is the real-time clock at the configured resolution. A kernel
// driven by it takes its Period as the kernel tick and arms its own timer
// event on that grid; TickEvent gives a free-running tick for a model that
// needs one.
type RTC struct {
	sim    *sysc.Simulator
	ticker *sysc.Ticker
	period sysc.Time
}

func newRTC(sim *sysc.Simulator, period sysc.Time) *RTC {
	return &RTC{sim: sim, period: period}
}

// TickEvent returns the tick event (an RTK kernel's TickSource). The
// ticker behind it starts on the first call.
func (r *RTC) TickEvent() *sysc.Event {
	if r.ticker == nil {
		r.ticker = sysc.NewTicker(r.sim, "bfm.rtc", r.period)
	}
	return r.ticker.Event()
}

// Period returns the tick resolution.
func (r *RTC) Period() sysc.Time { return r.period }

// MemoryController models external data memory (XRAM) accessed with MOVX
// (2 machine cycles per transfer on the 8051). The backing arena is
// allocated on the first write: a 64 KiB zeroed arena per platform build is
// by far the largest construction cost, and most models never touch XRAM
// (reads of unwritten memory are 0 either way).
type MemoryController struct {
	b    *BFM
	size int
	xram []byte // nil until first written
}

func newMemoryController(b *BFM, size int) *MemoryController {
	return &MemoryController{b: b, size: size}
}

// Size returns the XRAM size in bytes.
func (m *MemoryController) Size() int { return m.size }

// mem returns the arena, materializing it on first use.
func (m *MemoryController) mem() []byte {
	if m.xram == nil {
		m.xram = make([]byte, m.size)
	}
	return m.xram
}

// Read performs a MOVX read (2 machine cycles).
func (m *MemoryController) Read(addr uint16) byte {
	m.b.call(2, fmt.Sprintf("movx.rd@%04x", addr))
	if int(addr) >= m.size || m.xram == nil {
		return 0
	}
	return m.xram[addr]
}

// Write performs a MOVX write (2 machine cycles).
func (m *MemoryController) Write(addr uint16, v byte) {
	m.b.call(2, fmt.Sprintf("movx.wr@%04x", addr))
	if int(addr) < m.size {
		m.mem()[addr] = v
	}
	m.b.probe("xram.addr", uint64(addr))
	m.b.probe("xram.data", uint64(v))
}

// ReadBlock copies n bytes starting at addr (2 cycles per byte, one call).
func (m *MemoryController) ReadBlock(addr uint16, n int) []byte {
	m.b.call(2*n, fmt.Sprintf("movx.blk.rd@%04x+%d", addr, n))
	out := make([]byte, 0, n)
	for i := 0; i < n && int(addr)+i < m.size; i++ {
		if m.xram == nil {
			out = append(out, 0)
		} else {
			out = append(out, m.xram[int(addr)+i])
		}
	}
	return out
}

// WriteBlock stores bytes starting at addr (2 cycles per byte, one call).
func (m *MemoryController) WriteBlock(addr uint16, data []byte) {
	m.b.call(2*len(data), fmt.Sprintf("movx.blk.wr@%04x+%d", addr, len(data)))
	for i, v := range data {
		if int(addr)+i < m.size {
			m.mem()[int(addr)+i] = v
		}
	}
}
