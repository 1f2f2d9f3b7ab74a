package bfm

import (
	"fmt"

	"repro/internal/core"
)

// Peripheral is an external device attached to a parallel I/O port. The
// port forwards written values to the device and reads the device's output
// latch.
type Peripheral interface {
	// Name identifies the device in traces.
	Name() string
	// PortWrite receives a value driven onto the port.
	PortWrite(v byte)
	// PortRead returns the value the device drives back.
	PortRead() byte
}

// Port is one multiplexed parallel I/O port (P0..P3). Several peripheral
// devices can be attached; a select register multiplexes which device the
// data lines address, as in the case study's "Multiplexed Parallel I/O
// interface to which several external peripheral devices are connected".
//
// Select, Write and Read build accesses (see core.Access): run one with
// BFM.Do from closure code, or as a tkernel Program Io op.
type Port struct {
	b       *BFM
	index   int
	latch   byte
	devices []Peripheral
	sel     int

	writes uint64

	// Trace names (pN.sel/.wr/.rd), the VCD signal (pN) and the access
	// effects, all bound once at construction.
	selName, wrName, rdName, signal string
	selFx, wrFx, rdFx               func(core.Access)
}

func newPort(b *BFM, index int) *Port {
	p := &Port{b: b, index: index,
		selName: fmt.Sprintf("p%d.sel", index),
		wrName:  fmt.Sprintf("p%d.wr", index),
		rdName:  fmt.Sprintf("p%d.rd", index),
		signal:  fmt.Sprintf("p%d", index),
	}
	p.selFx, p.wrFx, p.rdFx = p.applySelect, p.applyWrite, p.applyRead
	return p
}

// Attach connects a peripheral and returns its select index.
func (p *Port) Attach(dev Peripheral) int {
	p.devices = append(p.devices, dev)
	return len(p.devices) - 1
}

// Select multiplexes the port onto the given attached device
// (1 machine cycle to write the select register).
func (p *Port) Select(idx int) core.Access {
	return p.b.access(1, core.Access{Name: p.selName, Effect: p.selFx, Arg: idx})
}

func (p *Port) applySelect(a core.Access) {
	if a.Arg >= 0 && a.Arg < len(p.devices) {
		p.sel = a.Arg
	}
}

// Write drives a value onto the port (1 machine cycle) and forwards it to
// the selected peripheral.
func (p *Port) Write(v byte) core.Access {
	return p.b.access(1, core.Access{Name: p.wrName, Effect: p.wrFx, Arg: int(v)})
}

func (p *Port) applyWrite(a core.Access) {
	v := byte(a.Arg)
	p.latch = v
	p.writes++
	p.b.probe(p.signal, uint64(v))
	if p.sel < len(p.devices) {
		p.devices[p.sel].PortWrite(v)
	}
}

// Read samples the port into *dst (1 machine cycle): the selected
// peripheral's output if any device is attached, else the latch. The
// sample is taken when the budget is spent.
func (p *Port) Read(dst *byte) core.Access {
	return p.b.access(1, core.Access{Name: p.rdName, Effect: p.rdFx, Dst: dst})
}

func (p *Port) applyRead(a core.Access) {
	if p.sel < len(p.devices) {
		*a.Dst = p.devices[p.sel].PortRead()
	} else {
		*a.Dst = p.latch
	}
}

// Latch returns the last written value without bus activity (for tests and
// waveform rendering).
func (p *Port) Latch() byte { return p.latch }

// Writes returns the number of write accesses.
func (p *Port) Writes() uint64 { return p.writes }
