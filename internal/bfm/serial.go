package bfm

import (
	"repro/internal/core"
	"repro/internal/sysc"
)

// SerialIO models the 8051 serial channel (SBUF/SCON) in mode-1 style:
// writing SBUF costs one machine cycle, transmission of the 10-bit frame
// takes 10/baud seconds of line time, and frame completion raises the
// serial interrupt line. Received bytes are buffered and also raise the
// interrupt.
type SerialIO struct {
	b        *BFM
	baud     int
	frame    sysc.Time // line time of one 10-bit frame
	intLine  int
	busyTill sysc.Time
	txCount  uint64

	rx []byte

	txLog []byte // everything transmitted, for inspection/tests

	sendFx func(core.Access) // Send's effect, bound once
}

// SerialIntLine is the interrupt line used by the serial channel (8051 TI/RI).
const SerialIntLine = 4

func newSerialIO(b *BFM, baud int) *SerialIO {
	s := &SerialIO{
		b:       b,
		baud:    baud,
		frame:   sysc.Time(int64(sysc.Sec) * 10 / int64(baud)),
		intLine: SerialIntLine,
	}
	s.sendFx = s.applySend
	return s
}

// FrameTime returns the line time of one transmitted byte (10 bits).
func (s *SerialIO) FrameTime() sysc.Time { return s.frame }

// TxBusy reports whether the transmitter is still shifting a frame out.
func (s *SerialIO) TxBusy() bool { return s.b.sim.Now() < s.busyTill }

// Send writes one byte to SBUF (1 machine cycle for the store). The frame
// occupies the line for FrameTime from the end of the store; completion
// raises the serial interrupt. Sending while busy queues the frame behind
// the one shifting out, like overwriting SBUF. Run the access with BFM.Do
// or as a Program Io op.
func (s *SerialIO) Send(v byte) core.Access {
	return s.b.access(1, core.Access{Name: "sbuf.wr", Effect: s.sendFx, Arg: int(v)})
}

func (s *SerialIO) applySend(a core.Access) {
	v := byte(a.Arg)
	s.b.probe("sbuf.tx", uint64(v))
	now := s.b.sim.Now()
	start := now
	if s.busyTill > now {
		start = s.busyTill
	}
	s.busyTill = start + s.frame
	s.txCount++
	s.txLog = append(s.txLog, v)
	done := s.b.sim.NewEvent("serial.txdone")
	s.b.sim.SpawnMethod("serial.ti", func() {
		s.b.IntC.Raise(s.intLine)
	}, done)
	done.NotifyAfter(s.busyTill - now)
}

// InjectRx delivers a byte from the external line into the receive buffer
// (hardware side; no CPU cycles) and raises the serial interrupt.
func (s *SerialIO) InjectRx(v byte) {
	s.rx = append(s.rx, v)
	s.b.probe("sbuf.rx", uint64(v))
	s.b.IntC.Raise(s.intLine)
}

// Recv reads one received byte from SBUF (1 machine cycle); ok is false
// when the buffer is empty.
func (s *SerialIO) Recv() (v byte, ok bool) {
	s.b.call(1, "sbuf.rd")
	if len(s.rx) == 0 {
		return 0, false
	}
	v = s.rx[0]
	s.rx = s.rx[1:]
	return v, true
}

// RxPending returns the number of received bytes not yet read.
func (s *SerialIO) RxPending() int { return len(s.rx) }

// TxCount returns the number of bytes transmitted.
func (s *SerialIO) TxCount() uint64 { return s.txCount }

// TxLog returns a copy of everything transmitted so far.
func (s *SerialIO) TxLog() []byte {
	out := make([]byte, len(s.txLog))
	copy(out, s.txLog)
	return out
}
