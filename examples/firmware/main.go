// Firmware: real 8051 machine code on the instruction-set simulator,
// sharing the co-simulation platform's XRAM and observing port/serial
// activity — the "ISS level" the paper's RTOS-level approach replaces.
//
// The firmware computes the first 12 Fibonacci numbers, stores them to
// external RAM through the BFM memory bus, prints a banner over the serial
// SFR, and blinks P1. The host side (this program) reads the results back
// from the shared XRAM and reports simulated vs wall time.
//
//	go run ./examples/firmware
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/bfm"
	"repro/internal/i8051"
	"repro/internal/sysc"
)

func firmware() []byte {
	a := i8051.NewAsm()
	// Banner over serial.
	for _, ch := range []byte("FIB!") {
		a.MovDirImm(i8051.SfrSBUF, ch)
	}
	// R0=fib(i), R1=fib(i+1); store 12 values at XRAM 0x0100.
	a.MovRImm(0, 0).
		MovRImm(1, 1).
		MovRImm(2, 12). // count
		MovDPTR(0x0100).
		Label("loop").
		MovAR(0).
		MovxDPTRA(). // store fib(i)
		IncDPTR().
		MovDirImm(i8051.SfrP1, 0x55). // blink
		MovDirImm(i8051.SfrP1, 0xAA).
		MovAR(0).
		AddAR(1).              // A = fib(i) + fib(i+1)
		MovDirDir(0x00, 0x01). // R0 <- R1
		MovRA(1).              // R1 <- A
		DjnzR(2, "loop").
		Halt()
	return a.Assemble()
}

func main() {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()

	b := bfm.New(sim, nil, bfm.DefaultConfig())
	cpu := i8051.New(firmware())
	cpu.XRAM = b.Mem // share the platform bus

	var serial []byte
	cpu.SerialOut = func(v byte) { serial = append(serial, v) }
	blinks := 0
	cpu.PortOut = func(port int, v byte) {
		if port == 1 {
			blinks++
		}
	}

	m := i8051.NewMachine(sim, cpu, b.MachineCycle(), 1)
	wall0 := time.Now()
	// Advance in 1 ms steps until the firmware halts, so the run ends on
	// a whole millisecond; firmware that never halts stops after 1 s.
	for t := sysc.Ms; !m.Halted() && t <= sysc.Sec; t += sysc.Ms {
		if err := sim.Start(t); err != nil {
			fmt.Fprintln(os.Stderr, "simulation error:", err)
			os.Exit(1)
		}
	}
	wall := time.Since(wall0)

	fmt.Printf("firmware halted after %d instructions, %d machine cycles\n",
		cpu.Instrs, cpu.Cycles)
	fmt.Printf("simulated %v in %v wall (ISS level)\n", sim.Now(), wall.Round(time.Microsecond))
	fmt.Printf("serial banner: %q   P1 blinks: %d   halted=%v\n\n", serial, blinks, m.Halted())

	fmt.Print("fibonacci from shared XRAM: ")
	for i := 0; i < 12; i++ {
		fmt.Printf("%d ", b.Mem.Read(uint16(0x0100+i)))
	}
	fmt.Println()
}
