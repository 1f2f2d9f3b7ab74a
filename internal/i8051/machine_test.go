package i8051_test

import (
	"testing"

	"repro/internal/bfm"
	"repro/internal/i8051"
	"repro/internal/sysc"
)

func TestMachineAdvancesSimulatedTime(t *testing.T) {
	// 10 iterations of a 4-cycle loop body (IncA=1, DJNZ=2, plus final
	// fall-through) then halt: verify simulated time equals cycles × 1 us.
	fw := i8051.NewAsm().
		MovRImm(0, 10). // 1 cycle
		Label("loop").
		IncA().           // 1 cycle × 10
		DjnzR(0, "loop"). // 2 cycles × 10
		Halt().           // 2 cycles
		Assemble()
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	cpu := i8051.New(fw)
	m := i8051.NewMachine(sim, cpu, sysc.Us, 1)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("machine did not halt")
	}
	// 1 + 10*1 + 10*2 + 2 = 33 cycles -> sim halts at 33 us.
	if cpu.Cycles != 33 {
		t.Fatalf("cycles = %d", cpu.Cycles)
	}
	if sim.Now() != 33*sysc.Us {
		t.Fatalf("sim time = %v, want 33 us", sim.Now())
	}
	if cpu.A() != 10 {
		t.Fatalf("A = %d", cpu.A())
	}
}

func TestMachineBatchingPreservesResult(t *testing.T) {
	fw := i8051.NewAsm().
		MovRImm(0, 200).
		ClrA().
		Label("loop").
		AddAImm(1).
		DjnzR(0, "loop").
		Halt().
		Assemble()
	run := func(batch int) (byte, sysc.Time) {
		sim := sysc.NewSimulator()
		defer sim.Shutdown()
		cpu := i8051.New(fw)
		i8051.NewMachine(sim, cpu, sysc.Us, batch)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return cpu.A(), sim.Now()
	}
	a1, t1 := run(1)
	a2, t2 := run(50)
	if a1 != a2 || a1 != 200 {
		t.Fatalf("batching changed result: %d vs %d", a1, a2)
	}
	if t1 != t2 {
		t.Fatalf("batching changed total time: %v vs %v", t1, t2)
	}
}

func TestMachineSharesBFMXRAM(t *testing.T) {
	// Firmware stores 0xA5 at XRAM 0x0042 through the BFM's memory
	// controller (the shared bus of the co-simulation platform).
	fw := i8051.NewAsm().
		MovDPTR(0x0042).
		MovAImm(0xA5).
		MovxDPTRA().
		Halt().
		Assemble()
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	b := bfm.New(sim, nil, bfm.DefaultConfig())
	cpu := i8051.New(fw)
	cpu.XRAM = b.Mem
	i8051.NewMachine(sim, cpu, b.MachineCycle(), 1)
	// A bounded horizon, so firmware that fails to halt cannot hang the
	// test.
	if err := sim.Start(10 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	if got := b.Mem.Read(0x0042); got != 0xA5 {
		t.Fatalf("xram = %#x", got)
	}
}

func TestMachineDoneEvent(t *testing.T) {
	fw := i8051.NewAsm().MovAImm(1).Halt().Assemble()
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	cpu := i8051.New(fw)
	m := i8051.NewMachine(sim, cpu, sysc.Us, 1)
	fired := false
	sim.SpawnMethod("watch", func() { fired = true }, m.Done())
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("done event not fired")
	}
}
