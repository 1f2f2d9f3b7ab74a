package experiments

import (
	"testing"

	"repro/internal/bfm"
	"repro/internal/i8051"
	"repro/internal/run/opts"
	"repro/internal/sysc"
	"repro/internal/tkernel"
)

// TestHybridISSCoprocessor runs a mixed-level co-simulation: an RTOS-level
// task (annotated host code on RTK-Spec TRON) offloads a computation to a
// coprocessor that is real 8051 firmware executing cycle-by-cycle on the
// ISS. They share the BFM's external RAM; the coprocessor signals
// completion through a port write that the interrupt controller turns into
// a kernel ISR, which wakes the waiting task.
//
// This exercises every level of the reproduced platform in one simulation:
// sysc kernel, SIM_API dispatching, T-Kernel services, BFM memory/interrupt
// fabric, and the instruction-set simulator.
func TestHybridISSCoprocessor(t *testing.T) {
	const (
		cmdAddr    = 0x0000 // command mailbox: host writes length, coproc clears
		dataAddr   = 0x0010 // input vector
		resultAddr = 0x0080 // coproc writes the sum here
		doneLine   = 2      // interrupt line pulsed by the coprocessor
	)

	// Coprocessor firmware: poll the command mailbox; when non-zero, sum
	// that many bytes from dataAddr, store the result, clear the command,
	// and pulse P1 (the done interrupt). Loops forever.
	fw := i8051.NewAsm().
		Label("poll").
		MovDPTR(cmdAddr).
		MovxADPTR().
		Jz("poll").
		MovRA(2). // R2 = count
		ClrA().
		MovRA(3). // R3 = accumulator
		MovDPTR(dataAddr).
		Label("sum").
		MovxADPTR().
		AddAR(3).
		MovRA(3).
		IncDPTR().
		DjnzR(2, "sum").
		MovDPTR(resultAddr).
		MovAR(3).
		MovxDPTRA(). // store the sum
		ClrA().
		MovDPTR(cmdAddr).
		MovxDPTRA().               // clear the command
		MovDirImm(i8051.SfrP1, 1). // pulse: done interrupt
		Ljmp("poll").
		Assemble()

	sim := sysc.NewSimulator()
	defer sim.Shutdown()

	b := bfm.New(sim, nil, bfm.DefaultConfig())
	k := tkernel.New(sim, tkernel.Config{
		CommonOptions: opts.CommonOptions{Tick: b.RTC.Period()},
		Costs:         tkernel.ZeroCosts(),
	})
	b.SetAPI(k.API())
	b.IntC.SetSink(func(line int) { _ = k.RaiseInterrupt(line) })
	b.IntC.EnableLine(doneLine)

	cpu := i8051.New(fw)
	cpu.XRAM = b.Mem // shared platform memory
	cpu.PortOut = func(port int, v byte) {
		if port == 1 && v != 0 {
			b.IntC.Raise(doneLine)
		}
	}
	i8051.NewMachine(sim, cpu, b.MachineCycle(), 4)

	var result byte
	var doneAt sysc.Time
	k.Boot(func(k *tkernel.Kernel) {
		var hostID tkernel.ID
		_ = k.DefInt(doneLine, "coproc-done", func(h *tkernel.HandlerCtx) {
			_ = h.K.WupTsk(hostID)
		})
		hostID, _ = k.CreTsk("host", 10, func(task *tkernel.Task) {
			// Write the input vector 1..8 through the BFM bus.
			for i := 0; i < 8; i++ {
				b.Mem.Write(dataAddr+uint16(i), byte(i+1))
			}
			b.Mem.Write(cmdAddr, 8) // issue the command
			// Sleep until the coprocessor's done interrupt wakes us.
			if er := k.SlpTsk(tkernel.TmoFevr); er != tkernel.EOK {
				t.Errorf("SlpTsk: %v", er)
				return
			}
			result = b.Mem.Read(resultAddr)
			doneAt = sim.Now()
		})
		_ = k.StaTsk(hostID)
	})

	if err := sim.Start(50 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	if result != 36 { // 1+2+...+8
		t.Fatalf("coprocessor result = %d, want 36", result)
	}
	if doneAt <= 0 || doneAt > 10*sysc.Ms {
		t.Fatalf("completion at %v", doneAt)
	}
	if cpu.Instrs == 0 {
		t.Fatal("ISS never executed")
	}
	info, _ := k.RefInt(doneLine)
	if info.Fires != 1 {
		t.Fatalf("done interrupts = %d", info.Fires)
	}
}
