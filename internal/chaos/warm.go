package chaos

import (
	"context"

	"repro/internal/snapshot"
	"repro/internal/sysc"
	"repro/internal/tkernel"
)

// Warm ddmin: every fault of a random schedule lands at or after dur/10
// (RandomSchedule's middle-80% rule), so the first tenth of every trial is
// the identical fault-free prefix. The warm minimizer simulates that prefix
// once, checkpoints kernel + oracles just before the earliest possible
// fault time, and runs each ddmin trial as restore → activate subset →
// simulate the fault window. Trials agree with cold rebuilds bit-for-bit
// (the property tests compare minimized schedules warm vs cold), so this
// is purely a wall-clock optimization for -minimize campaigns.

// warmMinimizer owns one live system restored per ddmin trial.
type warmMinimizer struct {
	cfg Config
	sim *sysc.Simulator
	sys *System
	orc *Oracles
	st  *snapshot.State
	ost OracleState
}

// newWarmMinimizer builds the trial base, or returns nil when the
// configuration is outside the snapshot envelope: the built-in chaos
// application uses memory pools, which the snapshot does not cover
// (synthetic workloads only). Callers fall back to cold rebuild trials.
func newWarmMinimizer(ctx context.Context, cfg Config, seed uint64, sched Schedule) *warmMinimizer {
	if cfg.Synthetic == nil {
		return nil
	}
	tck := cfg.Dur/10 - 1 // 1 tick before the earliest possible fault
	if tck <= 0 {
		return nil
	}
	sim := sysc.NewSimulator()
	scfg := SystemConfig{Tasks: cfg.Tasks, Costs: tkernel.DefaultCosts(), Schedule: sched,
		DeferFaults: true}
	sys := BuildSyntheticSystem(sim, seed, scfg, synthTaskSet(cfg, seed))
	orc := Attach(sys.K, sys.Gantt, cfg.OracleInterval)
	if sim.StartContext(ctx, tck) != nil {
		sim.Shutdown()
		return nil
	}
	st, err := snapshot.Capture(snapshot.System{Sim: sim, Kernel: sys.K, Inst: sys.inst, Gantt: sys.Gantt})
	if err != nil {
		sim.Shutdown()
		return nil
	}
	ost, err := orc.SaveState()
	if err != nil {
		sim.Shutdown()
		return nil
	}
	return &warmMinimizer{cfg: cfg, sim: sim, sys: sys, orc: orc, st: st, ost: ost}
}

// snapSystem bundles the pieces for the snapshot layer (no observers
// beyond the Gantt: warm trials only need a pass/fail verdict).
func (w *warmMinimizer) snapSystem() snapshot.System {
	return snapshot.System{Sim: w.sim, Kernel: w.sys.K, Inst: w.sys.inst, Gantt: w.sys.Gantt}
}

// trial restores the checkpoint, activates sub, and simulates the fault
// window. It reports whether the oracles passed.
func (w *warmMinimizer) trial(ctx context.Context, sub Schedule) (bool, error) {
	if err := snapshot.RestoreInPlace(w.snapSystem(), w.st); err != nil {
		return false, err
	}
	w.orc.LoadState(w.ost)
	w.sys.Inj.Reset()
	w.sys.Inj.SetActive(sub)
	w.sys.Inj.SpawnEvents(sub)
	if err := w.sim.StartContext(ctx, w.cfg.Dur); err != nil {
		return false, err
	}
	w.orc.Final(w.sim.Now())
	return w.orc.Passed(), nil
}

func (w *warmMinimizer) close() { w.sim.Shutdown() }
