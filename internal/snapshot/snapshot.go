// Package snapshot captures and restores complete simulator state at
// sysc quiescent points — the tentpole of warm-start sweep forking.
//
// Two forms exist:
//
//   - An in-memory checkpoint (State): a deep copy of every mutable cell
//     of a live System, restorable only into the same construction
//     (RestoreInPlace). This is the warm-fork fast path: simulate a
//     shared prefix once, then restore + reseed per variant.
//
//   - A versioned binary snapshot ([]byte): a deterministic flattened
//     encoding with the producing Spec embedded. Restoring from bytes is
//     replay-based — the caller rebuilds the system from the embedded
//     Spec, runs it to the capture time, and Verify re-captures and
//     byte-compares, so a successful restore is self-checking.
//
// The snapshot envelope is compiled program T-THREADs: a closure task
// parks a real goroutine stack that cannot be copied, so Capture refuses
// a system with one active (ErrUnsnapshottable) and callers fall back to
// a cold run. The same applies to kernel object classes whose state roots
// in caller memory (mailboxes, memory pools, rendezvous), which keeps the
// videogame case study outside the envelope.
package snapshot

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sysc"
	"repro/internal/tkernel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Typed refusal errors. All are errors.Is-able sentinels; wrapped forms
// carry detail.
var (
	// ErrUnsnapshottable: the configuration is outside the snapshot
	// envelope (unsupported kernel objects, a goroutine thread mid-body).
	// Callers fall back to cold execution.
	ErrUnsnapshottable = errors.New("snapshot: configuration cannot be snapshotted")
	// ErrIncompatible: the snapshot is from a different format version
	// than the restoring side.
	ErrIncompatible = errors.New("snapshot: incompatible snapshot")
	// ErrCorrupt: the snapshot bytes fail structural checks, or the
	// replayed system does not reproduce them.
	ErrCorrupt = errors.New("snapshot: corrupt snapshot")
)

// System bundles the live pieces of one constructed synthetic run. Sim,
// Kernel and Inst are required; the observer fields are captured only
// when non-nil so sweeps without artifacts pay nothing.
type System struct {
	Sim    *sysc.Simulator
	Kernel *tkernel.Kernel
	Inst   *workload.Instance

	Gantt    *trace.Gantt
	Perfetto *trace.Perfetto
	TraceBuf *bytes.Buffer // the buffer Perfetto streams into
	Metrics  *metrics.Collector
}

// State is an in-memory checkpoint: opaque, tied to the construction it
// was captured from.
type State struct {
	At sysc.Time

	sim  *sysc.SimState
	api  *core.APIState
	kern *tkernel.KernelState
	inst *workload.InstanceState

	hasGantt bool
	gantt    trace.GanttState
	hasPf    bool
	pf       trace.PerfettoState
	traceLog []byte
	hasColl  bool
	coll     metrics.CollectorState
}

// Capture deep-copies the system's complete dynamic state. The simulator
// must be quiescent (between Start calls).
func Capture(sys System) (*State, error) {
	if sys.Sim == nil || sys.Kernel == nil || sys.Inst == nil {
		return nil, fmt.Errorf("snapshot: incomplete system (sim/kernel/instance required)")
	}
	st := &State{At: sys.Sim.Now()}
	var err error
	if st.kern, err = sys.Kernel.SaveState(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsnapshottable, err)
	}
	if st.sim, err = sys.Sim.SaveState(); err != nil {
		return nil, err
	}
	if st.api, err = sys.Kernel.API().SaveState(); err != nil {
		return nil, err
	}
	st.inst = sys.Inst.SaveState()
	if sys.Gantt != nil {
		st.hasGantt = true
		st.gantt = sys.Gantt.SaveState()
	}
	if sys.Perfetto != nil {
		if err := sys.Perfetto.Flush(); err != nil {
			return nil, fmt.Errorf("snapshot: trace flush: %w", err)
		}
		st.hasPf = true
		st.pf = sys.Perfetto.SaveState()
		if sys.TraceBuf != nil {
			st.traceLog = append([]byte(nil), sys.TraceBuf.Bytes()...)
		}
	}
	if sys.Metrics != nil {
		st.hasColl = true
		st.coll = sys.Metrics.SaveState()
	}
	return st, nil
}

// RestoreInPlace writes a captured state back into the same construction
// it came from, leaving the system ready to run from State.At. Processes
// spawned after the capture are neutralized; a thread whose body moved
// past its captured park point refuses the restore (*sysc.ErrThreadMoved),
// leaving the system untouched.
func RestoreInPlace(sys System, st *State) error {
	if st == nil {
		return fmt.Errorf("snapshot: nil state")
	}
	// The sysc layer verifies thread pins before mutating anything, so a
	// refusal here leaves the system intact.
	if err := sys.Sim.LoadState(st.sim); err != nil {
		return err
	}
	if err := sys.Kernel.API().LoadState(st.api); err != nil {
		return err
	}
	if err := sys.Kernel.LoadState(st.kern); err != nil {
		return err
	}
	if err := sys.Inst.LoadState(st.inst); err != nil {
		return err
	}
	if st.hasGantt && sys.Gantt != nil {
		sys.Gantt.LoadState(st.gantt)
	}
	if st.hasPf && sys.Perfetto != nil {
		if sys.TraceBuf != nil {
			sys.TraceBuf.Reset()
			sys.TraceBuf.Write(st.traceLog)
		}
		sys.Perfetto.LoadState(st.pf)
	}
	if st.hasColl && sys.Metrics != nil {
		sys.Metrics.LoadState(st.coll)
	}
	return nil
}

// Fork restores the checkpoint and reseeds the workload's arrival
// streams from seed — one warm-start sweep variant. The byte-equality
// contract: a cold run that reaches State.At and calls Inst.Reseed(seed)
// there produces identical artifacts to Fork + run.
func Fork(sys System, st *State, seed uint64) error {
	if err := RestoreInPlace(sys, st); err != nil {
		return err
	}
	sys.Inst.Reseed(seed)
	return nil
}
