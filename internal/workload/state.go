package workload

import (
	"fmt"

	"repro/internal/sweep"
	"repro/internal/tkernel"
)

// Snapshot layer for a lowered workload: the cells that live outside the
// kernel proper but feed it — the per-task program scratch slots service
// ops write through (flag delivery patterns, received messages, error
// codes), the device models' arrival-stream RNG cursors and coroutine
// frame flags, and the activation counter. All are plain values behind
// stable pointers, so capture is a value copy and restore writes the
// values back through the same pointers the compiled programs closed
// over.

// ScratchState is the captured value of one task's scratch slots.
type ScratchState struct {
	Er  tkernel.ER
	Ptn uint32
	Rcv []byte
}

// DeviceState is the captured state of one interrupt device model.
type DeviceState struct {
	RNG     uint64 // arrival-stream cursor
	Started bool   // device-coro frame flag
}

// InstanceState is the captured dynamic state of a lowered workload.
type InstanceState struct {
	Activations uint64
	Scratch     []ScratchState // per task, declaration order
	Devices     []DeviceState  // per interrupt source, declaration order
}

// SaveState captures the workload-layer dynamic state.
func (in *Instance) SaveState() *InstanceState {
	st := &InstanceState{Activations: in.activations}
	for _, sc := range in.scratches {
		st.Scratch = append(st.Scratch, ScratchState{
			Er:  sc.er,
			Ptn: sc.ptn,
			Rcv: append([]byte(nil), sc.rcv...),
		})
	}
	for i, s := range in.samplers {
		st.Devices = append(st.Devices, DeviceState{RNG: s.rng.State(), Started: *in.devStarted[i]})
	}
	return st
}

// LoadState restores a state captured from this same Instance.
func (in *Instance) LoadState(st *InstanceState) error {
	if len(st.Scratch) != len(in.scratches) || len(st.Devices) != len(in.samplers) {
		return fmt.Errorf("workload: state mismatch: captured %d scratches/%d devices, instance has %d/%d",
			len(st.Scratch), len(st.Devices), len(in.scratches), len(in.samplers))
	}
	for i, sc := range in.scratches {
		s := &st.Scratch[i]
		sc.er = s.Er
		sc.ptn = s.Ptn
		sc.rcv = append(sc.rcv[:0], s.Rcv...)
	}
	for i, s := range in.samplers {
		d := &st.Devices[i]
		s.rng.SetState(d.RNG)
		*in.devStarted[i] = d.Started
	}
	in.activations = st.Activations
	return nil
}

// Reseed replaces every device model's arrival stream with a fresh one
// derived from seed — the fork point of a warm-start sweep variant. The
// cold equivalent runs the common prefix, calls Reseed at the fork time,
// and continues; a warm fork restores the prefix state and calls Reseed
// with the same seed, so both draw identical post-fork schedules.
func (in *Instance) Reseed(seed uint64) {
	for i, s := range in.samplers {
		s.rng = sweep.NewRNG(sweep.Seed(seed, arrivalStreamBase+i))
	}
}

// ScratchPtnIndex resolves a flag-delivery pointer captured by the kernel
// layer to the index of the task scratch it addresses, -1 if it is not a
// scratch slot of this instance. The binary snapshot encoder uses it to
// flatten pointers into stable indices.
func (in *Instance) ScratchPtnIndex(p *uint32) int {
	for i, sc := range in.scratches {
		if p == &sc.ptn {
			return i
		}
	}
	return -1
}

// ScratchRcvIndex resolves a message-delivery pointer to its task scratch
// index, -1 if unknown.
func (in *Instance) ScratchRcvIndex(p *[]byte) int {
	for i, sc := range in.scratches {
		if p == &sc.rcv {
			return i
		}
	}
	return -1
}
