// Package opts holds the construction knobs shared by every kernel-bearing
// Config in the tree (tkernel.Config, rtk.Config, app.Config). It sits below
// the kernel layers so they can embed one struct instead of redeclaring the
// same fields; package run re-exports the type as run.CommonOptions, the
// name client code should use.
package opts

import (
	"repro/internal/event"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// CommonOptions is the knob set every kernel build shares. Each embedding
// Config documents which fields it honors; a zero value always means "model
// default".
type CommonOptions struct {
	// Tick is the system-clock resolution. For tkernel and rtk this is the
	// kernel tick (default 1 ms); for app it sets the BFM real-time clock
	// period driving the kernel's central module.
	Tick sysc.Time
	// TimeSlice is the round-robin quantum where the scheduling policy has
	// one (RTK-Spec I; default 5 ms). Ignored by purely priority-preemptive
	// builds.
	TimeSlice sysc.Time
	// Bus optionally supplies an externally created kernel event bus, so
	// observers (trace exporters, metrics, oracles) can subscribe before
	// the simulation starts. Nil lets the kernel create a private one.
	Bus *event.Bus
	// Gantt, when non-nil, is subscribed to the bus for execution-trace
	// segment recording.
	Gantt *trace.Gantt
}
