// Package petri holds the concepts of the synchronized Petri net that the
// paper uses as the execution model of a T-THREAD (Figure 2). That net is a
// state machine carrying a single token: every transition (an Arc) moves
// the token from its input place to its output place, so a marking is just
// the index of the marked place and an arc table is the whole net. The
// package keeps the rest as data: firing sequences with characteristic
// vectors, and the execution-time/energy models (ETM/EEM) charged per
// firing, so that consumed execution time (CET) and consumed execution
// energy (CEE) accumulate as the token propagates.
package petri

import (
	"fmt"

	"repro/internal/sysc"
)

// Energy is an amount of energy in joules.
type Energy float64

// Energy constructors/conversions.
const (
	Joule    Energy = 1
	MilliJ   Energy = 1e-3
	MicroJ   Energy = 1e-6
	NanoJ    Energy = 1e-9
	WattHour Energy = 3600 * Joule
)

// Joules returns e as a float in joules.
func (e Energy) Joules() float64 { return float64(e) }

// String renders the energy with an adaptive unit.
func (e Energy) String() string {
	v := float64(e)
	switch {
	case v == 0:
		return "0 J"
	case v >= 1:
		return fmt.Sprintf("%.3f J", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.3f mJ", v*1e3)
	case v >= 1e-6:
		return fmt.Sprintf("%.3f uJ", v*1e6)
	default:
		return fmt.Sprintf("%.3f nJ", v*1e9)
	}
}

// Cost is the execution time/energy model attached to one transition firing:
// the ETM contribution and EEM contribution of that atomic step.
type Cost struct {
	Time   sysc.Time
	Energy Energy
}

// Add returns the component-wise sum of two costs.
func (c Cost) Add(d Cost) Cost {
	return Cost{Time: c.Time + d.Time, Energy: c.Energy + d.Energy}
}

// Arc is one transition of a single-token state-machine net: a named
// transition that moves the token from place index In to place index Out.
type Arc struct {
	Name    string
	In, Out int
}
