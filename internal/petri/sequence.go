package petri

import "repro/internal/sysc"

// FiringSequence summarizes the transitions fired during one execution cycle
// of a T-THREAD. Its characteristic vector S̄ counts how many times each
// transition fired; the attached ETM/EEM sums give the sequence's execution
// time and energy. Only the counts are kept — the ordered firing list is not
// stored, so a cycle of any length records in O(1) space.
type FiringSequence struct {
	n      int
	counts []int
	total  Cost
}

// NewFiringSequence creates an empty sequence over a net of n transitions.
func NewFiringSequence(n int) *FiringSequence {
	return &FiringSequence{counts: make([]int, n)}
}

// Record notes that transition i fired at the given cost.
func (s *FiringSequence) Record(i int, cost Cost) {
	s.n++
	s.counts[i]++
	s.total = s.total.Add(cost)
}

// Len returns the number of firings recorded.
func (s *FiringSequence) Len() int { return s.n }

// CharacteristicVector returns S̄: element i is the number of times
// transition i fired in the sequence.
func (s *FiringSequence) CharacteristicVector() []int {
	return s.AppendCharacteristicVector(nil)
}

// AppendCharacteristicVector writes S̄ into dst, reusing its capacity, and
// returns the result. Per-cycle bookkeeping snapshots the vector through
// this so a T-THREAD's steady state does not allocate after the first
// execution cycle (on either process engine).
func (s *FiringSequence) AppendCharacteristicVector(dst []int) []int {
	return append(dst[:0], s.counts...)
}

// ETM returns the execution-time model value of the sequence.
func (s *FiringSequence) ETM() sysc.Time { return s.total.Time }

// EEM returns the execution-energy model value of the sequence.
func (s *FiringSequence) EEM() Energy { return s.total.Energy }

// Total returns the combined cost of the sequence.
func (s *FiringSequence) Total() Cost { return s.total }

// Reset clears the sequence for the next execution cycle.
func (s *FiringSequence) Reset() {
	s.n = 0
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.total = Cost{}
}

// Accumulator folds firing sequences over multiple T-THREAD cycles into the
// consumed execution time (CET) and consumed execution energy (CEE):
//
//	CET = Σ_cycles ETM(S | T-THREAD)
//	CEE = Σ_cycles EEM(S | T-THREAD)
type Accumulator struct {
	Cycles int
	CET    sysc.Time
	CEE    Energy
}

// AddCost folds a bare cost (used for costs charged outside a recorded
// sequence, e.g. partial firings at preemption points).
func (a *Accumulator) AddCost(c Cost) {
	a.CET += c.Time
	a.CEE += c.Energy
}
