package petri

import "fmt"

// Snapshot-layer accessors. A T-THREAD's in-flight firing sequence is part
// of the kernel's dynamic state: it carries the partial characteristic
// vector of the current execution cycle. It is plain counters, so capture
// is a value copy and restore writes the counters back into the same
// sequence.

// SequenceState is the captured dynamic state of a FiringSequence.
type SequenceState struct {
	N      int
	Counts []int
	Total  Cost
}

// SaveState captures the sequence's dynamic state.
func (s *FiringSequence) SaveState() SequenceState {
	return SequenceState{
		N:      s.n,
		Counts: append([]int(nil), s.counts...),
		Total:  s.total,
	}
}

// CheckState reports whether LoadState would accept st.
func (s *FiringSequence) CheckState(st SequenceState) error {
	if len(st.Counts) != len(s.counts) {
		return fmt.Errorf("petri: sequence state has %d transition counts, want %d",
			len(st.Counts), len(s.counts))
	}
	return nil
}

// LoadState restores a state captured from this sequence (or one over a
// net with the same transition count).
func (s *FiringSequence) LoadState(st SequenceState) error {
	if err := s.CheckState(st); err != nil {
		return err
	}
	s.n = st.N
	copy(s.counts, st.Counts)
	s.total = st.Total
	return nil
}
