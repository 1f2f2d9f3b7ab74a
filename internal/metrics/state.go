package metrics

import "repro/internal/sysc"

// Snapshot support: a warm-start sweep captures the collector after the
// shared prefix and rewinds it before each forked variant, so per-variant
// reports aggregate prefix + variant exactly as a cold run would.

// CollectorState is the captured accumulator state. Opaque: it only flows
// back into LoadState on a collector of the same run family.
type CollectorState struct {
	tasks map[string]taskState
	ctxs  map[uint8]ContextMetrics
	end   sysc.Time
}

// SaveState captures the collector's accumulators.
func (c *Collector) SaveState() CollectorState {
	st := CollectorState{
		tasks: make(map[string]taskState, len(c.tasks)),
		ctxs:  map[uint8]ContextMetrics{},
		end:   c.end,
	}
	for name, t := range c.tasks {
		st.tasks[name] = *t
	}
	for k, x := range c.ctxs {
		if x != nil {
			st.ctxs[uint8(k)] = *x
		}
	}
	return st
}

// LoadState rewinds the collector to a captured state.
func (c *Collector) LoadState(st CollectorState) {
	clear(c.tasks)
	for name, t := range st.tasks {
		tc := t
		c.tasks[name] = &tc
	}
	c.bySubject.Reset()
	c.ctxs = [256]*ContextMetrics{}
	for k, x := range st.ctxs {
		xc := x
		c.ctxs[k] = &xc
	}
	c.end = st.end
}
