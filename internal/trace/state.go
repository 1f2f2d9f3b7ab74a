package trace

// Snapshot support for the trace observers. A warm-start sweep runs the
// shared prefix once with observers attached, captures their cursors, and
// rewinds them before each forked variant so every variant's artifacts
// contain the prefix records exactly as a cold run would have produced
// them.

// GanttState is the captured segment log of a Gantt recorder. Opaque:
// it only flows back into LoadState on the same recorder.
type GanttState struct {
	segments []Segment
}

// SaveState captures the recorded segments.
func (g *Gantt) SaveState() GanttState {
	return GanttState{segments: append([]Segment(nil), g.Segments...)}
}

// LoadState rewinds the recorder to a captured segment log.
func (g *Gantt) LoadState(st GanttState) {
	g.Segments = append(g.Segments[:0], st.segments...)
}

// PerfettoState is the captured cursor of a streaming Perfetto exporter:
// the row-assignment table and the record count. The caller owns the
// underlying writer (a buffer, for warm sweeps) and rewinds it in step —
// Flush first so the buffer holds everything the cursor accounts for.
type PerfettoState struct {
	tids    map[string]int
	nextTid int
	n       int
}

// Flush pushes buffered output through to the underlying writer without
// closing the record stream.
func (p *Perfetto) Flush() error {
	p.write(len(p.buf))
	return p.err
}

// SaveState captures the exporter cursor. Call Flush first when the
// underlying buffer is captured alongside.
func (p *Perfetto) SaveState() PerfettoState {
	tids := make(map[string]int, len(p.tids))
	for k, v := range p.tids {
		tids[k] = v
	}
	return PerfettoState{tids: tids, nextTid: p.nextTid, n: p.n}
}

// LoadState rewinds the exporter to a captured cursor. Any buffered but
// unflushed output is discarded; the caller rewinds the underlying writer.
func (p *Perfetto) LoadState(st PerfettoState) {
	p.buf = p.buf[:0]
	clear(p.tids)
	p.bySubject.Reset()
	for k, v := range st.tids {
		p.tids[k] = v
	}
	p.nextTid = st.nextTid
	p.n = st.n
}
