package chaos

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/sysc"
	"repro/internal/tkernel"
	"repro/internal/trace"
)

// Violation is one invariant breach caught by an oracle.
type Violation struct {
	At     sysc.Time
	Oracle string
	Detail string
}

// String renders one violation line.
func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.At, v.Oracle, v.Detail)
}

// maxViolations bounds the report per run: a broken invariant tends to stay
// broken at every subsequent check, and the first few hits carry the signal.
const maxViolations = 32

// Oracles checks kernel invariants live during a simulation. Attach
// subscribes it to the kernel's event bus for quiescent points: checks run
// only when nothing is runnable and no update/delta activity remains — a
// stable snapshot between timesteps — throttled to one pass per interval of
// simulated time.
//
// Structural checks that can observe legal mid-transition states (a service
// body parked inside its atomic section while holding the dispatch lock, a
// handler interrupted at quiescence, a latched delayed dispatch) are gated
// on the kernel being scheduling-quiet; accounting checks (Gantt overlap,
// pool conservation, CET monotonicity, Petri token count) hold at every
// quiescent point unconditionally.
type Oracles struct {
	k        *tkernel.Kernel
	g        *trace.Gantt
	interval sysc.Time

	last   sysc.Time
	primed bool

	// Incremental overlap scan: Gantt segments are appended in nondecreasing
	// End order (threads are charged when their run slice completes), so one
	// high-water mark detects every overlap in O(1) per segment.
	segIdx int
	maxEnd sysc.Time

	lastBusy sysc.Time
	lastCET  map[*core.TThread]sysc.Time

	checks     int
	Violations []Violation
}

// Attach creates the oracle set for k (with optional Gantt g for the overlap
// check) and subscribes it to the kernel's event bus for quiescent points.
// interval <= 0 defaults to one check per millisecond of simulated time.
func Attach(k *tkernel.Kernel, g *trace.Gantt, interval sysc.Time) *Oracles {
	if interval <= 0 {
		interval = 1 * sysc.Ms
	}
	o := &Oracles{k: k, g: g, interval: interval, lastCET: map[*core.TThread]sysc.Time{}}
	k.Bus().Subscribe(o.observe, event.KindQuiescent)
	return o
}

// Checks returns how many oracle passes ran.
func (o *Oracles) Checks() int { return o.checks }

// Passed reports whether no invariant was violated.
func (o *Oracles) Passed() bool { return len(o.Violations) == 0 }

// observe handles quiescent-point events: throttle, then check.
func (o *Oracles) observe(e event.Event) {
	now := e.Time
	if o.primed && now-o.last < o.interval {
		return
	}
	o.primed = true
	o.last = now
	o.Check(now)
}

// Final runs one last unthrottled pass (call after the simulation returns,
// so the end-of-run state is always checked).
func (o *Oracles) Final(now sysc.Time) { o.Check(now) }

// fail records a violation, capped at maxViolations.
func (o *Oracles) fail(now sysc.Time, oracle, format string, args ...any) {
	if len(o.Violations) >= maxViolations {
		return
	}
	o.Violations = append(o.Violations, Violation{
		At: now, Oracle: oracle, Detail: fmt.Sprintf(format, args...),
	})
}

// Check runs every oracle once against the current kernel state.
func (o *Oracles) Check(now sysc.Time) {
	if len(o.Violations) >= maxViolations {
		return
	}
	o.checks++
	api := o.k.API()

	o.checkOverlap(now)
	o.checkAccounting(now)
	o.checkPools(now)

	// Scheduling-structure oracles only fire when no transient window is
	// open: a parked service body (dispatch locked), an interrupted handler,
	// or a latched delayed dispatch all legally show mixed state.
	if !api.DispatchLocked() && !api.InHandler() && !api.DispatchPending() {
		tasks := o.k.SnapshotTasks()
		o.checkRunning(now, tasks)
		o.checkReadyQueue(now, tasks)
		o.checkWaitQueues(now, tasks)
		o.checkMutexes(now, tasks)
	}
}

// checkOverlap: single-CPU non-overlap of Gantt execution segments.
func (o *Oracles) checkOverlap(now sysc.Time) {
	if o.g == nil {
		return
	}
	segs := o.g.Segments
	for ; o.segIdx < len(segs); o.segIdx++ {
		s := segs[o.segIdx]
		if s.Start < o.maxEnd && s.End > s.Start {
			o.fail(now, "gantt-overlap",
				"segment %s [%v,%v) starts before prior segment end %v",
				s.Thread, s.Start, s.End, o.maxEnd)
		}
		if s.End > o.maxEnd {
			o.maxEnd = s.End
		}
	}
}

// checkAccounting: CPU busy time and per-thread CET are monotone, busy never
// exceeds elapsed time, and every DORMANT T-THREAD holds its Petri-net token
// at dormant (body exit, handler exit and termination all move the token
// before they set the state).
func (o *Oracles) checkAccounting(now sysc.Time) {
	api := o.k.API()
	if b := api.BusyTime(); b < o.lastBusy {
		o.fail(now, "cpu-accounting", "busy time went backwards: %v -> %v", o.lastBusy, b)
	} else {
		o.lastBusy = b
		if b > now {
			o.fail(now, "cpu-accounting", "busy %v exceeds elapsed %v on one CPU", b, now)
		}
	}
	for _, tt := range api.Threads() {
		if tt.State() == core.StateDormant && tt.TokenPlace() != "dormant" {
			o.fail(now, "petri-token", "dormant thread %s holds its token at %s",
				tt.Name(), tt.TokenPlace())
		}
		if c := tt.CET(); c < o.lastCET[tt] {
			o.fail(now, "cet-monotonic", "thread %s CET went backwards: %v -> %v",
				tt.Name(), o.lastCET[tt], c)
		} else {
			o.lastCET[tt] = c
		}
	}
}

// checkPools: memory-pool conservation. Fixed pools: free + outstanding
// blocks == created blocks. Variable pools: free hole bytes + carved bytes
// == arena size. This is the oracle that catches PoolLeak corruption.
func (o *Oracles) checkPools(now sysc.Time) {
	for _, p := range o.k.SnapshotFixedPools() {
		if p.Free+p.Outstanding != p.Total {
			o.fail(now, "pool-accounting",
				"mpf#%d(%s): free %d + outstanding %d != total %d",
				p.ID, p.Name, p.Free, p.Outstanding, p.Total)
		}
	}
	for _, p := range o.k.SnapshotVariablePools() {
		if p.FreeBytes+p.AllocBytes != p.ArenaSize {
			o.fail(now, "pool-accounting",
				"mpl#%d(%s): free %d + allocated %d != arena %d",
				p.ID, p.Name, p.FreeBytes, p.AllocBytes, p.ArenaSize)
		}
	}
}

// checkRunning: at most one task RUNNING at any stable instant.
func (o *Oracles) checkRunning(now sysc.Time, tasks []tkernel.TaskInfo) {
	running := 0
	for _, t := range tasks {
		if t.State == core.StateRunning {
			running++
		}
	}
	if running > 1 {
		o.fail(now, "single-running", "%d tasks RUNNING simultaneously", running)
	}
}

// checkReadyQueue: the external scheduler's queue population equals the
// number of READY threads (the RUNNING thread is never queued).
func (o *Oracles) checkReadyQueue(now sysc.Time, tasks []tkernel.TaskInfo) {
	ready := 0
	for _, tt := range o.k.API().Threads() {
		if tt.State() == core.StateReady {
			ready++
		}
	}
	if n := o.k.API().ReadyCount(); n != ready {
		o.fail(now, "ready-queue", "scheduler holds %d threads, %d are READY", n, ready)
	}
}

// checkWaitQueues: no lost wakeups, expressed structurally — every task
// WAITING on a queue-backed kernel object must be a member of that object's
// wait queue (a task missing from the queue can never be granted the
// resource and would sleep forever). Bare waits ("sleep", "delay") have no
// queue; object classes without snapshots (flags, mailboxes, rendezvous)
// are skipped.
func (o *Oracles) checkWaitQueues(now sysc.Time, tasks []tkernel.TaskInfo) {
	sets := map[string]map[tkernel.ID]bool{}
	add := func(class string, id tkernel.ID, name string, waiting ...[]tkernel.WaitRef) {
		set := map[tkernel.ID]bool{}
		for _, refs := range waiting {
			for _, w := range refs {
				set[w.ID] = true
			}
		}
		sets[objLabel(class, id, name)] = set
	}
	for _, m := range o.k.SnapshotMutexes() {
		add("mtx", m.ID, m.Name, m.Waiting)
	}
	for _, s := range o.k.SnapshotSemaphores() {
		add("sem", s.ID, s.Name, s.Waiting)
	}
	for _, p := range o.k.SnapshotFixedPools() {
		add("mpf", p.ID, p.Name, p.Waiting)
	}
	for _, p := range o.k.SnapshotVariablePools() {
		add("mpl", p.ID, p.Name, p.Waiting)
	}
	for _, b := range o.k.SnapshotMessageBuffers() {
		add("mbf", b.ID, b.Name, b.SendWaiting, b.RecvWaiting)
	}
	for _, t := range tasks {
		if t.State != core.StateWaiting && t.State != core.StateWaitSuspended {
			continue
		}
		set, ok := sets[t.WaitObj]
		if !ok {
			continue
		}
		if !set[t.ID] {
			o.fail(now, "wait-queue",
				"task#%d(%s) WAITING on %s but absent from its wait queue",
				t.ID, t.Name, t.WaitObj)
		}
	}
}

// checkMutexes: ownership sanity and priority-inheritance correctness. A
// task's effective priority must equal the strongest of its base priority,
// the ceilings of owned TA_CEILING mutexes, and the head-waiter priority of
// owned TA_INHERIT mutexes (mirroring the kernel's recompute rule); owners
// are never dormant and never wait on a mutex they own.
func (o *Oracles) checkMutexes(now sysc.Time, tasks []tkernel.TaskInfo) {
	byID := map[tkernel.ID]tkernel.TaskInfo{}
	for _, t := range tasks {
		byID[t.ID] = t
	}
	expected := map[tkernel.ID]int{}
	for _, t := range tasks {
		expected[t.ID] = t.BasePrio
	}
	for _, m := range o.k.SnapshotMutexes() {
		if !m.HasOwner {
			continue
		}
		owner, ok := byID[m.Owner]
		if !ok {
			o.fail(now, "mutex", "mtx#%d(%s) owned by unknown task %d", m.ID, m.Name, m.Owner)
			continue
		}
		if owner.State == core.StateDormant {
			o.fail(now, "mutex", "mtx#%d(%s) owned by DORMANT task#%d(%s)",
				m.ID, m.Name, owner.ID, owner.Name)
		}
		for _, w := range m.Waiting {
			if w.ID == m.Owner {
				o.fail(now, "mutex", "mtx#%d(%s): owner task#%d waits on its own mutex",
					m.ID, m.Name, w.ID)
			}
		}
		if m.Attr&tkernel.TaCeiling != 0 && m.Ceiling < expected[m.Owner] {
			expected[m.Owner] = m.Ceiling
		}
		if m.Attr&tkernel.TaInherit != 0 && len(m.Waiting) > 0 &&
			m.Waiting[0].Priority < expected[m.Owner] {
			expected[m.Owner] = m.Waiting[0].Priority
		}
	}
	for _, t := range tasks {
		if t.State == core.StateDormant {
			continue
		}
		if want := expected[t.ID]; t.Priority != want {
			o.fail(now, "priority",
				"task#%d(%s) effective priority %d, expected %d (base %d)",
				t.ID, t.Name, t.Priority, want, t.BasePrio)
		}
	}
}

// OracleState is the captured accumulator state of an Oracles set, taken
// at a checkpoint of a passing run so warm ddmin trials can rewind the
// oracles alongside the kernel.
type OracleState struct {
	last     sysc.Time
	primed   bool
	segIdx   int
	maxEnd   sysc.Time
	lastBusy sysc.Time
	lastCET  map[*core.TThread]sysc.Time
	checks   int
}

// SaveState captures the oracle accumulators. It refuses a state with
// recorded violations: a checkpoint is only a valid trial base when the
// prefix was clean.
func (o *Oracles) SaveState() (OracleState, error) {
	if len(o.Violations) > 0 {
		return OracleState{}, fmt.Errorf("chaos: cannot checkpoint oracles with %d violation(s)", len(o.Violations))
	}
	st := OracleState{
		last: o.last, primed: o.primed,
		segIdx: o.segIdx, maxEnd: o.maxEnd,
		lastBusy: o.lastBusy, checks: o.checks,
		lastCET: make(map[*core.TThread]sysc.Time, len(o.lastCET)),
	}
	for tt, c := range o.lastCET {
		st.lastCET[tt] = c
	}
	return st, nil
}

// LoadState rewinds the oracles to a captured state, clearing violations.
func (o *Oracles) LoadState(st OracleState) {
	o.last = st.last
	o.primed = st.primed
	o.segIdx = st.segIdx
	o.maxEnd = st.maxEnd
	o.lastBusy = st.lastBusy
	o.checks = st.checks
	clear(o.lastCET)
	for tt, c := range st.lastCET {
		o.lastCET[tt] = c
	}
	o.Violations = nil
}

// objLabel mirrors the kernel's wait-object label ("class#id(name)").
func objLabel(class string, id tkernel.ID, name string) string {
	if name != "" {
		return fmt.Sprintf("%s#%d(%s)", class, id, name)
	}
	return fmt.Sprintf("%s#%d", class, id)
}
