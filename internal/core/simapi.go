package core

import (
	"fmt"
	"io"
	"repro/internal/petri"
	"sort"

	"repro/internal/event"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// SimAPI is the simulation library of Section 4: the set of programming
// constructs an RTOS kernel simulation model uses to control T-THREAD
// operation. It extends the sysc engine with dispatching, delayed
// dispatching, service-call atomicity, preemption, interrupts and nested
// interrupt handling, keeps the thread registry (SIM_HashTB) and the nested
// interrupt stack (SIM_Stack), and interacts directly with an external
// scheduler to pick the next T-THREAD to run.
//
// Mapping to the paper's API table (Table 1):
//
//	SIM_CreateThread  -> CreateThread
//	SIM_StartThread   -> Activate
//	SIM_Wait          -> (*TThread).Consume
//	SIM_Sleep         -> BlockCurrent
//	SIM_Wakeup        -> Release
//	SIM_Preempt       -> RequestDispatch (scheduler-driven)
//	SIM_IntEnter      -> EnterInterrupt
//	SIM_IntReturn     -> implicit on handler-body return
//	SIM_LockDisp      -> LockDispatch / UnlockDispatch
//	SIM_RotRdq        -> RotateReady
//	SIM_HashTB        -> Threads / Lookup / LookupByName
//	SIM_Gantt         -> Bus (KindRunSlice -> trace.AttachGantt)
//	SIM_EnergyStat    -> EnergyReport
type SimAPI struct {
	sim   *sysc.Simulator
	sched Scheduler
	bus   *event.Bus

	// SIM_HashTB: table is indexed by thread id (slot 0 unused, a deleted
	// thread's slot nil), byCoro by the Coro.Index of the coroutine each
	// T-THREAD runs on.
	table  []*TThread
	order  []*TThread
	byCoro []*TThread

	current *TThread   // the RUNNING task (nil when the CPU idles)
	istack  []*TThread // SIM_Stack: nested interrupt/time-event handlers

	dispatchLocked  int  // nesting count: service-call atomicity, tk_dis_dsp
	pendingDispatch bool // delayed dispatching latch

	busy sysc.Time // total CPU busy time (all threads)

	// Statistics.
	ctxSwitches uint64
	preemptions uint64
	interrupts  uint64
	maxIStack   int

	// consumeShaper, if set, transforms every Consume cost before it is
	// spent (the chaos ETM-inflation hook: per-basic-block execution-time
	// perturbation). It must be deterministic for reproducible runs. This is
	// an intervention hook, not observation — it stays outside the bus, and
	// it is frozen at construction (WithConsumeShaper) so concurrent
	// simulations can never race on it.
	consumeShaper func(t *TThread, c Cost, ctx trace.Context) Cost
}

// Option configures a SimAPI instance at construction. Intervention hooks
// are options (not setters) so an instance's instrumentation is immutable
// once it exists — a hard requirement for serving concurrent jobs.
type Option func(*SimAPI)

// WithConsumeShaper installs a cost transformer applied to every Consume
// call before the budget is spent — the fault-injection hook for
// execution-time inflation (a miscalibrated ETM, cache pollution, DVFS
// throttling). The shaper sees the consuming thread and the execution
// context and returns the perturbed cost; it must be deterministic.
func WithConsumeShaper(fn func(t *TThread, c Cost, ctx trace.Context) Cost) Option {
	return func(a *SimAPI) { a.consumeShaper = fn }
}

// NewSimAPI creates the library bound to a sysc simulator, an external
// scheduler and an event bus. All observation — run slices, token
// transitions, kernel dynamics — is published on the bus; pass nil to have
// the library create a private one (events then flow to whoever subscribes
// via Bus()).
func NewSimAPI(sim *sysc.Simulator, sched Scheduler, bus *event.Bus, opts ...Option) *SimAPI {
	if bus == nil {
		bus = event.NewBus()
	}
	a := &SimAPI{
		sim:   sim,
		sched: sched,
		bus:   bus,
		table: make([]*TThread, 1),
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Sim returns the underlying sysc simulator.
func (a *SimAPI) Sim() *sysc.Simulator { return a.sim }

// Bus returns the kernel event bus the library publishes on. Never nil.
func (a *SimAPI) Bus() *event.Bus { return a.bus }

// publish emits a kernel-dynamics event about thread t (nil for the kernel
// itself). It is a no-op bitmask test when nobody subscribed to the kind;
// callers that must format obj guard with Wants themselves.
func (a *SimAPI) publish(k event.Kind, t *TThread, obj string) {
	if !a.bus.Wants(k) {
		return
	}
	a.bus.Publish(event.Event{Kind: k, Time: a.sim.Now(), Thread: t.Subject(), Obj: obj})
}

// --- SIM_HashTB: thread registry ---

// CreateThread registers a new T-THREAD in the dormant state
// (SIM_CreateThread). The body runs once per activation cycle, driven by
// the same cycle driver as a compiled body (coroStep) on a thread of its
// own, whose goroutine parks inside the body at every wait.
func (a *SimAPI) CreateThread(name string, kind Kind, priority int, body func(*TThread)) *TThread {
	t := a.newThread(name, kind, priority)
	t.compiled = closureBody(body)
	t.th = a.sim.Spawn("tthread."+name, func(th *sysc.Thread) {
		for {
			t.coroStep(th.Coro())
			th.Park()
		}
	})
	t.co = t.th.Coro()
	a.bindCoro(t)
	return t
}

// newThread registers the engine-independent half of a new dormant
// T-THREAD: identity, firing sequence, dispatch/preempt events and the
// subject and names its events carry, all formed once here. Ids are dense
// from 1 and never reused.
func (a *SimAPI) newThread(name string, kind Kind, priority int) *TThread {
	t := &TThread{
		api:          a,
		subj:         event.Subject{Index: len(a.table), Name: name},
		byName:       "by " + name,
		kind:         kind,
		priority:     priority,
		basePriority: priority,
		state:        StateDormant,
		place:        plDormant,
		seq:          petri.NewFiringSequence(len(tthreadArcs)),
	}
	t.dispatchEv = a.sim.NewEvent(name + ".dispatch")
	t.preemptEv = a.sim.NewEvent(name + ".preempt")
	a.table = append(a.table, t)
	a.order = append(a.order, t)
	return t
}

// bindCoro records the coroutine t runs on, so ExecutingThread finds t.
func (a *SimAPI) bindCoro(t *TThread) {
	i := t.co.Index()
	for len(a.byCoro) <= i {
		a.byCoro = append(a.byCoro, nil)
	}
	a.byCoro[i] = t
}

// DeleteThread removes a dormant thread from the registry (tk_del_tsk).
func (a *SimAPI) DeleteThread(t *TThread) error {
	if t.state != StateDormant {
		return fmt.Errorf("core: delete %q: thread not dormant (%v)", t.Name(), t.state)
	}
	t.state = StateNonExistent
	a.table[t.ID()] = nil
	a.byCoro[t.co.Index()] = nil
	for i, x := range a.order {
		if x == t {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
	return nil
}

// Lookup returns the registered thread with the given ID, or nil.
func (a *SimAPI) Lookup(id int) *TThread {
	if uint(id) < uint(len(a.table)) {
		return a.table[id]
	}
	return nil
}

// LookupByName returns the first registered thread with the given name.
func (a *SimAPI) LookupByName(name string) *TThread {
	for _, t := range a.order {
		if t.Name() == name {
			return t
		}
	}
	return nil
}

// Threads returns all registered threads in creation order.
func (a *SimAPI) Threads() []*TThread {
	out := make([]*TThread, len(a.order))
	copy(out, a.order)
	return out
}

// Current returns the RUNNING task (nil when idle).
func (a *SimAPI) Current() *TThread { return a.current }

// CPUOwner returns the thread executing right now: the top of the interrupt
// stack, or the current task.
func (a *SimAPI) CPUOwner() *TThread {
	if n := len(a.istack); n > 0 {
		return a.istack[n-1]
	}
	return a.current
}

// ExecutingThread returns the T-THREAD whose body is executing right now,
// or nil when kernel code runs in a plain simulation process (central
// module, interrupt dispatch, boot). Kernel layers use it to attribute
// service-call costs to the calling task safely.
func (a *SimAPI) ExecutingThread() *TThread {
	if c := a.sim.CurrentCoro(); c != nil && c.Index() < len(a.byCoro) {
		return a.byCoro[c.Index()]
	}
	return nil
}

// InHandler reports whether a handler-level context is active.
func (a *SimAPI) InHandler() bool { return len(a.istack) > 0 }

// InterruptDepth returns the current interrupt nesting level.
func (a *SimAPI) InterruptDepth() int { return len(a.istack) }

// --- dispatching ---

// LockDispatch disables task dispatching (service-call atomicity and
// tk_dis_dsp). Locks nest.
func (a *SimAPI) LockDispatch() { a.dispatchLocked++ }

// UnlockDispatch re-enables dispatching; a latched (delayed) dispatch is
// performed when the last lock is released outside handler context.
func (a *SimAPI) UnlockDispatch() {
	if a.dispatchLocked == 0 {
		panic("core: UnlockDispatch without matching LockDispatch")
	}
	a.dispatchLocked--
	if a.dispatchLocked == 0 && len(a.istack) == 0 && a.pendingDispatch {
		a.dispatch()
	}
}

// DispatchLocked reports whether task dispatching is currently disabled.
func (a *SimAPI) DispatchLocked() bool { return a.dispatchLocked > 0 }

// DispatchPending reports whether a delayed dispatch is latched, waiting for
// the dispatch lock or handler nest to clear. Invariant oracles use it to
// recognize (and skip) transient scheduling windows.
func (a *SimAPI) DispatchPending() bool { return a.pendingDispatch }

// ReadyCount returns the number of threads the external scheduler holds
// (the READY population; the RUNNING thread is never kept in the queue).
func (a *SimAPI) ReadyCount() int { return a.sched.Len() }

// RequestDispatch asks the library to reconsider which task should run.
// While dispatching is locked or a handler is active the request is latched
// (delayed dispatching) and performed when the lock/handler context ends.
func (a *SimAPI) RequestDispatch() {
	if a.dispatchLocked > 0 || len(a.istack) > 0 {
		a.pendingDispatch = true
		return
	}
	a.dispatch()
}

// dispatch performs the context switch decision: if the scheduler's pick
// must displace the current task, the current task is preempted (returned
// to the head of its precedence class, asked to yield at its next
// preemption point) and the pick becomes RUNNING.
func (a *SimAPI) dispatch() {
	a.pendingDispatch = false
	next := a.sched.Peek()
	if next == nil {
		return
	}
	if cur := a.current; cur != nil {
		if !a.sched.ShouldPreempt(cur, next) {
			return
		}
		a.preemptions++
		if a.bus.Wants(event.KindPreempt) {
			a.publish(event.KindPreempt, cur, next.byName)
		}
		cur.pauseFire()
		cur.state = StateReady
		a.current = nil
		a.sched.EnqueueFront(cur)
		cur.preemptEv.Notify()
		// Re-pick: the preempted task re-entered the queue.
		next = a.sched.Peek()
	}
	a.sched.Dequeue(next)
	a.switchTo(next)
}

// switchTo gives the CPU to t at task level.
func (a *SimAPI) switchTo(t *TThread) {
	a.ctxSwitches++
	t.state = StateRunning
	a.current = t
	a.publish(event.KindDispatch, t, "")
	t.resumeFire()
	t.dispatchEv.Notify()
}

// --- activation, exit, termination ---

// Activate starts a dormant thread (SIM_StartThread / tk_sta_tsk): it
// becomes READY and a dispatch is requested.
func (a *SimAPI) Activate(t *TThread) error {
	if t.state != StateDormant {
		return fmt.Errorf("core: activate %q: not dormant (%v)", t.Name(), t.state)
	}
	t.state = StateReady
	t.relCode = nil
	t.hasPendingRel = false
	a.publish(event.KindActivate, t, "")
	a.sched.Enqueue(t)
	a.RequestDispatch()
	return nil
}

// bodyReturned handles a task body returning (tk_ext_tsk): the thread goes
// dormant, the CPU is released and the next task is dispatched.
func (a *SimAPI) bodyReturned(t *TThread) {
	if t.kind.HandlerLevel() {
		a.exitHandler(t)
		return
	}
	a.publish(event.KindExit, t, "")
	// The body may return while the thread is READY (preempted at the very
	// last instant, e.g. by the task it just woke); it exits regardless.
	a.sched.Dequeue(t)
	t.terminateFire()
	t.state = StateDormant
	t.suspCount = 0
	if a.current == t {
		a.current = nil
	}
	if t.actCount > 0 {
		t.actCount--
		t.state = StateReady
		a.sched.Enqueue(t)
	}
	a.RequestDispatch()
}

// QueueActivation records an additional activation request against an
// active task (ITRON act_tsk queuing semantics); the task re-activates
// when it exits.
func (a *SimAPI) QueueActivation(t *TThread) { t.actCount++ }

// UnqueueActivation cancels one queued activation request (ITRON can_act).
func (a *SimAPI) UnqueueActivation(t *TThread) {
	if t.actCount > 0 {
		t.actCount--
	}
}

// QueuedActivations returns the number of pending activation requests.
func (a *SimAPI) QueuedActivations(t *TThread) int { return t.actCount }

// Terminate forcibly moves a non-dormant thread to DORMANT (tk_ter_tsk).
// The thread's body is unwound at its next preemption point (or instantly
// if it is parked waiting for the CPU).
func (a *SimAPI) Terminate(t *TThread) error {
	switch t.state {
	case StateDormant, StateNonExistent:
		return fmt.Errorf("core: terminate %q: not active (%v)", t.Name(), t.state)
	}
	wasCurrent := a.current == t
	a.publish(event.KindTerminate, t, "")
	if t.place != plDormant {
		// The body is mid-cycle somewhere: request an unwind.
		t.terminated = true
	}
	t.terminateFire()
	a.sched.Dequeue(t)
	t.state = StateDormant
	t.suspCount = 0
	t.waitObj = ""
	t.hasPendingRel = false
	if wasCurrent {
		a.current = nil
	}
	// Wake the body wherever it is parked so the reset can propagate.
	t.preemptEv.Notify()
	t.dispatchEv.Notify()
	if wasCurrent {
		a.RequestDispatch()
	}
	return nil
}

// terminateFire moves the Petri-net token to dormant from wherever it is.
func (t *TThread) terminateFire() {
	switch t.place {
	case plRunning:
		t.fire(trXt, Cost{})
	case plReady:
		t.fire(trTmR, Cost{})
	case plWaiting:
		t.fire(trTmW, Cost{})
	}
}

// --- waiting (the Ew sleep event) ---

// BlockCurrent is SIM_Sleep: the calling task voluntarily enters WAITING on
// the named object and the CPU is handed to the scheduler's next pick. The
// call returns when the task is released and dispatched again; the returned
// error is the release code passed to Release (nil for a normal wakeup).
//
// Must be called from a task body with dispatching unlocked and no handler
// active (kernel layers enforce E_CTX). The caller may have been scheduled
// out in the zero-time window since it decided to block (e.g. it woke a
// higher-priority thread first): it re-acquires the CPU, and a release that
// arrived in that window (latched by Release) completes the wait instantly.
func (a *SimAPI) BlockCurrent(waitObj string) error {
	t := a.ExecutingThread()
	if t == nil {
		panic("core: BlockCurrent from a non-T-THREAD context")
	}
	for {
		s, err := t.StepBlock(waitObj)
		if !t.Park(s) {
			return err
		}
	}
}

// Release is SIM_Wakeup: a waiting thread's sleep event has arrived. The
// thread becomes READY (or SUSPENDED if it was also forcibly suspended) and
// a dispatch is requested. code is delivered as BlockCurrent's return value
// (nil = normal wakeup; kernels pass E_TMOUT, E_RLWAI, E_DLT...).
//
// A READY/RUNNING target is a thread caught in the zero-time window between
// deciding to block and reaching BlockCurrent (it may have been preempted
// by the very thread it woke): the release is latched and completes the
// imminent BlockCurrent immediately, so no wakeup is ever lost. Release
// reports false only for dormant/non-existent targets.
func (a *SimAPI) Release(t *TThread, code error) bool {
	switch t.state {
	case StateWaiting:
		t.state = StateReady
		t.relCode = code
		t.waitObj = ""
		if a.bus.Wants(event.KindRelease) {
			detail := "normal"
			if code != nil {
				detail = code.Error()
			}
			a.publish(event.KindRelease, t, detail)
		}
		t.fire(trWk, Cost{})
		a.sched.Enqueue(t)
		a.RequestDispatch()
		return true
	case StateWaitSuspended:
		t.state = StateSuspended
		t.relCode = code
		t.waitObj = ""
		t.fire(trWk, Cost{})
		return true
	case StateReady, StateRunning:
		t.pendingRel = code
		t.hasPendingRel = true
		return true
	}
	return false
}

// --- forced suspension (tk_sus_tsk / tk_rsm_tsk) ---

// SuspendForce forcibly suspends a thread; suspensions nest.
func (a *SimAPI) SuspendForce(t *TThread) error {
	a.publish(event.KindSuspend, t, "")
	switch t.state {
	case StateRunning:
		t.pauseFire()
		t.state = StateSuspended
		t.suspCount = 1
		if a.current == t {
			a.current = nil
		}
		t.preemptEv.Notify()
		a.RequestDispatch()
	case StateReady:
		a.sched.Dequeue(t)
		t.state = StateSuspended
		t.suspCount = 1
	case StateWaiting:
		t.state = StateWaitSuspended
		t.suspCount = 1
	case StateSuspended, StateWaitSuspended:
		t.suspCount++
	default:
		return fmt.Errorf("core: suspend %q: not active (%v)", t.Name(), t.state)
	}
	return nil
}

// ResumeForce undoes one forced suspension; the thread resumes READY (or
// WAITING) when the count reaches zero.
func (a *SimAPI) ResumeForce(t *TThread) error {
	a.publish(event.KindResume, t, "")
	switch t.state {
	case StateSuspended:
		t.suspCount--
		if t.suspCount <= 0 {
			t.suspCount = 0
			t.state = StateReady
			a.sched.Enqueue(t)
			a.RequestDispatch()
		}
	case StateWaitSuspended:
		t.suspCount--
		if t.suspCount <= 0 {
			t.suspCount = 0
			t.state = StateWaiting
		}
	default:
		return fmt.Errorf("core: resume %q: not suspended (%v)", t.Name(), t.state)
	}
	return nil
}

// --- priority and ready-queue manipulation ---

// ChangePriority sets the thread's base priority and re-queues it if ready
// (tk_chg_pri). A dispatch is requested so the change takes effect.
func (a *SimAPI) ChangePriority(t *TThread, prio int) {
	t.basePriority = prio
	a.SetEffectivePriority(t, prio)
}

// SetEffectivePriority adjusts the scheduling priority without touching the
// base priority (mutex priority inheritance / ceiling).
func (a *SimAPI) SetEffectivePriority(t *TThread, prio int) {
	if t.priority == prio {
		return
	}
	if t.state == StateReady {
		a.sched.Dequeue(t)
		t.priority = prio
		a.sched.Enqueue(t)
	} else {
		t.priority = prio
	}
	a.RequestDispatch()
}

// RotateReady rotates the precedence class of the given priority
// (tk_rot_rdq; time slicing in round-robin kernels).
func (a *SimAPI) RotateReady(priority int) {
	a.sched.Rotate(priority)
	a.RequestDispatch()
}

// YieldCurrent sends the current task to the tail of its precedence class
// and dispatches (round-robin time slice expiry).
func (a *SimAPI) YieldCurrent() {
	cur := a.current
	if cur == nil {
		return
	}
	cur.pauseFire()
	cur.state = StateReady
	a.current = nil
	a.sched.Enqueue(cur)
	cur.preemptEv.Notify()
	a.RequestDispatch()
}

// --- interrupts and time-event handlers (SIM_Stack) ---

// EnterInterrupt activates a handler-level T-THREAD: the CPU owner is asked
// to pause at its next preemption point, the handler is pushed on the
// interrupt stack and dispatched. Nested calls model nested interrupts.
// Activating a handler that is still running reports an overrun error.
func (a *SimAPI) EnterInterrupt(h *TThread) error {
	if !h.kind.HandlerLevel() {
		return fmt.Errorf("core: %q is not a handler-level thread", h.Name())
	}
	if h.state != StateDormant {
		return fmt.Errorf("core: handler %q overrun: still %v", h.Name(), h.state)
	}
	a.interrupts++
	if a.bus.Wants(event.KindIntEnter) {
		a.bus.Publish(event.Event{Kind: event.KindIntEnter, Time: a.sim.Now(),
			Thread: &h.subj, Seq: uint64(len(a.istack) + 1)})
	}
	if owner := a.CPUOwner(); owner != nil {
		owner.pauseFire()
		owner.preemptEv.Notify()
	}
	a.istack = append(a.istack, h)
	if len(a.istack) > a.maxIStack {
		a.maxIStack = len(a.istack)
	}
	h.state = StateRunning
	h.resumeFire()
	h.dispatchEv.Notify()
	return nil
}

// exitHandler completes a handler cycle: pop the interrupt stack, resume
// the interrupted context, and perform any delayed dispatch once the stack
// empties (the paper's delayed-dispatching rule).
func (a *SimAPI) exitHandler(h *TThread) {
	a.publish(event.KindIntExit, h, "")
	h.fire(trXt, Cost{})
	h.state = StateDormant
	if n := len(a.istack); n == 0 || a.istack[n-1] != h {
		panic(fmt.Sprintf("core: handler %q exits out of order", h.Name()))
	}
	a.istack = a.istack[:len(a.istack)-1]
	if n := len(a.istack); n > 0 {
		// Resume the interrupted lower-level handler (Ei).
		top := a.istack[n-1]
		top.resumeFire()
		top.dispatchEv.Notify()
		return
	}
	// Back at task level: honour a delayed dispatch first.
	if a.pendingDispatch && a.dispatchLocked == 0 {
		a.dispatch()
	}
	if cur := a.current; cur != nil {
		// Resume the interrupted task (Ei).
		cur.resumeFire()
		cur.dispatchEv.Notify()
	}
}

// --- statistics and reports ---

// ContextSwitches returns the number of task-level dispatches performed.
func (a *SimAPI) ContextSwitches() uint64 { return a.ctxSwitches }

// Preemptions returns the number of task preemptions performed.
func (a *SimAPI) Preemptions() uint64 { return a.preemptions }

// Interrupts returns the number of handler activations.
func (a *SimAPI) Interrupts() uint64 { return a.interrupts }

// MaxInterruptDepth returns the deepest interrupt nesting observed.
func (a *SimAPI) MaxInterruptDepth() int { return a.maxIStack }

// BusyTime returns total CPU busy time across all threads.
func (a *SimAPI) BusyTime() sysc.Time { return a.busy }

// TotalCEE returns the total consumed energy across all threads.
func (a *SimAPI) TotalCEE() Energy {
	var sum Energy
	for _, t := range a.order {
		sum += t.CEE()
	}
	return sum
}

// EnergyReport writes the per-thread consumed time/energy distribution: the
// data behind the paper's Time/Energy distribution widget (Figure 7).
// Threads are listed in creation order with their share of the totals.
func (a *SimAPI) EnergyReport(w io.Writer) {
	totalT := a.busy
	totalE := a.TotalCEE()
	fmt.Fprintf(w, "%-14s %-8s %14s %8s %14s %8s %8s\n",
		"THREAD", "KIND", "CET", "CET%", "CEE", "CEE%", "CYCLES")
	threads := make([]*TThread, len(a.order))
	copy(threads, a.order)
	sort.SliceStable(threads, func(i, j int) bool { return threads[i].CEE() > threads[j].CEE() })
	for _, t := range threads {
		pt, pe := 0.0, 0.0
		if totalT > 0 {
			pt = 100 * float64(t.CET()) / float64(totalT)
		}
		if totalE > 0 {
			pe = 100 * t.CEE().Joules() / totalE.Joules()
		}
		fmt.Fprintf(w, "%-14s %-8s %14s %7.1f%% %14s %7.1f%% %8d\n",
			t.Name(), t.Kind(), t.CET(), pt, t.CEE(), pe, t.Cycles())
	}
	fmt.Fprintf(w, "%-14s %-8s %14s %8s %14s\n", "TOTAL", "", totalT, "", totalE)
}
