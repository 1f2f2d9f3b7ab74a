package tkernel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/run/opts"
	"repro/internal/sched"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// ID identifies a kernel object within its class (task, semaphore, ...).
type ID int

// TMO is a timeout for wait services. Non-negative values are durations;
// TmoPol polls (fail immediately instead of waiting) and TmoFevr waits
// forever.
type TMO = sysc.Time

// Timeout sentinels.
const (
	TmoPol  TMO = 0
	TmoFevr TMO = -1
)

// Attributes of kernel objects (subset of T-Kernel object attributes).
type Attr uint32

// Object attribute bits.
const (
	TaTFIFO   Attr = 0      // wait queue in FIFO order
	TaTPRI    Attr = 1 << 0 // wait queue in task priority order
	TaWSGL    Attr = 0      // event flag: single waiter
	TaWMUL    Attr = 1 << 1 // event flag: multiple waiters allowed
	TaMFIFO   Attr = 0      // mailbox messages in FIFO order
	TaMPRI    Attr = 1 << 2 // mailbox messages in priority order
	TaInherit Attr = 1 << 3 // mutex: priority inheritance
	TaCeiling Attr = 1 << 4 // mutex: priority ceiling
)

// Costs is the ETM/EEM annotation model for kernel code: the execution time
// and energy charged to the calling T-THREAD for each class of kernel step.
// The paper estimated these a priori for RTK-Spec TRON; they are fully
// user-overridable (and calibratable against an ISS, the paper's future
// work).
type Costs struct {
	Service  core.Cost // one tk_* service call body
	Dispatch core.Cost // one context switch
	TimerIRQ core.Cost // timer-handler pass per tick
}

// DefaultCosts returns the estimated annotations used by the case study:
// a few microseconds and sub-microjoule per kernel step, realistic for the
// i8051-class target of the paper.
func DefaultCosts() Costs {
	return Costs{
		Service:  core.Cost{Time: 5 * sysc.Us, Energy: 250 * petri.NanoJ},
		Dispatch: core.Cost{Time: 8 * sysc.Us, Energy: 400 * petri.NanoJ},
		TimerIRQ: core.Cost{Time: 3 * sysc.Us, Energy: 150 * petri.NanoJ},
	}
}

// ZeroCosts returns an annotation model with no kernel overhead (useful for
// functional tests that assert exact timings).
func ZeroCosts() Costs { return Costs{} }

// Config parameterizes a kernel instance. The embedded CommonOptions carry
// the cross-kernel knobs: Tick is the system-clock resolution driving the
// central module (default 1 ms, the paper's RTC resolution), Bus/Gantt the
// observability wiring; TimeSlice is ignored (the T-Kernel policy is purely
// priority-preemptive).
type Config struct {
	opts.CommonOptions

	// TickSource, when non-nil, is an external tick event (the BFM's
	// real-time clock). When nil the kernel generates its own tick.
	TickSource *sysc.Event
	// Ticker, when non-nil, is the periodic source behind TickSource. Handing
	// the kernel the Ticker (not just its event) enables the tickless
	// fast-forward: at quiescent points the kernel skips tick firings that
	// provably do nothing. Only safe when the kernel is the sole consumer of
	// the tick event. Ignored when TickSource is nil (the kernel then owns
	// its ticker and fast-forwards it anyway).
	Ticker *sysc.Ticker
	// DisableTickless forces every tick to be simulated even when the kernel
	// holds the Ticker handle (for A/B trace comparison and debugging).
	DisableTickless bool
	// Costs is the kernel ETM/EEM annotation model.
	Costs Costs
	// MaxPriority bounds task priorities (1..MaxPriority; default 140).
	MaxPriority int
	// WupCountMax bounds queued wakeups per task (default 65535).
	WupCountMax int

	// TickDelay is the delayed-tick-delivery fault hook: it is consulted
	// with each tick's ordinal and a positive return defers that tick's
	// timer pass (cyclic/alarm firings, wait timeouts) by the returned
	// amount. The hook must be deterministic. Fault instrumentation is
	// frozen at construction so concurrent jobs can never race on it.
	TickDelay func(tick uint64) sysc.Time
	// InterruptFilter is the dropped-interrupt fault hook: it screens every
	// RaiseInterrupt before dispatch and may suppress the raise. The hook
	// must be deterministic.
	InterruptFilter func(intno int) IntDecision
	// ConsumeShaper is the execution-time-inflation fault hook, applied to
	// every Consume cost before the budget is spent (forwarded to the
	// SIM_API instance; see core.WithConsumeShaper).
	ConsumeShaper func(t *core.TThread, c core.Cost, ctx trace.Context) core.Cost
}

// Kernel is one instance of the RTK-Spec TRON simulation model. Create it
// with New, populate the application in the initial task via Boot, and run
// the underlying sysc simulator.
type Kernel struct {
	sim *sysc.Simulator
	api *core.SimAPI
	bus *event.Bus
	cfg Config

	tasks map[ID]*Task
	sems  map[ID]*Semaphore
	flags map[ID]*EventFlag
	mtxs  map[ID]*Mutex
	mbxs  map[ID]*Mailbox
	mbfs  map[ID]*MessageBuffer
	mpfs  map[ID]*FixedPool
	mpls  map[ID]*VariablePool
	cycs  map[ID]*CyclicHandler
	alms  map[ID]*AlarmHandler
	isrs  map[int]*ISR
	pors  map[ID]*Port

	rdvs    map[RdvNo]portRdv
	nextRdv uint64

	nextTask, nextSem, nextFlg, nextMtx, nextMbx, nextMbf ID
	nextMpf, nextMpl, nextCyc, nextAlm, nextPor           ID

	timerQ  timerQueue
	sysBase sysc.Time // tk_set_tim offset: system time = sysBase + sim time
	ticks   uint64

	// ticker is non-nil exactly when the tickless fast-forward is active:
	// the kernel holds the periodic source's handle and may skip provably
	// idle tick firings (crediting them to ticks).
	ticker *sysc.Ticker

	// tickDelay and intFilter are the fault hooks frozen from Config at
	// construction (Config.TickDelay, Config.InterruptFilter); tickDeferEv
	// carries a deferred tick's late timer pass.
	tickDelay   func(tick uint64) sysc.Time
	tickDeferEv *sysc.Event
	intFilter   func(intno int) IntDecision

	booted bool
	disDsp bool
}

// New creates a kernel bound to a fresh SIM_API instance over sim, using
// the T-Kernel priority-based preemptive scheduling policy.
func New(sim *sysc.Simulator, cfg Config) *Kernel {
	if cfg.Tick <= 0 {
		cfg.Tick = 1 * sysc.Ms
	}
	if cfg.MaxPriority <= 0 {
		cfg.MaxPriority = 140
	}
	if cfg.WupCountMax <= 0 {
		cfg.WupCountMax = 65535
	}
	bus := cfg.Bus
	if bus == nil {
		bus = event.NewBus()
	}
	event.AttachSimulator(bus, sim)
	if cfg.Gantt != nil {
		trace.AttachGantt(bus, cfg.Gantt)
	}
	var apiOpts []core.Option
	if cfg.ConsumeShaper != nil {
		apiOpts = append(apiOpts, core.WithConsumeShaper(cfg.ConsumeShaper))
	}
	k := &Kernel{
		sim:       sim,
		api:       core.NewSimAPI(sim, sched.NewPriority(), bus, apiOpts...),
		bus:       bus,
		cfg:       cfg,
		tickDelay: cfg.TickDelay,
		intFilter: cfg.InterruptFilter,
		tasks:     map[ID]*Task{},
		sems:      map[ID]*Semaphore{},
		flags:     map[ID]*EventFlag{},
		mtxs:      map[ID]*Mutex{},
		mbxs:      map[ID]*Mailbox{},
		mbfs:      map[ID]*MessageBuffer{},
		mpfs:      map[ID]*FixedPool{},
		mpls:      map[ID]*VariablePool{},
		cycs:      map[ID]*CyclicHandler{},
		alms:      map[ID]*AlarmHandler{},
		isrs:      map[int]*ISR{},
		pors:      map[ID]*Port{},
		rdvs:      map[RdvNo]portRdv{},
	}
	return k
}

// API exposes the SIM_API library instance (for debugger support and
// experiment harnesses).
func (k *Kernel) API() *core.SimAPI { return k.api }

// Bus returns the kernel event bus: the single observation surface for
// traces, metrics and invariant oracles. Never nil.
func (k *Kernel) Bus() *event.Bus { return k.bus }

// Sim returns the underlying simulator.
func (k *Kernel) Sim() *sysc.Simulator { return k.sim }

// Tick returns the configured system-clock resolution.
func (k *Kernel) Tick() sysc.Time { return k.cfg.Tick }

// Ticks returns the number of system ticks processed so far.
func (k *Kernel) Ticks() uint64 { return k.ticks }

// Boot installs the kernel's central module (Figure 3) and schedules the
// startup sequence: on "reset" the Boot process initializes the kernel
// internal state and starts the initial task, which calls the user main
// entry to create and start tasks, handlers and application resources.
// The initial task runs at the highest priority (0).
func (k *Kernel) Boot(userMain func(*Kernel)) {
	if k.booted {
		panic("tkernel: Boot called twice")
	}
	k.booted = true

	// Thread Dispatch: sensitive to the system tick; activates the timer
	// handler inside T-Kernel/OS.
	tickEv := k.cfg.TickSource
	ticker := k.cfg.Ticker
	if tickEv == nil {
		ticker = sysc.NewTicker(k.sim, "tkernel.tick", k.cfg.Tick)
		tickEv = ticker.Event()
	}
	k.sim.SpawnMethod("tkernel.thread_dispatch", k.timerHandler, tickEv)
	if ticker != nil && !k.cfg.DisableTickless {
		k.ticker = ticker
		k.sim.SetWarpHook(k.warp)
	}

	// Deferred-tick carrier for the delayed-tick-delivery fault hook.
	k.tickDeferEv = k.sim.NewEvent("tkernel.tick_defer")
	k.sim.SpawnMethod("tkernel.deferred_tick", k.runTimerQ, k.tickDeferEv)

	// Boot module: kernel startup upon H/W reset (time zero).
	k.sim.Spawn("tkernel.boot", func(th *sysc.Thread) {
		init := k.api.CreateThread("INIT", core.KindTask, 0, func(tt *core.TThread) {
			tt.Consume(k.cfg.Costs.Service, trace.CtxStartup, "kernel-init")
			userMain(k)
		})
		k.tasks[0] = &Task{id: 0, k: k, tt: init, name: "INIT"}
		init.SetExinf(k.tasks[0])
		if err := k.api.Activate(init); err != nil {
			panic(err)
		}
	})
}

// timerHandler is the kernel timer handler, activated by Thread Dispatch on
// every system tick: it updates the system clock and checks the timer queue
// for cyclic events, alarm events, and task-resuming (timeout) events, then
// drives the simulation library to dispatch or preempt.
func (k *Kernel) timerHandler() {
	k.ticks++
	if k.tickDelay != nil {
		if d := k.tickDelay(k.ticks); d > 0 {
			// Deliver this tick's timer pass late. Overlapping deferrals
			// merge onto the earliest pending delivery (sc_event override
			// rules), which models a hardware timer losing edges: the late
			// pass pops everything due by then in one go.
			k.tickDeferEv.NotifyAfter(d)
			return
		}
	}
	k.runTimerQ()
}

// runTimerQ pops and runs every timer-queue entry due at the current time.
func (k *Kernel) runTimerQ() {
	now := k.sim.Now()
	for {
		it, ok := k.timerQ.popDue(now)
		if !ok {
			return
		}
		if k.bus.Wants(event.KindTimerFire) {
			k.bus.Publish(event.Event{Kind: event.KindTimerFire,
				Time: now, Start: it.when, Seq: it.seq})
		}
		it.fn()
	}
}

// warp is the tickless fast-forward, called by the simulator at every
// quiescent point. A tick firing is a no-op unless a kernel timer entry is
// due at it, so the ticker can jump straight to the first instant with real
// work: the earliest timer deadline, the earliest non-tick simulator event
// (whatever it makes runnable may call timed services), or the Start horizon
// (so step mode observes the same final tick count). SkipTo grid-ceils the
// target and preserves phase; the skipped firings are credited to ticks up
// front, which is exact because nothing can run — and hence nothing can read
// Ticks() — before the first of those instants.
func (k *Kernel) warp(now, horizon sysc.Time) {
	if k.tickDelay != nil {
		return // chaos tick faults must see every tick delivered
	}
	next, ok := k.ticker.NextFire()
	if !ok {
		return
	}
	target := sysc.Time(-1)
	if w, ok := k.timerQ.earliest(); ok {
		target = w
	}
	if w, ok := k.sim.NextTimedExcluding(k.ticker.Gen()); ok && (target < 0 || w < target) {
		target = w
	}
	if horizon != sysc.MaxTime && (target < 0 || horizon < target) {
		target = horizon
	}
	if target <= next {
		// Nothing to skip — including the unbounded-Run-with-no-work case
		// (target < 0), where the ticker must stay free-running.
		return
	}
	k.ticks += uint64(k.ticker.SkipTo(target))
}

// after schedules fn to run at the first tick at or after d from now.
// Returns the entry handle (sequence number) for diagnostics.
func (k *Kernel) after(d sysc.Time, fn func()) uint64 {
	when := k.sim.Now() + d
	if k.ticker != nil && k.tickDelay == nil {
		// Backstop for deadlines created outside the simulation (service
		// calls between Start steps): if the ticker was fast-forwarded past
		// this deadline's tick, pull it back and undo the skip credit.
		k.ticks -= uint64(k.ticker.EnsureFire(when))
	}
	return k.timerQ.add(when, fn)
}

// SystemTime returns the current system time (tk_get_tim).
func (k *Kernel) SystemTime() sysc.Time { return k.sysBase + k.sim.Now() }

// SetSystemTime sets the current system time (tk_set_tim).
func (k *Kernel) SetSystemTime(t sysc.Time) { k.sysBase = t - k.sim.Now() }

// --- service-call machinery ---

// caller returns the task whose body invoked the current service call, or
// nil when the call comes from a handler or a plain simulation process.
func (k *Kernel) caller() *Task {
	tt := k.api.ExecutingThread()
	if tt == nil {
		return nil
	}
	if task, ok := tt.Exinf().(*Task); ok && tt.Kind() == core.KindTask {
		return task
	}
	return nil
}

// enterSvc is the service-call prologue: it locks dispatching for the
// duration of the call body (service-call atomicity), publishes the enter
// event and charges the service ETM/EEM annotation to the calling T-THREAD.
// Every service pairs it with a deferred exitSvc over a named ER result, so
// the exit event carries the resolved return code on every path — including
// early E_ID/E_NOEXS error returns.
func (k *Kernel) enterSvc(name string) {
	tt := k.api.ExecutingThread()
	if tt != nil {
		// A preempted caller must be dispatched again before it may begin
		// an atomic service body (see TThread.AwaitCPU).
		tt.AwaitCPU()
	}
	k.api.LockDispatch()
	if k.bus.Wants(event.KindSvcEnter) {
		k.bus.Publish(event.Event{Kind: event.KindSvcEnter,
			Time: k.sim.Now(), Thread: threadName(tt), Obj: name})
	}
	if tt != nil {
		tt.Consume(k.cfg.Costs.Service, trace.CtxService, name)
	}
}

// exitSvc is the service-call epilogue: it publishes the exit event with the
// resolved error code and releases the dispatch lock.
func (k *Kernel) exitSvc(name string, er *ER) {
	if task := k.caller(); task != nil && task.parked {
		// A reset unwound the task out of a parked service (see finish):
		// the dispatch lock was already released around the wait and the
		// service never completes, so there is nothing to unlock or report.
		task.parked = false
		return
	}
	if k.bus.Wants(event.KindSvcExit) {
		k.bus.Publish(event.Event{Kind: event.KindSvcExit,
			Time: k.sim.Now(), Thread: threadName(k.api.ExecutingThread()),
			Obj: name, Code: int(*er)})
	}
	k.api.UnlockDispatch()
}

// threadName names a T-THREAD, tolerating nil (handler/boot contexts).
func threadName(tt *core.TThread) string {
	if tt == nil {
		return ""
	}
	return tt.Name()
}

// blockCheck validates that the executing context may issue a blocking wait
// with the given timeout: only task context, outside handlers, with
// dispatching enabled beyond the service's own lock. It returns the calling
// task, or an error code.
func (k *Kernel) blockCheck(tmout TMO) (*Task, ER) {
	if tmout < TmoFevr {
		return nil, EPAR
	}
	if k.api.InHandler() {
		return nil, ECTX
	}
	task := k.caller()
	if task == nil {
		return nil, ECTX
	}
	return task, EOK
}

// armedWait is a committed-but-not-yet-blocked wait: the task is on its
// object's wait queue with the timeout armed, and the caller must complete
// the wait (block on obj, then endSleep): finish for a closure task,
// StepBlock for a program machine.
// Each Task embeds one (a task waits on at most one object), so arming a
// wait never allocates.
type armedWait struct {
	task *Task
	obj  string
}

// armSleep is the first half of sleepOn: it commits the calling task to a
// wait (seq-based timeout invalidation guarantees a stale timeout never
// releases a newer wait of the same task) and returns the armed wait for
// the caller's blocking path to complete.
func (k *Kernel) armSleep(task *Task, obj string, tmout TMO, cancel func()) *armedWait {
	task.waitSeq++
	seq := task.waitSeq
	task.waitCancel = cancel
	if tmout >= 0 {
		k.after(tmout, func() {
			if task.waitSeq == seq && task.tt.State() != core.StateDormant {
				if task.waitCancel != nil {
					task.waitCancel()
					task.waitCancel = nil
				}
				k.api.Release(task.tt, ETMOUT)
			}
		})
	}
	task.aw.task = task
	task.aw.obj = obj
	return &task.aw
}

// endSleep is the second half of sleepOn, run after the block completes
// under the re-acquired dispatch lock: it invalidates any outstanding
// timeout and resolves the release code.
func (k *Kernel) endSleep(task *Task, err error) ER {
	task.waitSeq++
	task.waitCancel = nil
	return erOf(err)
}

// finish completes a split service body for a closure task. A body that
// did not arm a wait just yields its code; one that did is blocked here
// with the service's dispatch lock released around the wait (atomicity
// covers the call body up to the block) and re-acquired afterwards. A
// reset unwinding the task out of the wait leaves parked set, which tells
// the service's deferred exitSvc there is no lock to release. The program
// machine replaces this with StepBlock at the same point.
func (k *Kernel) finish(er ER, aw *armedWait) ER {
	if aw == nil {
		return er
	}
	k.api.UnlockDispatch()
	aw.task.parked = true
	err := k.api.BlockCurrent(aw.obj)
	aw.task.parked = false
	k.api.LockDispatch()
	return k.endSleep(aw.task, err)
}

// sleepOn blocks the calling task on a kernel object with an optional
// timeout and returns the wait release code (armSleep + finish in one
// step, for services that are not split onto the program IR).
func (k *Kernel) sleepOn(task *Task, obj string, tmout TMO, cancel func()) ER {
	return k.finish(EOK, k.armSleep(task, obj, tmout, cancel))
}

// wake releases a waiting task with the given code, invalidating its
// timeout entry and wait-queue bookkeeping.
func (k *Kernel) wake(task *Task, code ER) {
	task.waitSeq++
	task.waitCancel = nil
	if code == EOK {
		k.api.Release(task.tt, nil)
	} else {
		k.api.Release(task.tt, code)
	}
}

// timerQueue is the kernel's time-event queue: entries fire in (when, seq)
// order when the timer handler observes their deadline at a tick. It is a
// binary min-heap on (when, seq), so add/pop are O(log n) and the earliest
// deadline — which the tickless fast-forward consults at every quiescent
// point — is O(1).
type timerQueue struct {
	items []timerItem
	seq   uint64
}

type timerItem struct {
	when sysc.Time
	seq  uint64
	fn   func()
}

func (q *timerQueue) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

func (q *timerQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *timerQueue) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.less(l, min) {
			min = l
		}
		if r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		q.items[i], q.items[min] = q.items[min], q.items[i]
		i = min
	}
}

func (q *timerQueue) add(when sysc.Time, fn func()) uint64 {
	q.seq++
	q.items = append(q.items, timerItem{when: when, seq: q.seq, fn: fn})
	q.up(len(q.items) - 1)
	return q.seq
}

// popDue removes and returns the earliest entry with when <= now.
func (q *timerQueue) popDue(now sysc.Time) (timerItem, bool) {
	if len(q.items) == 0 || q.items[0].when > now {
		return timerItem{}, false
	}
	it := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = timerItem{} // drop the fn reference
	q.items = q.items[:last]
	q.down(0)
	return it, true
}

// earliest returns the earliest pending deadline.
func (q *timerQueue) earliest() (sysc.Time, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].when, true
}

// Len returns the number of pending time events.
func (q *timerQueue) Len() int { return len(q.items) }

// waitQueue orders tasks waiting on a kernel object, FIFO or by priority
// according to the object's attributes. It is an intrusive doubly-linked
// list threaded through the wqNext/wqPrev links embedded in each Task — a
// task waits on at most one object, so one embedded node suffices — making
// add and remove O(1) for FIFO queues and alloc-free ordered inserts for
// TA_TPRI queues. The embedded wqIn back-pointer makes remove-if-absent a
// no-op and lets priority changes relocate a waiter without rebuilding
// anything.
//
// A waitQueue must not be copied once tasks are linked (the links point
// back at it); kernel objects embed it by value and never move.
type waitQueue struct {
	first, last *Task
	n           int
	prio        bool
	mtx         *Mutex // owning mutex, for inheritance recompute on re-sort
}

func newWaitQueue(attr Attr) waitQueue { return waitQueue{prio: attr&TaTPRI != 0} }

// add inserts t: at the tail for FIFO queues, or before the first strictly
// lower-precedence waiter for TA_TPRI queues (FIFO within equal priority,
// per T-Kernel). An already-queued task is relocated.
func (q *waitQueue) add(t *Task) {
	if t.wqIn != nil {
		t.wqIn.remove(t)
	}
	if q.prio {
		p := t.tt.Priority()
		for x := q.first; x != nil; x = x.wqNext {
			if p < x.tt.Priority() {
				q.insertBefore(t, x)
				return
			}
		}
	}
	// FIFO tail (also the TA_TPRI "no lower-precedence waiter" case).
	t.wqNext = nil
	t.wqPrev = q.last
	if q.last != nil {
		q.last.wqNext = t
	} else {
		q.first = t
	}
	q.last = t
	t.wqIn = q
	q.n++
}

// insertBefore links t immediately ahead of x (x must be queued here).
func (q *waitQueue) insertBefore(t, x *Task) {
	t.wqNext = x
	t.wqPrev = x.wqPrev
	if x.wqPrev != nil {
		x.wqPrev.wqNext = t
	} else {
		q.first = t
	}
	x.wqPrev = t
	t.wqIn = q
	q.n++
}

// remove unlinks t; no-op when t is not queued here.
func (q *waitQueue) remove(t *Task) {
	if t.wqIn != q {
		return
	}
	if t.wqPrev != nil {
		t.wqPrev.wqNext = t.wqNext
	} else {
		q.first = t.wqNext
	}
	if t.wqNext != nil {
		t.wqNext.wqPrev = t.wqPrev
	} else {
		q.last = t.wqPrev
	}
	t.wqNext, t.wqPrev, t.wqIn = nil, nil, nil
	q.n--
}

func (q *waitQueue) head() *Task { return q.first }

func (q *waitQueue) len() int { return q.n }

// drain repeatedly removes the queue head and hands it to fn (the Del*
// release-everybody pattern; safe against fn mutating the queue).
func (q *waitQueue) drain(fn func(*Task)) {
	for t := q.first; t != nil; t = q.first {
		q.remove(t)
		fn(t)
	}
}

// ids of waiting tasks in queue order, for invariant snapshots.
func (q *waitQueue) ids() []ID {
	var out []ID
	for t := q.first; t != nil; t = t.wqNext {
		out = append(out, t.id)
	}
	return out
}

// prios of waiting tasks in queue order, for invariant snapshots.
func (q *waitQueue) prios() []int {
	var out []int
	for t := q.first; t != nil; t = t.wqNext {
		out = append(out, t.tt.Priority())
	}
	return out
}

// names of waiting tasks, for DS listings.
func (q *waitQueue) names() []string {
	var out []string
	for t := q.first; t != nil; t = t.wqNext {
		out = append(out, t.name)
	}
	return out
}

// refs returns the unified per-waiter view in queue order.
func (q *waitQueue) refs() []WaitRef {
	var out []WaitRef
	for t := q.first; t != nil; t = t.wqNext {
		out = append(out, WaitRef{ID: t.id, Name: t.name, Priority: t.tt.Priority()})
	}
	return out
}

// requeueWaiter re-files a waiting task within its priority-ordered wait
// queue after its effective priority changed (tk_chg_pri on a waiter, or a
// priority-inheritance boost reaching a task that is itself blocked): the
// node is moved to the tail of its new precedence group. When the queue
// belongs to an inheritance mutex, a head change re-propagates the boost to
// that mutex's owner.
func (k *Kernel) requeueWaiter(task *Task) {
	q := task.wqIn
	if q == nil || !q.prio {
		return
	}
	q.remove(task)
	q.add(task)
	if q.mtx != nil {
		k.recomputeInheritance(q.mtx)
	}
}

// setEffective applies an effective-priority change to a task and keeps its
// wait-queue position consistent.
func (k *Kernel) setEffective(task *Task, p int) {
	if p == task.tt.Priority() {
		return
	}
	k.api.SetEffectivePriority(task.tt, p)
	k.requeueWaiter(task)
}

// objName builds the wait-object label shown in traces and DS listings.
func objName(class string, id ID, name string) string {
	if name != "" {
		return fmt.Sprintf("%s#%d(%s)", class, id, name)
	}
	return fmt.Sprintf("%s#%d", class, id)
}
