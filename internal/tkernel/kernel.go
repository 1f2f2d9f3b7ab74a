package tkernel

import (
	"cmp"
	"fmt"
	"slices"

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
// and energy charged to the calling T-THREAD for each service call (and
// once to INIT for kernel initialisation).
// The paper estimated these a priori for RTK-Spec TRON; they are fully
// user-overridable (and calibratable against an ISS, the paper's future
// work).
type Costs struct {
	Service core.Cost // one tk_* service call body
}

// DefaultCosts returns the estimated annotations used by the case study:
// a few microseconds and sub-microjoule per kernel step, realistic for the
// i8051-class target of the paper.
func DefaultCosts() Costs {
	return Costs{
		Service: core.Cost{Time: 5 * sysc.Us, Energy: 250 * petri.NanoJ},
	}
}

// ZeroCosts returns an annotation model with no kernel overhead (useful for
// functional tests that assert exact timings).
func ZeroCosts() Costs { return Costs{} }

// Config parameterizes a kernel instance. The embedded CommonOptions carry
// the cross-kernel knobs: Tick is the system-clock resolution driving the
// central module (default 1 ms, the paper's RTC resolution; pass the BFM
// RTC's Period to drive the kernel from the platform clock), Bus/Gantt the
// observability wiring; TimeSlice is ignored (the T-Kernel policy is purely
// priority-preemptive).
type Config struct {
	opts.CommonOptions

	// DisableTickless runs a timer pass at every tick, due entries or not
	// (for A/B trace comparison and debugging). By default a pass runs only
	// at the ticks where a timer entry is due.
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

	// Control blocks in ID-indexed tables, one per object class.
	tasks table[Task]
	sems  table[Semaphore]
	flags table[EventFlag]
	mtxs  table[Mutex]
	mbxs  table[Mailbox]
	mbfs  table[MessageBuffer]
	mpfs  table[FixedPool]
	mpls  table[VariablePool]
	cycs  table[CyclicHandler]
	alms  table[AlarmHandler]
	pors  table[Port]

	// isrs is keyed by the interrupt number the caller chooses, so a table
	// would let one definition decide the kernel's memory; rdvs gets a new
	// number per rendezvous and drops it on reply, so a table would only
	// grow. Both walk in key order through sortedKeys.
	isrs    map[int]*ISR
	rdvs    map[RdvNo]portRdv
	nextRdv uint64

	timerQ  timerQueue
	sysBase sysc.Time // tk_set_tim offset: system time = sysBase + sim time

	// tickEv is the kernel's one timed sysc event: it is armed at due, the
	// tick-grid point of the next timer pass (idle when none is armed).
	// Its method runs twice per pass; passing marks the second run.
	tickEv  *sysc.Event
	due     sysc.Time
	passing bool
	// everyTick arms a pass at every tick (DisableTickless, or a TickDelay
	// hook, which must see every tick delivered).
	everyTick bool

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
		due:       idle,
		everyTick: cfg.DisableTickless || cfg.TickDelay != nil,
		tickDelay: cfg.TickDelay,
		intFilter: cfg.InterruptFilter,
		isrs:      map[int]*ISR{},
		rdvs:      map[RdvNo]portRdv{},
	}
	return k
}

// table is a kernel object table: control blocks in a slice indexed by ID,
// as T-Kernel keeps them. IDs are handed out in creation order and never
// reused, and ID 0 is never handed out (it names the calling task; slot 0
// of the task table holds INIT). A deleted object leaves its slot nil.
type table[T any] struct {
	slots []*T
	live  int // non-nil slots
}

// get returns the object with the given ID, or nil when there is none.
func (t *table[T]) get(id ID) *T {
	if id < 0 || int(id) >= len(t.slots) {
		return nil
	}
	return t.slots[id]
}

// add appends a zero control block for the caller to fill and returns it
// with its ID, the slot count before the append.
func (t *table[T]) add() (ID, *T) {
	if len(t.slots) == 0 {
		t.slots = append(t.slots, nil) // slot 0
	}
	obj := new(T)
	t.slots = append(t.slots, obj)
	t.live++
	return ID(len(t.slots) - 1), obj
}

// setInit fills slot 0, which add never hands out: INIT's slot in the
// task table.
func (t *table[T]) setInit(obj *T) {
	if len(t.slots) == 0 {
		t.slots = append(t.slots, nil)
	}
	t.slots[0] = obj
	t.live++
}

// del empties the slot of a live object.
func (t *table[T]) del(id ID) {
	t.slots[id] = nil
	t.live--
}

// len returns the number of live objects.
func (t *table[T]) len() int { return t.live }

// ids returns the IDs of the live objects in ascending order.
func (t *table[T]) ids() []ID {
	out := make([]ID, 0, t.live)
	for id, obj := range t.slots {
		if obj != nil {
			out = append(out, ID(id))
		}
	}
	return out
}

// views returns view(obj) for every live object of t, in ID order.
func views[T, V any](t *table[T], view func(*T) V) []V {
	out := make([]V, 0, t.live)
	for _, obj := range t.slots {
		if obj != nil {
			out = append(out, view(obj))
		}
	}
	return out
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for key := range m {
		out = append(out, key)
	}
	slices.Sort(out)
	return out
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

// Ticks returns the number of system ticks so far: the tick-grid points
// before now, plus the one at now once its timer pass has run. A pass runs
// after the processes the timed phase woke at its tick; a tick with no pass
// due counts from the same point, once those processes have run.
func (k *Kernel) Ticks() uint64 {
	now, tick := k.sim.Now(), k.cfg.Tick
	n := uint64(now / tick)
	if n > 0 && now%tick == 0 && (now == k.due || k.sim.TimedWake()) {
		n--
	}
	return n
}

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

	// Thread Dispatch: sensitive to the kernel's timer event; activates the
	// timer handler inside T-Kernel/OS.
	k.tickEv = k.sim.NewEvent("tkernel.tick")
	k.sim.SpawnMethod("tkernel.thread_dispatch", k.timerHandler, k.tickEv)
	if k.everyTick {
		k.arm(k.gridCeil(k.sim.Now()))
	}

	// Deferred-tick carrier for the delayed-tick-delivery fault hook.
	k.tickDeferEv = k.sim.NewEvent("tkernel.tick_defer")
	k.sim.SpawnMethod("tkernel.deferred_tick", k.runTimerQ, k.tickDeferEv)

	// Boot module: kernel startup upon H/W reset (time zero). It never
	// waits, so it runs as a one-step coroutine.
	k.sim.SpawnCoro("tkernel.boot", func(*sysc.Coro) {
		init := k.api.CreateThread("INIT", core.KindTask, 0, func(tt *core.TThread) {
			tt.Consume(k.cfg.Costs.Service, trace.CtxStartup, "kernel-init")
			userMain(k)
		})
		task := &Task{id: 0, k: k, tt: init, name: "INIT"}
		k.tasks.setInit(task)
		init.SetExinf(task)
		if err := k.api.Activate(init); err != nil {
			panic(err)
		}
	})
}

// timerHandler is the kernel timer handler, activated by Thread Dispatch at
// each tick where a timer pass is due (every tick under everyTick): it
// checks the timer queue for cyclic events, alarm events, and task-resuming
// (timeout) events, then drives the simulation library to dispatch or
// preempt. The timed phase wakes it with whatever else is due at the
// instant; its first run only re-notifies the event at once, so the pass
// runs after every process the timed phase woke, as behind a tick
// generator.
func (k *Kernel) timerHandler() {
	if !k.passing {
		k.passing = true
		k.tickEv.Notify()
		return
	}
	k.passing = false
	now := k.sim.Now()
	k.due = idle
	if k.everyTick {
		k.arm(k.gridCeil(now))
	}
	if k.tickDelay != nil {
		if d := k.tickDelay(uint64(now / k.cfg.Tick)); d > 0 {
			// Deliver this tick's timer pass late. Overlapping deferrals
			// merge onto the earliest pending delivery (sc_event override
			// rules), which models a hardware timer losing edges: the late
			// pass pops everything due by then in one go.
			k.tickDeferEv.NotifyAfter(d)
			return
		}
	}
	k.runTimerQ()
	if w, ok := k.timerQ.earliest(); ok && !k.everyTick {
		k.arm(k.gridCeil(w))
	}
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
		it.target.expire(it.gen)
	}
}

// after schedules target.expire(gen) to run at the first tick at or after d
// from now that Ticks has not counted yet. Returns the entry handle
// (sequence number) for diagnostics.
func (k *Kernel) after(d sysc.Time, target timerTarget, gen int) uint64 {
	when := k.sim.Now() + d
	if !k.everyTick {
		k.arm(k.gridCeil(when))
	}
	return k.timerQ.add(when, target, gen)
}

// idle is the due instant of an unarmed timer event.
const idle = sysc.MaxTime

// gridCeil returns the first tick-grid point (k*Tick, k >= 1) at or after
// t that Ticks has not counted yet, so no pass runs twice at one instant.
func (k *Kernel) gridCeil(t sysc.Time) sysc.Time {
	tick := k.cfg.Tick
	if next := sysc.Time(k.Ticks()+1) * tick; t < next {
		return next
	}
	return (t + tick - 1) / tick * tick
}

// arm brings the timer pass forward to grid point t; a pass already due
// at or before t stands. A pass armed for now (a tick Ticks has not counted
// yet) runs in the current evaluation phase, after the processes already
// runnable, as it would behind the timed phase.
func (k *Kernel) arm(t sysc.Time) {
	if t >= k.due {
		return
	}
	k.due = t
	if d := t - k.sim.Now(); d > 0 {
		k.tickEv.NotifyAfter(d)
		return
	}
	k.passing = true
	k.tickEv.Notify()
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

// svcPhase is where inside one service call its frame stands. The values
// are captured in snapshots (TaskSnap.SP); a phase that cannot be seen at
// a quiescent point goes after spBlock.
type svcPhase uint8

const (
	spEnter   svcPhase = iota // StepAwaitCPU before the dispatch lock
	spConsume                 // service-cost StepConsume, then the body
	spBlock                   // parked on the body's armed wait
)

// svcCall is the resumable frame of one service call, and the only
// implementation of the service protocol: dispatching is locked for the
// call body (service-call atomicity) and the service ETM/EEM annotation is
// charged to the caller. A program's service op steps it from
// progMachine.Step; a closure service steps it from call, parking the
// caller's thread between steps.
type svcCall struct {
	name string
	sp   svcPhase
	aw   *armedWait
}

// step drives the call: StepAwaitCPU, LockDispatch, svc-enter and the
// service-cost StepConsume; then the body try; when try armed a wait,
// UnlockDispatch, StepBlock, LockDispatch and endSleep; then svc-exit and
// UnlockDispatch. t is the executing T-THREAD; when none is, the CPU
// phases are skipped (a call between Start steps or from a plain sysc
// process). The outcome is StepDone with the resolved code, StepWait (step
// again once the armed wait fires) or StepReset (t was terminated; the
// frame has rewound). A reset during the cost charge publishes svc-exit
// with E_OK and unlocks; a reset while parked on the wait holds nothing
// (the lock was released around the wait) and reports nothing.
func (c *svcCall) step(k *Kernel, t *core.TThread, try func(*Kernel) (ER, *armedWait)) (core.Step, ER) {
	switch c.sp {
	case spEnter:
		if t != nil {
			// A preempted caller must be dispatched again before it may
			// begin an atomic service body (see TThread.AwaitCPU).
			if st := t.StepAwaitCPU(); st != core.StepDone {
				return st, EOK
			}
		}
		k.api.LockDispatch()
		if k.bus.Wants(event.KindSvcEnter) {
			k.bus.Publish(event.Event{Kind: event.KindSvcEnter,
				Time: k.sim.Now(), Thread: t.Subject(), Obj: c.name})
		}
		c.sp = spConsume
		fallthrough
	case spConsume:
		if t != nil {
			switch t.StepConsume(k.cfg.Costs.Service, trace.CtxService, c.name) {
			case core.StepWait:
				return core.StepWait, EOK
			case core.StepReset:
				c.exit(k, t, EOK)
				return core.StepReset, EOK
			}
		}
		er, aw := try(k)
		if aw == nil {
			return core.StepDone, c.exit(k, t, er)
		}
		c.aw = aw
		k.api.UnlockDispatch()
		c.sp = spBlock
		fallthrough
	default: // spBlock
		st, err := t.StepBlock(c.aw.obj)
		switch st {
		case core.StepWait:
			return st, EOK
		case core.StepReset:
			c.sp, c.aw = spEnter, nil
			return st, EOK
		}
		k.api.LockDispatch()
		er := k.endSleep(c.aw.task, err)
		c.aw = nil
		return core.StepDone, c.exit(k, t, er)
	}
}

// exit is the service epilogue: it publishes svc-exit with the resolved
// code, releases the dispatch lock and rewinds the frame.
func (c *svcCall) exit(k *Kernel, t *core.TThread, er ER) ER {
	if k.bus.Wants(event.KindSvcExit) {
		k.bus.Publish(event.Event{Kind: event.KindSvcExit,
			Time: k.sim.Now(), Thread: t.Subject(), Obj: c.name, Code: int32(er)})
	}
	k.api.UnlockDispatch()
	c.sp = spEnter
	return er
}

// call issues one service call from a closure body, a handler closure or
// outside any T-THREAD: it steps a frame on the caller's stack, parking the
// caller's thread whenever the frame waits. A reset unwinds the body with
// the frame already rewound.
func (k *Kernel) call(name string, try func(*Kernel) (ER, *armedWait)) ER {
	t := k.api.ExecutingThread()
	c := svcCall{name: name}
	for {
		st, er := c.step(k, t, try)
		if t == nil || !t.Park(st) {
			return er
		}
	}
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
// object's wait queue with the timeout armed, and the service frame
// completes the wait (StepBlock on obj, then endSleep). Each Task embeds
// one (a task waits on at most one object), so arming a wait never
// allocates.
type armedWait struct {
	task *Task
	obj  string
}

// waitObject is what a waiting task waits in: the wait queue of its
// object, or a rendezvous port for a caller (whose accepted call waits for
// the reply on no queue). cancelWait unlinks a waiter whose wait ends
// without the object releasing it (timeout, tk_rel_wai, tk_ter_tsk); the
// request itself lives in the task's winfo, which the caller clears.
type waitObject interface {
	cancelWait(k *Kernel, t *Task)
}

// cancelWait implements waitObject: a waiter leaving an inheritance
// mutex's queue may lower the owner's inherited priority.
func (q *waitQueue) cancelWait(k *Kernel, t *Task) {
	q.remove(t)
	if q.mtx != nil {
		k.recomputeInheritance(q.mtx)
	}
}

// armSleep commits the calling task to a wait in obj (nil for the
// object-less sleep and delay waits), labelled label, and returns the armed
// wait for a service body to hand back to its frame. The timeout entry
// carries the task's waitSeq, so a stale timeout never releases a newer
// wait of the same task.
func (k *Kernel) armSleep(task *Task, obj waitObject, label string, tmout TMO) *armedWait {
	task.waitSeq++
	task.waitOn = obj
	if tmout >= 0 {
		k.after(tmout, task, task.waitSeq)
	}
	task.aw.task = task
	task.aw.obj = label
	return &task.aw
}

// expire is a task's wait timeout (timerTarget): it fires only if the wait
// armed at sequence seq is still the task's current wait.
func (t *Task) expire(seq int) {
	if t.waitSeq != seq || t.tt.State() == core.StateDormant {
		return
	}
	t.cancelWait()
	t.k.api.Release(t.tt, ETMOUT)
}

// cancelWait unlinks the task from the object it waits on, if any, and
// clears its wait request.
func (t *Task) cancelWait() {
	if t.waitOn != nil {
		t.waitOn.cancelWait(t.k, t)
		t.waitOn = nil
	}
	t.winfo = winfo{}
}

// endSleep completes an armed wait once the block ends, under the
// re-acquired dispatch lock: it invalidates any outstanding timeout and
// resolves the release code. A delay's expiry is its normal completion
// (tk_dly_tsk), so it resolves to E_OK.
func (k *Kernel) endSleep(task *Task, err error) ER {
	task.waitSeq++
	task.waitOn = nil
	er := erOf(err)
	if er == ETMOUT && task.aw.obj == "delay" {
		return EOK
	}
	return er
}

// wake releases a waiting task with the given code, invalidating its
// timeout entry and clearing its wait request (a grant reads the request
// first).
func (k *Kernel) wake(task *Task, code ER) {
	task.waitSeq++
	task.waitOn = nil
	task.winfo = winfo{}
	if code == EOK {
		k.api.Release(task.tt, nil)
	} else {
		k.api.Release(task.tt, code)
	}
}

// timerQueue is the kernel's time-event queue: entries fire in (when, seq)
// order when the timer handler observes their deadline at a tick. It is a
// binary min-heap on (when, seq), so add/pop are O(log n) and the earliest
// deadline, which places the kernel's timer event, is O(1). The queue
// stays the kernel's own rather than moving onto the sysc heap: seq
// numbers the timer records of the trace and the captured timer state,
// and one sysc event serves every entry.
type timerQueue struct {
	items []timerItem
	seq   uint64
}

// timerItem is one pending time event: at when, target.expire(gen) runs.
// gen is the target's guard counter when the entry was armed (a task's
// waitSeq, a handler's activation generation), so an entry outlived by a
// re-arm or a stop finds the counter moved on and does nothing.
type timerItem struct {
	when   sysc.Time
	seq    uint64
	target timerTarget
	gen    int
}

// timerTarget is what a timer-queue entry fires: a task's wait timeout, a
// cyclic handler's period or an alarm. Targets are kernel objects, so
// arming an entry allocates nothing.
type timerTarget interface {
	expire(gen int)
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

func (q *timerQueue) add(when sysc.Time, target timerTarget, gen int) uint64 {
	q.seq++
	q.items = append(q.items, timerItem{when: when, seq: q.seq, target: target, gen: gen})
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
	q.items[last] = timerItem{} // drop the target reference
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
// Objects call it once, at creation, and keep the label.
func objName(class string, id ID, name string) string {
	if name != "" {
		return fmt.Sprintf("%s#%d(%s)", class, id, name)
	}
	return fmt.Sprintf("%s#%d", class, id)
}
