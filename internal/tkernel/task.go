package tkernel

import (
	"repro/internal/core"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// Task is a T-Kernel task: an application thread of control wrapped in a
// T-THREAD and scheduled by the kernel.
type Task struct {
	id   ID
	k    *Kernel
	tt   *core.TThread
	name string

	wupCount   int
	waitSeq    int
	waitCancel func()
	rdvno      RdvNo // open rendezvous awaiting reply (0 = none)

	// Intrusive wait-queue node: a task waits on at most one kernel object,
	// so one embedded link suffices. Owned by the waitQueue in wqIn.
	wqNext, wqPrev *Task
	wqIn           *waitQueue

	// aw is the embedded armed-wait record handed out by armSleep; a task
	// arms at most one wait at a time, so embedding it keeps the split
	// service bodies allocation-free.
	aw armedWait
	// parked is set while a closure task is blocked inside a service
	// (finish), so a reset unwinding it skips the service epilogue.
	parked bool

	owned []*Mutex // mutexes currently locked by this task
}

// ID returns the task identifier.
func (t *Task) ID() ID { return t.id }

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// TThread exposes the underlying T-THREAD (for statistics and tracing).
func (t *Task) TThread() *core.TThread { return t.tt }

// TaskInfo is the tk_ref_tsk snapshot.
type TaskInfo struct {
	ID       ID
	Name     string
	State    core.State
	Priority int
	BasePrio int
	WaitObj  string
	WupCount int
	SusCount int
	CET      sysc.Time
	CEE      core.Energy
	Cycles   int
}

// CreTsk creates a task (tk_cre_tsk): name, priority (1..MaxPriority) and
// the task body. The body receives the owning task handle; it may issue any
// kernel service. Tasks are created DORMANT.
func (k *Kernel) CreTsk(name string, priority int, body func(*Task)) (_ ID, er ER) {
	k.enterSvc("tk_cre_tsk")
	defer k.exitSvc("tk_cre_tsk", &er)
	if priority < 1 || priority > k.cfg.MaxPriority {
		return 0, EPAR
	}
	k.nextTask++
	id := k.nextTask
	task := &Task{id: id, k: k, name: name}
	task.tt = k.api.CreateThread(name, core.KindTask, priority, func(tt *core.TThread) {
		// T-Kernel releases any mutexes a task still holds when it ends,
		// whether it returns normally or is unwound by tk_ter/ext_tsk.
		defer k.releaseOwnedMutexes(task)
		body(task)
	})
	task.tt.SetExinf(task)
	k.tasks[id] = task
	return id, EOK
}

// DelTsk deletes a dormant task (tk_del_tsk).
func (k *Kernel) DelTsk(id ID) (er ER) {
	k.enterSvc("tk_del_tsk")
	defer k.exitSvc("tk_del_tsk", &er)
	task, ok := k.tasks[id]
	if !ok {
		return ENOEXS
	}
	if task.tt.State() != core.StateDormant {
		return EOBJ
	}
	if err := k.api.DeleteThread(task.tt); err != nil {
		return EOBJ
	}
	delete(k.tasks, id)
	return EOK
}

// StaTsk starts a dormant task (tk_sta_tsk).
func (k *Kernel) StaTsk(id ID) (er ER) {
	k.enterSvc("tk_sta_tsk")
	defer k.exitSvc("tk_sta_tsk", &er)
	task, ok := k.tasks[id]
	if !ok {
		return ENOEXS
	}
	task.wupCount = 0
	if err := k.api.Activate(task.tt); err != nil {
		return EOBJ
	}
	return EOK
}

// ExtTsk exits the calling task (tk_ext_tsk): in this model the task body
// simply returns; ExtTsk exists for completeness and unwinds the body via
// the termination path after releasing any held mutexes.
func (k *Kernel) ExtTsk() ER {
	task := k.caller()
	if task == nil || k.api.InHandler() {
		return ECTX
	}
	k.releaseOwnedMutexes(task)
	task.tt.Exit() // unwinds the body; never returns
	return EOK
}

// TerTsk forcibly terminates another task (tk_ter_tsk). Terminating the
// calling task itself is E_OBJ (use ExtTsk).
func (k *Kernel) TerTsk(id ID) (er ER) {
	k.enterSvc("tk_ter_tsk")
	defer k.exitSvc("tk_ter_tsk", &er)
	task, ok := k.tasks[id]
	if !ok {
		return ENOEXS
	}
	if task == k.caller() {
		return EOBJ
	}
	if task.tt.State() == core.StateDormant {
		return EOBJ
	}
	if task.waitCancel != nil {
		task.waitCancel()
		task.waitCancel = nil
	}
	task.waitSeq++
	k.releaseOwnedMutexes(task)
	if err := k.api.Terminate(task.tt); err != nil {
		return EOBJ
	}
	return EOK
}

// ActTsk activates a task with µITRON v4 act_tsk semantics: a dormant task
// starts; an active task gets the request queued (up to max activations)
// and re-activates when it exits. This is the ITRON-compatibility hook used
// by internal/itron; T-Kernel itself only has the strict StaTsk.
func (k *Kernel) ActTsk(id ID, maxQueued int) (er ER) {
	k.enterSvc("act_tsk")
	defer k.exitSvc("act_tsk", &er)
	task, ok := k.tasks[id]
	if !ok {
		return ENOEXS
	}
	if task.tt.State() == core.StateDormant {
		if err := k.api.Activate(task.tt); err != nil {
			return EOBJ
		}
		return EOK
	}
	if k.api.QueuedActivations(task.tt) >= maxQueued {
		return EQOVR
	}
	k.api.QueueActivation(task.tt)
	return EOK
}

// CanAct cancels queued activation requests and returns how many were
// queued (µITRON can_act). id 0 = caller.
func (k *Kernel) CanAct(id ID) (_ int, er ER) {
	k.enterSvc("can_act")
	defer k.exitSvc("can_act", &er)
	task, er := k.taskOrSelf(id)
	if er != EOK {
		return 0, er
	}
	n := k.api.QueuedActivations(task.tt)
	for i := 0; i < n; i++ {
		k.api.UnqueueActivation(task.tt)
	}
	return n, EOK
}

// ChgPri changes a task's base priority (tk_chg_pri). id 0 = caller.
func (k *Kernel) ChgPri(id ID, priority int) (er ER) {
	k.enterSvc("tk_chg_pri")
	defer k.exitSvc("tk_chg_pri", &er)
	task, er := k.taskOrSelf(id)
	if er != EOK {
		return er
	}
	if priority < 1 || priority > k.cfg.MaxPriority {
		return EPAR
	}
	if task.tt.State() == core.StateDormant {
		return EOBJ
	}
	k.api.ChangePriority(task.tt, priority)
	k.requeueWaiter(task)
	return EOK
}

// SlpTsk puts the calling task to sleep awaiting a wakeup (tk_slp_tsk).
// A queued wakeup (tk_wup_tsk issued earlier) completes it immediately.
func (k *Kernel) SlpTsk(tmout TMO) (er ER) {
	k.enterSvc("tk_slp_tsk")
	defer k.exitSvc("tk_slp_tsk", &er)
	return k.finish(k.slpTskBody(tmout))
}

// slpTskBody is the split call body of SlpTsk.
func (k *Kernel) slpTskBody(tmout TMO) (ER, *armedWait) {
	task, er := k.blockCheck(tmout)
	if er != EOK {
		return er, nil
	}
	if task.wupCount > 0 {
		task.wupCount--
		return EOK, nil
	}
	if tmout == TmoPol {
		return ETMOUT, nil
	}
	return EOK, k.armSleep(task, "sleep", tmout, nil)
}

// WupTsk wakes a sleeping task (tk_wup_tsk); wakeups queue when the task is
// not sleeping yet (up to WupCountMax).
func (k *Kernel) WupTsk(id ID) (er ER) {
	k.enterSvc("tk_wup_tsk")
	defer k.exitSvc("tk_wup_tsk", &er)
	return k.wupTskBody(id)
}

// wupTskBody is the split call body of WupTsk.
func (k *Kernel) wupTskBody(id ID) ER {
	task, ok := k.tasks[id]
	if !ok {
		return ENOEXS
	}
	st := task.tt.State()
	if st == core.StateDormant || st == core.StateNonExistent {
		return EOBJ
	}
	if (st == core.StateWaiting || st == core.StateWaitSuspended) && task.tt.WaitObject() == "sleep" {
		k.wake(task, EOK)
		return EOK
	}
	if task.wupCount >= k.cfg.WupCountMax {
		return EQOVR
	}
	task.wupCount++
	return EOK
}

// CanWup cancels queued wakeups and returns how many were queued
// (tk_can_wup). id 0 = caller.
func (k *Kernel) CanWup(id ID) (_ int, er ER) {
	k.enterSvc("tk_can_wup")
	defer k.exitSvc("tk_can_wup", &er)
	task, er := k.taskOrSelf(id)
	if er != EOK {
		return 0, er
	}
	n := task.wupCount
	task.wupCount = 0
	return n, EOK
}

// DlyTsk delays the calling task for at least d (tk_dly_tsk). Unlike
// SlpTsk, wakeups do not shorten the delay; only RelWai does (E_RLWAI).
func (k *Kernel) DlyTsk(d sysc.Time) (er ER) {
	k.enterSvc("tk_dly_tsk")
	defer k.exitSvc("tk_dly_tsk", &er)
	return dlyTskPost(k.finish(k.dlyTskBody(d)))
}

// dlyTskBody is the split call body of DlyTsk.
func (k *Kernel) dlyTskBody(d sysc.Time) (ER, *armedWait) {
	task, er := k.blockCheck(TmoFevr)
	if er != EOK {
		return er, nil
	}
	if d <= 0 {
		return EOK, nil
	}
	return EOK, k.armSleep(task, "delay", d, nil)
}

// dlyTskPost remaps the release code: normal expiry of a delay is success.
func dlyTskPost(code ER) ER {
	if code == ETMOUT {
		return EOK
	}
	return code
}

// RelWai forcibly releases another task's wait state with E_RLWAI
// (tk_rel_wai).
func (k *Kernel) RelWai(id ID) (er ER) {
	k.enterSvc("tk_rel_wai")
	defer k.exitSvc("tk_rel_wai", &er)
	task, ok := k.tasks[id]
	if !ok {
		return ENOEXS
	}
	st := task.tt.State()
	if st != core.StateWaiting && st != core.StateWaitSuspended {
		return EOBJ
	}
	if task.waitCancel != nil {
		task.waitCancel()
		task.waitCancel = nil
	}
	k.wake(task, ERLWAI)
	return EOK
}

// SusTsk forcibly suspends a task (tk_sus_tsk); suspensions nest.
func (k *Kernel) SusTsk(id ID) (er ER) {
	k.enterSvc("tk_sus_tsk")
	defer k.exitSvc("tk_sus_tsk", &er)
	task, ok := k.tasks[id]
	if !ok {
		return ENOEXS
	}
	if task == k.caller() && k.disDsp {
		return ECTX
	}
	if err := k.api.SuspendForce(task.tt); err != nil {
		return EOBJ
	}
	return EOK
}

// RsmTsk resumes a forcibly suspended task by one level (tk_rsm_tsk).
func (k *Kernel) RsmTsk(id ID) (er ER) {
	k.enterSvc("tk_rsm_tsk")
	defer k.exitSvc("tk_rsm_tsk", &er)
	task, ok := k.tasks[id]
	if !ok {
		return ENOEXS
	}
	if err := k.api.ResumeForce(task.tt); err != nil {
		return EOBJ
	}
	return EOK
}

// FrsmTsk resumes a task regardless of the suspension nesting depth
// (tk_frsm_tsk).
func (k *Kernel) FrsmTsk(id ID) (er ER) {
	k.enterSvc("tk_frsm_tsk")
	defer k.exitSvc("tk_frsm_tsk", &er)
	task, ok := k.tasks[id]
	if !ok {
		return ENOEXS
	}
	for task.tt.SuspendCount() > 0 {
		if err := k.api.ResumeForce(task.tt); err != nil {
			return EOBJ
		}
	}
	return EOK
}

// GetTid returns the calling task's ID (tk_get_tid); 0 in non-task context.
func (k *Kernel) GetTid() ID {
	if t := k.caller(); t != nil {
		return t.id
	}
	return 0
}

// RefTsk returns a task state snapshot (tk_ref_tsk). id 0 = caller.
func (k *Kernel) RefTsk(id ID) (TaskInfo, ER) {
	task, er := k.taskOrSelf(id)
	if er != EOK {
		return TaskInfo{}, er
	}
	return k.taskInfo(task), EOK
}

// taskInfo builds the unified view of one task.
func (k *Kernel) taskInfo(task *Task) TaskInfo {
	return TaskInfo{
		ID:       task.id,
		Name:     task.name,
		State:    task.tt.State(),
		Priority: task.tt.Priority(),
		BasePrio: task.tt.BasePriority(),
		WaitObj:  task.tt.WaitObject(),
		WupCount: task.wupCount,
		SusCount: task.tt.SuspendCount(),
		CET:      task.tt.CET(),
		CEE:      task.tt.CEE(),
		Cycles:   task.tt.Cycles(),
	}
}

// RotRdq rotates the ready queue of the given priority (tk_rot_rdq);
// priority 0 rotates the class of the running task.
func (k *Kernel) RotRdq(priority int) (er ER) {
	k.enterSvc("tk_rot_rdq")
	defer k.exitSvc("tk_rot_rdq", &er)
	return k.rotRdqBody(priority)
}

// rotRdqBody is the split call body of RotRdq.
func (k *Kernel) rotRdqBody(priority int) ER {
	if priority == 0 {
		if cur := k.api.Current(); cur != nil {
			k.api.YieldCurrent()
		}
		return EOK
	}
	if priority < 1 || priority > k.cfg.MaxPriority {
		return EPAR
	}
	k.api.RotateReady(priority)
	return EOK
}

// taskOrSelf resolves id (0 = calling task).
func (k *Kernel) taskOrSelf(id ID) (*Task, ER) {
	if id == 0 {
		t := k.caller()
		if t == nil {
			return nil, ECTX
		}
		return t, EOK
	}
	t, ok := k.tasks[id]
	if !ok {
		return nil, ENOEXS
	}
	return t, EOK
}

// Work consumes application execution time/energy in the calling task or
// handler context — the annotation a user places around basic blocks of
// application code (the paper's SIM_Wait usage in tasks).
func (k *Kernel) Work(c core.Cost, note string) {
	if tt := k.api.ExecutingThread(); tt != nil {
		tt.Consume(c, trace.CtxTask, note)
	}
}
