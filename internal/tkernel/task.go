package tkernel

import (
	"repro/internal/core"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// Task is a T-Kernel task: an application thread of control wrapped in a
// T-THREAD and scheduled by the kernel. Like T-Kernel's TCB it sits in the
// kernel's task table at its ID and carries everything about its one
// current wait: the wait-queue link, the armed wait and the request.
type Task struct {
	id   ID
	k    *Kernel
	tt   *core.TThread
	name string

	wupCount int
	waitSeq  int
	waitOn   waitObject // what the armed wait waits in (nil: none, or sleep/delay)
	rdvno    RdvNo      // open rendezvous awaiting reply (0 = none)

	// Intrusive wait-queue node: a task waits on at most one kernel object,
	// so one embedded link suffices. Owned by the waitQueue in wqIn.
	wqNext, wqPrev *Task
	wqIn           *waitQueue

	// aw is the embedded armed-wait record handed out by armSleep, and
	// winfo the request of the current wait (T-Kernel's TCB winfo): a task
	// arms at most one wait at a time, so embedding both keeps the service
	// bodies allocation-free.
	aw    armedWait
	winfo winfo

	owned []*Mutex // mutexes currently locked by this task
}

// winfo is what a waiting task asks of the object it waits on. The body
// that queues the task fills the fields its object class reads; grant
// paths read them from the queued task, and wake and cancelWait clear the
// record when the wait ends, dropping the references it holds.
type winfo struct {
	cnt    int        // semaphore: count requested; variable pool: block size
	ptn    uint32     // event flag: waiptn; port: calptn or acpptn
	mode   FlagMode   // event flag: wait mode
	relptn *uint32    // event flag: release-pattern slot
	msg    []byte     // message-buffer sender: message; port caller: call message
	rcv    *[]byte    // message-buffer receiver: message slot; port: reply or call-message slot
	mbx    **Message  // mailbox receiver: message slot
	blk    **MemBlock // memory-pool waiter: block slot
	rdvno  *RdvNo     // port acceptor: rendezvous-number slot
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
func (k *Kernel) CreTsk(name string, priority int, body func(*Task)) (ID, ER) {
	return k.creTsk(name, priority, func(task *Task) *core.TThread {
		return k.api.CreateThread(name, core.KindTask, priority, func(*core.TThread) {
			// T-Kernel releases any mutexes a task still holds when it ends,
			// whether it returns, exits (tk_ext_tsk) or is unwound by tk_ter_tsk.
			defer k.releaseOwnedMutexes(task)
			body(task)
		})
	})
}

// creTsk is tk_cre_tsk for CreTsk and CreTskProg: thread creates the new
// task's T-THREAD.
func (k *Kernel) creTsk(name string, priority int, thread func(*Task) *core.TThread) (id ID, er ER) {
	er = k.call("tk_cre_tsk", func(k *Kernel) (ER, *armedWait) {
		if priority < 1 || priority > k.cfg.MaxPriority {
			return EPAR, nil
		}
		var task *Task
		id, task = k.tasks.add()
		*task = Task{id: id, k: k, name: name}
		task.tt = thread(task)
		task.tt.SetExinf(task)
		return EOK, nil
	})
	return id, er
}

// DelTsk deletes a dormant task (tk_del_tsk).
func (k *Kernel) DelTsk(id ID) ER {
	return k.call("tk_del_tsk", func(k *Kernel) (ER, *armedWait) {
		task := k.tasks.get(id)
		if task == nil {
			return ENOEXS, nil
		}
		if task.tt.State() != core.StateDormant {
			return EOBJ, nil
		}
		if err := k.api.DeleteThread(task.tt); err != nil {
			return EOBJ, nil
		}
		k.tasks.del(id)
		return EOK, nil
	})
}

// StaTsk starts a dormant task (tk_sta_tsk).
func (k *Kernel) StaTsk(id ID) ER {
	return k.call("tk_sta_tsk", func(k *Kernel) (ER, *armedWait) {
		task := k.tasks.get(id)
		if task == nil {
			return ENOEXS, nil
		}
		task.wupCount = 0
		if err := k.api.Activate(task.tt); err != nil {
			return EOBJ, nil
		}
		return EOK, nil
	})
}

// ExtTsk exits the calling task (tk_ext_tsk): the body unwinds and the
// cycle ends exactly as if it had returned. The deferred release in CreTsk
// frees any held mutexes during the unwind, and a queued activation
// restarts the task.
func (k *Kernel) ExtTsk() ER {
	task := k.caller()
	if task == nil || k.api.InHandler() {
		return ECTX
	}
	task.tt.Exit() // unwinds the body; never returns
	return EOK
}

// TerTsk forcibly terminates another task (tk_ter_tsk). Terminating the
// calling task itself is E_OBJ (use ExtTsk).
func (k *Kernel) TerTsk(id ID) ER {
	return k.call("tk_ter_tsk", func(k *Kernel) (ER, *armedWait) {
		task := k.tasks.get(id)
		if task == nil {
			return ENOEXS, nil
		}
		if task == k.caller() {
			return EOBJ, nil
		}
		if task.tt.State() == core.StateDormant {
			return EOBJ, nil
		}
		task.cancelWait()
		task.waitSeq++
		k.releaseOwnedMutexes(task)
		if err := k.api.Terminate(task.tt); err != nil {
			return EOBJ, nil
		}
		return EOK, nil
	})
}

// ActTsk activates a task with µITRON v4 act_tsk semantics: a dormant task
// starts; an active task gets the request queued (up to max activations)
// and re-activates when it exits. This is the ITRON-compatibility hook used
// by internal/itron; T-Kernel itself only has the strict StaTsk.
func (k *Kernel) ActTsk(id ID, maxQueued int) ER {
	return k.call("act_tsk", func(k *Kernel) (ER, *armedWait) {
		task := k.tasks.get(id)
		if task == nil {
			return ENOEXS, nil
		}
		if task.tt.State() == core.StateDormant {
			if err := k.api.Activate(task.tt); err != nil {
				return EOBJ, nil
			}
			return EOK, nil
		}
		if k.api.QueuedActivations(task.tt) >= maxQueued {
			return EQOVR, nil
		}
		k.api.QueueActivation(task.tt)
		return EOK, nil
	})
}

// CanAct cancels queued activation requests and returns how many were
// queued (µITRON can_act). id 0 = caller.
func (k *Kernel) CanAct(id ID) (n int, er ER) {
	er = k.call("can_act", func(k *Kernel) (ER, *armedWait) {
		task, er := k.taskOrSelf(id)
		if er != EOK {
			return er, nil
		}
		n = k.api.QueuedActivations(task.tt)
		for i := 0; i < n; i++ {
			k.api.UnqueueActivation(task.tt)
		}
		return EOK, nil
	})
	return n, er
}

// ChgPri changes a task's base priority (tk_chg_pri). id 0 = caller.
func (k *Kernel) ChgPri(id ID, priority int) ER {
	return k.call("tk_chg_pri", func(k *Kernel) (ER, *armedWait) {
		task, er := k.taskOrSelf(id)
		if er != EOK {
			return er, nil
		}
		if priority < 1 || priority > k.cfg.MaxPriority {
			return EPAR, nil
		}
		if task.tt.State() == core.StateDormant {
			return EOBJ, nil
		}
		k.api.ChangePriority(task.tt, priority)
		k.requeueWaiter(task)
		return EOK, nil
	})
}

// SlpTsk puts the calling task to sleep awaiting a wakeup (tk_slp_tsk).
// A queued wakeup (tk_wup_tsk issued earlier) completes it immediately.
func (k *Kernel) SlpTsk(tmout TMO) ER {
	return k.call("tk_slp_tsk", func(k *Kernel) (ER, *armedWait) { return k.slpTskBody(tmout) })
}

// slpTskBody is the body of SlpTsk, shared with its program op.
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
	return EOK, k.armSleep(task, nil, "sleep", tmout)
}

// WupTsk wakes a sleeping task (tk_wup_tsk); wakeups queue when the task is
// not sleeping yet (up to WupCountMax).
func (k *Kernel) WupTsk(id ID) ER {
	return k.call("tk_wup_tsk", func(k *Kernel) (ER, *armedWait) { return k.wupTskBody(id), nil })
}

// wupTskBody is the body of WupTsk, shared with its program op.
func (k *Kernel) wupTskBody(id ID) ER {
	task := k.tasks.get(id)
	if task == nil {
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
func (k *Kernel) CanWup(id ID) (n int, er ER) {
	er = k.call("tk_can_wup", func(k *Kernel) (ER, *armedWait) {
		task, er := k.taskOrSelf(id)
		if er != EOK {
			return er, nil
		}
		n, task.wupCount = task.wupCount, 0
		return EOK, nil
	})
	return n, er
}

// DlyTsk delays the calling task for at least d (tk_dly_tsk). Unlike
// SlpTsk, wakeups do not shorten the delay; only RelWai does (E_RLWAI).
// The delay's expiry resolves to E_OK (see endSleep).
func (k *Kernel) DlyTsk(d sysc.Time) ER {
	return k.call("tk_dly_tsk", func(k *Kernel) (ER, *armedWait) { return k.dlyTskBody(d) })
}

// dlyTskBody is the body of DlyTsk, shared with its program op.
func (k *Kernel) dlyTskBody(d sysc.Time) (ER, *armedWait) {
	task, er := k.blockCheck(TmoFevr)
	if er != EOK {
		return er, nil
	}
	if d <= 0 {
		return EOK, nil
	}
	return EOK, k.armSleep(task, nil, "delay", d)
}

// RelWai forcibly releases another task's wait state with E_RLWAI
// (tk_rel_wai).
func (k *Kernel) RelWai(id ID) ER {
	return k.call("tk_rel_wai", func(k *Kernel) (ER, *armedWait) {
		task := k.tasks.get(id)
		if task == nil {
			return ENOEXS, nil
		}
		st := task.tt.State()
		if st != core.StateWaiting && st != core.StateWaitSuspended {
			return EOBJ, nil
		}
		task.cancelWait()
		k.wake(task, ERLWAI)
		return EOK, nil
	})
}

// SusTsk forcibly suspends a task (tk_sus_tsk); suspensions nest.
func (k *Kernel) SusTsk(id ID) ER {
	return k.call("tk_sus_tsk", func(k *Kernel) (ER, *armedWait) {
		task := k.tasks.get(id)
		if task == nil {
			return ENOEXS, nil
		}
		if task == k.caller() && k.disDsp {
			return ECTX, nil
		}
		if err := k.api.SuspendForce(task.tt); err != nil {
			return EOBJ, nil
		}
		return EOK, nil
	})
}

// RsmTsk resumes a forcibly suspended task by one level (tk_rsm_tsk).
func (k *Kernel) RsmTsk(id ID) ER {
	return k.call("tk_rsm_tsk", func(k *Kernel) (ER, *armedWait) {
		task := k.tasks.get(id)
		if task == nil {
			return ENOEXS, nil
		}
		if err := k.api.ResumeForce(task.tt); err != nil {
			return EOBJ, nil
		}
		return EOK, nil
	})
}

// FrsmTsk resumes a task regardless of the suspension nesting depth
// (tk_frsm_tsk).
func (k *Kernel) FrsmTsk(id ID) ER {
	return k.call("tk_frsm_tsk", func(k *Kernel) (ER, *armedWait) {
		task := k.tasks.get(id)
		if task == nil {
			return ENOEXS, nil
		}
		for task.tt.SuspendCount() > 0 {
			if err := k.api.ResumeForce(task.tt); err != nil {
				return EOBJ, nil
			}
		}
		return EOK, nil
	})
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
func (k *Kernel) RotRdq(priority int) ER {
	return k.call("tk_rot_rdq", func(k *Kernel) (ER, *armedWait) { return k.rotRdqBody(priority), nil })
}

// rotRdqBody is the body of RotRdq, shared with its program op.
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
	if t := k.tasks.get(id); t != nil {
		return t, EOK
	}
	return nil, ENOEXS
}

// Work consumes application execution time/energy in the calling task or
// handler context — the annotation a user places around basic blocks of
// application code (the paper's SIM_Wait usage in tasks).
func (k *Kernel) Work(c core.Cost, note string) {
	if tt := k.api.ExecutingThread(); tt != nil {
		tt.Consume(c, trace.CtxTask, note)
	}
}
