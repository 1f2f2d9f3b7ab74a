package tkernel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sysc"
)

// This file is the T-Kernel layer of the kernel snapshot stack
// (internal/snapshot): quiescent-point capture and in-place restore of
// every kernel object's dynamic state — wait queues, counts, patterns,
// buffered messages, handler activation state, the timer queue and the
// system clock bookkeeping. It sits above core.SimAPI.SaveState (which
// owns the T-THREADs) and sysc.SaveState (which owns processes, events
// and the timed heap).
//
// Timer entries and armed waits are restorable here because each refers
// only to objects that are stable across one construction — a timer entry
// to its target (a task, a cyclic or alarm handler) plus the guard counter
// it was armed against (waitSeq, gen), an armed wait to the wait queue of
// the waited kernel object — and the restore writes the guard counters back, so a replayed
// entry observes exactly the state it was armed against. The timer queue
// is therefore captured as a value copy of its heap array, targets
// included, in exact array order.
//
// Not every object class is supported yet: memory pools hand out
// *MemBlock pointers that application closures hold across waits, and
// mailboxes/rendezvous carry caller-owned message headers — state the
// kernel cannot re-root. Capture refuses when such objects exist; callers
// fall back to a cold run.

// TaskSnap is the captured kernel-side state of one task (the T-THREAD
// side is captured by core.SimAPI.SaveState).
type TaskSnap struct {
	ID       ID
	WupCount int
	WaitSeq  int
	WaitOn   waitObject // what the armed wait waits in (nil when not waiting on an object)
	AwTask   bool       // task.aw.task is set
	AwObj    string
	Owned    []ID // locked mutexes, acquisition order

	// Compiled program machine resumption state.
	HasMachine bool
	PC         int
	SP         uint8
	AwArmed    bool
}

// SemSnap is the captured state of one semaphore. Wait and Need are
// parallel: Need[i] is the resource request of waiting task Wait[i].
type SemSnap struct {
	ID    ID
	Count int
	Wait  []ID
	Need  []int
}

// FlgSnap is the captured state of one event flag. The per-waiter arrays
// are parallel to Wait; Relptn is the delivery pointer of each waiter — a
// stable per-task scratch slot, kept as a pointer because the value it
// addresses is owned (and captured) by the workload layer.
type FlgSnap struct {
	ID      ID
	Pattern uint32
	Wait    []ID
	Waiptn  []uint32
	Mode    []FlagMode
	Relptn  []*uint32
}

// MtxSnap is the captured state of one mutex.
type MtxSnap struct {
	ID       ID
	HasOwner bool
	Owner    ID
	Wait     []ID
}

// MbfSnap is the captured state of one message buffer. SendMsg is
// parallel to SendQ (the message each blocked sender wants to enqueue);
// RecvDst is parallel to RecvQ (each blocked receiver's delivery slot, a
// stable workload-owned scratch pointer).
type MbfSnap struct {
	ID      ID
	Used    int
	Msgs    [][]byte
	SendQ   []ID
	SendMsg [][]byte
	RecvQ   []ID
	RecvDst []*[]byte
}

// CycSnap is the captured state of one cyclic handler.
type CycSnap struct {
	ID       ID
	Active   bool
	Fires    int
	Overruns int
	Gen      int

	HasMachine bool
	PC         int
	SP         uint8
}

// AlmSnap is the captured state of one alarm handler.
type AlmSnap struct {
	ID     ID
	Active bool
	Fires  int
	Gen    int

	HasMachine bool
	PC         int
	SP         uint8
}

// ISRSnap is the captured state of one interrupt service routine.
type ISRSnap struct {
	IntNo   int
	Fires   int
	Missed  int
	Dropped int

	HasMachine bool
	PC         int
	SP         uint8
}

// KernelState is the complete captured kernel-layer state at a quiescent
// point. Object slices are in ID order (ISRs in interrupt-number order);
// the timer queue is a value copy of the heap array in exact layout so
// restore reproduces identical pop order.
type KernelState struct {
	Tasks []TaskSnap
	Sems  []SemSnap
	Flags []FlgSnap
	Mtxs  []MtxSnap
	Mbfs  []MbfSnap
	Cycs  []CycSnap
	Alms  []AlmSnap
	Isrs  []ISRSnap

	Timer    []timerItem
	TimerSeq uint64
	SysBase  sysc.Time
	Ticks    uint64
	DisDsp   bool
}

// TimerEntry is the encodable view of one pending timer-queue entry: the
// firing instant and push sequence, without the target (a restore from
// bytes replays construction, which re-arms the entries).
type TimerEntry struct {
	When sysc.Time
	Seq  uint64
}

// TimerEntries returns the captured timer queue in exact heap-array
// order, targets elided.
func (st *KernelState) TimerEntries() []TimerEntry {
	out := make([]TimerEntry, len(st.Timer))
	for i, it := range st.Timer {
		out[i] = TimerEntry{When: it.when, Seq: it.seq}
	}
	return out
}

// machineOf returns the thread's compiled program machine, or nil.
func machineOf(tt *core.TThread) *progMachine {
	if tt == nil {
		return nil
	}
	m, _ := tt.CompiledBody().(*progMachine)
	return m
}

// SaveState captures the kernel's dynamic state at a sysc quiescent
// point. It fails when the kernel holds object classes the snapshot layer
// does not support, or when a goroutine-backed T-THREAD is active (its
// stack position could not be re-established on restore; the dormant
// INIT task and dormant closure handlers are fine).
func (k *Kernel) SaveState() (*KernelState, error) {
	if !k.booted {
		return nil, fmt.Errorf("tkernel: cannot capture state before Boot")
	}
	switch {
	case k.mbxs.len() > 0:
		return nil, fmt.Errorf("tkernel: state capture does not support mailboxes")
	case k.mpfs.len() > 0:
		return nil, fmt.Errorf("tkernel: state capture does not support fixed-size memory pools")
	case k.mpls.len() > 0:
		return nil, fmt.Errorf("tkernel: state capture does not support variable-size memory pools")
	case k.pors.len() > 0 || len(k.rdvs) > 0:
		return nil, fmt.Errorf("tkernel: state capture does not support rendezvous ports")
	}
	for _, tt := range k.api.Threads() {
		if !tt.Compiled() && tt.State() != core.StateDormant {
			return nil, fmt.Errorf("tkernel: goroutine-backed thread %q is active at the capture point", tt.Name())
		}
		if m := machineOf(tt); m != nil && m.latched {
			return nil, fmt.Errorf("tkernel: thread %q is inside a device access at the capture point", tt.Name())
		}
	}
	st := &KernelState{
		Timer:    append([]timerItem(nil), k.timerQ.items...),
		TimerSeq: k.timerQ.seq,
		SysBase:  k.sysBase,
		Ticks:    k.ticks,
		DisDsp:   k.disDsp,
	}
	st.Tasks = views(&k.tasks, func(t *Task) TaskSnap {
		s := TaskSnap{
			ID:       t.id,
			WupCount: t.wupCount,
			WaitSeq:  t.waitSeq,
			WaitOn:   t.waitOn,
			AwTask:   t.aw.task != nil,
			AwObj:    t.aw.obj,
		}
		for _, m := range t.owned {
			s.Owned = append(s.Owned, m.id)
		}
		if m := machineOf(t.tt); m != nil {
			s.HasMachine = true
			s.PC = m.pc
			s.SP = uint8(m.sp)
			s.AwArmed = m.aw != nil
		}
		return s
	})
	// Each waiter's request comes from its winfo, in queue order.
	st.Sems = views(&k.sems, func(sem *Semaphore) SemSnap {
		s := SemSnap{ID: sem.id, Count: sem.count}
		for t := sem.wq.head(); t != nil; t = t.wqNext {
			s.Wait = append(s.Wait, t.id)
			s.Need = append(s.Need, t.winfo.cnt)
		}
		return s
	})
	st.Flags = views(&k.flags, func(f *EventFlag) FlgSnap {
		s := FlgSnap{ID: f.id, Pattern: f.pattern}
		for t := f.wq.head(); t != nil; t = t.wqNext {
			s.Wait = append(s.Wait, t.id)
			s.Waiptn = append(s.Waiptn, t.winfo.ptn)
			s.Mode = append(s.Mode, t.winfo.mode)
			s.Relptn = append(s.Relptn, t.winfo.relptn)
		}
		return s
	})
	st.Mtxs = views(&k.mtxs, func(m *Mutex) MtxSnap {
		s := MtxSnap{ID: m.id, HasOwner: m.owner != nil, Wait: m.wq.ids()}
		if m.owner != nil {
			s.Owner = m.owner.id
		}
		return s
	})
	st.Mbfs = views(&k.mbfs, func(b *MessageBuffer) MbfSnap {
		s := MbfSnap{ID: b.id, Used: b.used}
		for _, msg := range b.msgs {
			s.Msgs = append(s.Msgs, append([]byte(nil), msg...))
		}
		for t := b.sendQ.head(); t != nil; t = t.wqNext {
			s.SendQ = append(s.SendQ, t.id)
			s.SendMsg = append(s.SendMsg, append([]byte(nil), t.winfo.msg...))
		}
		for t := b.recvQ.head(); t != nil; t = t.wqNext {
			s.RecvQ = append(s.RecvQ, t.id)
			s.RecvDst = append(s.RecvDst, t.winfo.rcv)
		}
		return s
	})
	st.Cycs = views(&k.cycs, func(c *CyclicHandler) CycSnap {
		s := CycSnap{ID: c.id, Active: c.active, Fires: c.fires, Overruns: c.overruns, Gen: c.gen}
		if m := machineOf(c.tt); m != nil {
			s.HasMachine, s.PC, s.SP = true, m.pc, uint8(m.sp)
		}
		return s
	})
	st.Alms = views(&k.alms, func(a *AlarmHandler) AlmSnap {
		s := AlmSnap{ID: a.id, Active: a.active, Fires: a.fires, Gen: a.gen}
		if m := machineOf(a.tt); m != nil {
			s.HasMachine, s.PC, s.SP = true, m.pc, uint8(m.sp)
		}
		return s
	})
	for _, n := range sortedKeys(k.isrs) {
		isr := k.isrs[n]
		s := ISRSnap{IntNo: n, Fires: isr.fires, Missed: isr.missed, Dropped: isr.dropped}
		if m := machineOf(isr.tt); m != nil {
			s.HasMachine, s.PC, s.SP = true, m.pc, uint8(m.sp)
		}
		st.Isrs = append(st.Isrs, s)
	}
	return st, nil
}

// relink rebuilds the queue to hold exactly the given tasks in captured
// order. Callers must have cleared every task's queue links first.
func (q *waitQueue) relink(tasks []*Task) {
	q.first, q.last, q.n = nil, nil, 0
	var prev *Task
	for _, t := range tasks {
		t.wqPrev = prev
		t.wqNext = nil
		t.wqIn = q
		if prev == nil {
			q.first = t
		} else {
			prev.wqNext = t
		}
		prev = t
		q.n++
	}
	q.last = prev
}

// taskList resolves captured task IDs, which checkState has verified,
// against this kernel.
func (k *Kernel) taskList(ids []ID) []*Task {
	out := make([]*Task, len(ids))
	for i, id := range ids {
		out[i] = k.tasks.get(id)
	}
	return out
}

// checkState refuses, before LoadState changes anything, a state it
// cannot restore onto this kernel: a different object population, an ID
// naming no object, a task that gained or lost its compiled machine, or a
// per-waiter request array whose length differs from its wait queue's.
func (k *Kernel) checkState(st *KernelState) error {
	if len(st.Tasks) != k.tasks.len() || len(st.Sems) != k.sems.len() ||
		len(st.Flags) != k.flags.len() || len(st.Mtxs) != k.mtxs.len() ||
		len(st.Mbfs) != k.mbfs.len() || len(st.Cycs) != k.cycs.len() ||
		len(st.Alms) != k.alms.len() || len(st.Isrs) != len(k.isrs) {
		return fmt.Errorf("tkernel: state mismatch: kernel object population changed since capture")
	}
	// queue checks one captured wait queue and its per-waiter arrays.
	queue := func(class string, id ID, wait []ID, reqs ...int) error {
		for _, tid := range wait {
			if k.tasks.get(tid) == nil {
				return fmt.Errorf("tkernel: captured wait queue of %s %d references unknown task %d", class, id, tid)
			}
		}
		for _, n := range reqs {
			if n != len(wait) {
				return fmt.Errorf("tkernel: captured %s %d has %d waiters but %d requests", class, id, len(wait), n)
			}
		}
		return nil
	}
	for i := range st.Tasks {
		s := &st.Tasks[i]
		t := k.tasks.get(s.ID)
		if t == nil {
			return fmt.Errorf("tkernel: captured state references unknown task %d", s.ID)
		}
		for _, mid := range s.Owned {
			if k.mtxs.get(mid) == nil {
				return fmt.Errorf("tkernel: task %d owns unknown mutex %d", s.ID, mid)
			}
		}
		if has := machineOf(t.tt) != nil; has && !s.HasMachine {
			return fmt.Errorf("tkernel: task %d gained a compiled machine since capture", s.ID)
		} else if !has && s.HasMachine {
			return fmt.Errorf("tkernel: task %d lost its compiled machine since capture", s.ID)
		}
	}
	for i := range st.Sems {
		s := &st.Sems[i]
		if k.sems.get(s.ID) == nil {
			return fmt.Errorf("tkernel: captured state references unknown semaphore %d", s.ID)
		}
		if err := queue("semaphore", s.ID, s.Wait, len(s.Need)); err != nil {
			return err
		}
	}
	for i := range st.Flags {
		s := &st.Flags[i]
		if k.flags.get(s.ID) == nil {
			return fmt.Errorf("tkernel: captured state references unknown flag %d", s.ID)
		}
		if err := queue("flag", s.ID, s.Wait, len(s.Waiptn), len(s.Mode), len(s.Relptn)); err != nil {
			return err
		}
	}
	for i := range st.Mtxs {
		s := &st.Mtxs[i]
		if k.mtxs.get(s.ID) == nil {
			return fmt.Errorf("tkernel: captured state references unknown mutex %d", s.ID)
		}
		if s.HasOwner && k.tasks.get(s.Owner) == nil {
			return fmt.Errorf("tkernel: mutex %d owned by unknown task %d", s.ID, s.Owner)
		}
		if err := queue("mutex", s.ID, s.Wait); err != nil {
			return err
		}
	}
	for i := range st.Mbfs {
		s := &st.Mbfs[i]
		if k.mbfs.get(s.ID) == nil {
			return fmt.Errorf("tkernel: captured state references unknown message buffer %d", s.ID)
		}
		if err := queue("message buffer", s.ID, s.SendQ, len(s.SendMsg)); err != nil {
			return err
		}
		if err := queue("message buffer", s.ID, s.RecvQ, len(s.RecvDst)); err != nil {
			return err
		}
	}
	for i := range st.Cycs {
		if k.cycs.get(st.Cycs[i].ID) == nil {
			return fmt.Errorf("tkernel: captured state references unknown cyclic handler %d", st.Cycs[i].ID)
		}
	}
	for i := range st.Alms {
		if k.alms.get(st.Alms[i].ID) == nil {
			return fmt.Errorf("tkernel: captured state references unknown alarm handler %d", st.Alms[i].ID)
		}
	}
	for i := range st.Isrs {
		if k.isrs[st.Isrs[i].IntNo] == nil {
			return fmt.Errorf("tkernel: captured state references unknown interrupt %d", st.Isrs[i].IntNo)
		}
	}
	return nil
}

// LoadState restores a state captured from this same construction: the
// same object population (the supported synthetic workloads create all
// kernel objects at boot and never delete them). A state checkState
// refuses leaves the kernel untouched.
func (k *Kernel) LoadState(st *KernelState) error {
	if err := k.checkState(st); err != nil {
		return err
	}
	// Unlink every task from whatever queue it is on now and drop its wait
	// request; the captured queues re-link below and write the requests of
	// their waiters back.
	for _, t := range k.tasks.slots {
		if t != nil {
			t.wqNext, t.wqPrev, t.wqIn = nil, nil, nil
			t.winfo = winfo{}
		}
	}
	for i := range st.Tasks {
		s := &st.Tasks[i]
		t := k.tasks.get(s.ID)
		t.wupCount = s.WupCount
		t.waitSeq = s.WaitSeq
		t.waitOn = s.WaitOn
		t.rdvno = 0
		if s.AwTask {
			t.aw.task = t
		} else {
			t.aw.task = nil
		}
		t.aw.obj = s.AwObj
		t.owned = t.owned[:0]
		for _, mid := range s.Owned {
			t.owned = append(t.owned, k.mtxs.get(mid))
		}
		if m := machineOf(t.tt); m != nil {
			m.pc = s.PC
			m.sp = svcPhase(s.SP)
			if s.AwArmed {
				m.aw = &t.aw
			} else {
				m.aw = nil
			}
		}
	}
	for i := range st.Sems {
		s := &st.Sems[i]
		sem := k.sems.get(s.ID)
		sem.count = s.Count
		ts := k.taskList(s.Wait)
		sem.wq.relink(ts)
		for j, t := range ts {
			t.winfo.cnt = s.Need[j]
		}
	}
	for i := range st.Flags {
		s := &st.Flags[i]
		f := k.flags.get(s.ID)
		f.pattern = s.Pattern
		ts := k.taskList(s.Wait)
		f.wq.relink(ts)
		for j, t := range ts {
			t.winfo.ptn, t.winfo.mode, t.winfo.relptn = s.Waiptn[j], s.Mode[j], s.Relptn[j]
		}
	}
	for i := range st.Mtxs {
		s := &st.Mtxs[i]
		m := k.mtxs.get(s.ID)
		m.owner = nil
		if s.HasOwner {
			m.owner = k.tasks.get(s.Owner)
		}
		m.wq.relink(k.taskList(s.Wait))
	}
	for i := range st.Mbfs {
		s := &st.Mbfs[i]
		b := k.mbfs.get(s.ID)
		b.used = s.Used
		b.msgs = b.msgs[:0]
		for _, msg := range s.Msgs {
			b.msgs = append(b.msgs, append([]byte(nil), msg...))
		}
		senders := k.taskList(s.SendQ)
		b.sendQ.relink(senders)
		for j, t := range senders {
			t.winfo.msg = append([]byte(nil), s.SendMsg[j]...)
		}
		receivers := k.taskList(s.RecvQ)
		b.recvQ.relink(receivers)
		for j, t := range receivers {
			t.winfo.rcv = s.RecvDst[j]
		}
	}
	for i := range st.Cycs {
		s := &st.Cycs[i]
		c := k.cycs.get(s.ID)
		c.active = s.Active
		c.fires = s.Fires
		c.overruns = s.Overruns
		c.gen = s.Gen
		if m := machineOf(c.tt); m != nil && s.HasMachine {
			m.pc, m.sp, m.aw = s.PC, svcPhase(s.SP), nil
		}
	}
	for i := range st.Alms {
		s := &st.Alms[i]
		a := k.alms.get(s.ID)
		a.active = s.Active
		a.fires = s.Fires
		a.gen = s.Gen
		if m := machineOf(a.tt); m != nil && s.HasMachine {
			m.pc, m.sp, m.aw = s.PC, svcPhase(s.SP), nil
		}
	}
	for i := range st.Isrs {
		s := &st.Isrs[i]
		isr := k.isrs[s.IntNo]
		isr.fires = s.Fires
		isr.missed = s.Missed
		isr.dropped = s.Dropped
		if m := machineOf(isr.tt); m != nil && s.HasMachine {
			m.pc, m.sp, m.aw = s.PC, svcPhase(s.SP), nil
		}
	}
	k.timerQ.items = append(k.timerQ.items[:0], st.Timer...)
	k.timerQ.seq = st.TimerSeq
	k.sysBase = st.SysBase
	k.ticks = st.Ticks
	k.disDsp = st.DisDsp
	return nil
}
