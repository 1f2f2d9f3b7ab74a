package tkernel

import (
	"fmt"
	"sort"

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
// Closures are restorable here because every one the kernel arms —
// wait-timeout cancellations, cyclic/alarm firing entries — captures only
// pointers that are stable across one construction (the kernel, a task, a
// handler) plus guard counters (waitSeq, gen) that the restore writes
// back, so a replayed closure observes exactly the state it was created
// against. The timer queue is therefore captured as a value copy of its
// heap array, closures included, in exact array order.
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
	Cancel   func() // armed wait-cancellation closure (nil when not waiting)
	AwTask   bool   // task.aw.task is set
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

// TimerEntry is the encodable view of one pending timer-queue callback:
// the firing instant and push sequence, without the closure (a restore
// from bytes replays construction, which re-creates the closures).
type TimerEntry struct {
	When sysc.Time
	Seq  uint64
}

// TimerEntries returns the captured timer queue in exact heap-array
// order, closures elided.
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

// sortedIDs returns the map's keys in ascending order.
func sortedIDs[V any](m map[ID]V) []ID {
	out := make([]ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
	case len(k.mbxs) > 0:
		return nil, fmt.Errorf("tkernel: state capture does not support mailboxes")
	case len(k.mpfs) > 0:
		return nil, fmt.Errorf("tkernel: state capture does not support fixed-size memory pools")
	case len(k.mpls) > 0:
		return nil, fmt.Errorf("tkernel: state capture does not support variable-size memory pools")
	case len(k.pors) > 0 || len(k.rdvs) > 0:
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
	for _, id := range sortedIDs(k.tasks) {
		t := k.tasks[id]
		s := TaskSnap{
			ID:       id,
			WupCount: t.wupCount,
			WaitSeq:  t.waitSeq,
			Cancel:   t.waitCancel,
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
		st.Tasks = append(st.Tasks, s)
	}
	for _, id := range sortedIDs(k.sems) {
		sem := k.sems[id]
		s := SemSnap{ID: id, Count: sem.count}
		for t := sem.wq.head(); t != nil; t = t.wqNext {
			s.Wait = append(s.Wait, t.id)
			s.Need = append(s.Need, sem.pending[t])
		}
		st.Sems = append(st.Sems, s)
	}
	for _, id := range sortedIDs(k.flags) {
		f := k.flags[id]
		s := FlgSnap{ID: id, Pattern: f.pattern}
		for t := f.wq.head(); t != nil; t = t.wqNext {
			w := f.waits[t]
			if w == nil {
				return nil, fmt.Errorf("tkernel: flag %d waiter %q has no wait record", id, t.name)
			}
			s.Wait = append(s.Wait, t.id)
			s.Waiptn = append(s.Waiptn, w.waiptn)
			s.Mode = append(s.Mode, w.mode)
			s.Relptn = append(s.Relptn, w.relptn)
		}
		st.Flags = append(st.Flags, s)
	}
	for _, id := range sortedIDs(k.mtxs) {
		m := k.mtxs[id]
		s := MtxSnap{ID: id, HasOwner: m.owner != nil}
		if m.owner != nil {
			s.Owner = m.owner.id
		}
		for t := m.wq.head(); t != nil; t = t.wqNext {
			s.Wait = append(s.Wait, t.id)
		}
		st.Mtxs = append(st.Mtxs, s)
	}
	for _, id := range sortedIDs(k.mbfs) {
		b := k.mbfs[id]
		s := MbfSnap{ID: id, Used: b.used}
		for _, msg := range b.msgs {
			s.Msgs = append(s.Msgs, append([]byte(nil), msg...))
		}
		for t := b.sendQ.head(); t != nil; t = t.wqNext {
			s.SendQ = append(s.SendQ, t.id)
			s.SendMsg = append(s.SendMsg, append([]byte(nil), b.sMsg[t]...))
		}
		for t := b.recvQ.head(); t != nil; t = t.wqNext {
			s.RecvQ = append(s.RecvQ, t.id)
			s.RecvDst = append(s.RecvDst, b.rDst[t])
		}
		st.Mbfs = append(st.Mbfs, s)
	}
	for _, id := range sortedIDs(k.cycs) {
		c := k.cycs[id]
		s := CycSnap{ID: id, Active: c.active, Fires: c.fires, Overruns: c.overruns, Gen: c.gen}
		if m := machineOf(c.tt); m != nil {
			s.HasMachine, s.PC, s.SP = true, m.pc, uint8(m.sp)
		}
		st.Cycs = append(st.Cycs, s)
	}
	for _, id := range sortedIDs(k.alms) {
		a := k.alms[id]
		s := AlmSnap{ID: id, Active: a.active, Fires: a.fires, Gen: a.gen}
		if m := machineOf(a.tt); m != nil {
			s.HasMachine, s.PC, s.SP = true, m.pc, uint8(m.sp)
		}
		st.Alms = append(st.Alms, s)
	}
	intnos := make([]int, 0, len(k.isrs))
	for n := range k.isrs {
		intnos = append(intnos, n)
	}
	sort.Ints(intnos)
	for _, n := range intnos {
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

// taskList resolves captured task IDs against the registry.
func (k *Kernel) taskList(ids []ID) ([]*Task, error) {
	out := make([]*Task, len(ids))
	for i, id := range ids {
		t := k.tasks[id]
		if t == nil {
			return nil, fmt.Errorf("tkernel: captured wait queue references unknown task %d", id)
		}
		out[i] = t
	}
	return out, nil
}

// LoadState restores a state captured from this same construction: the
// same object population (the supported synthetic workloads create all
// kernel objects at boot and never delete them).
func (k *Kernel) LoadState(st *KernelState) error {
	if len(st.Tasks) != len(k.tasks) || len(st.Sems) != len(k.sems) ||
		len(st.Flags) != len(k.flags) || len(st.Mtxs) != len(k.mtxs) ||
		len(st.Mbfs) != len(k.mbfs) || len(st.Cycs) != len(k.cycs) ||
		len(st.Alms) != len(k.alms) || len(st.Isrs) != len(k.isrs) {
		return fmt.Errorf("tkernel: state mismatch: kernel object population changed since capture")
	}
	// Unlink every task from whatever queue it is on now; the captured
	// queues re-link below.
	for _, t := range k.tasks {
		t.wqNext, t.wqPrev, t.wqIn = nil, nil, nil
	}
	for i := range st.Tasks {
		s := &st.Tasks[i]
		t := k.tasks[s.ID]
		if t == nil {
			return fmt.Errorf("tkernel: captured state references unknown task %d", s.ID)
		}
		t.wupCount = s.WupCount
		t.waitSeq = s.WaitSeq
		t.waitCancel = s.Cancel
		t.rdvno = 0
		if s.AwTask {
			t.aw.task = t
		} else {
			t.aw.task = nil
		}
		t.aw.obj = s.AwObj
		t.owned = t.owned[:0]
		for _, mid := range s.Owned {
			m := k.mtxs[mid]
			if m == nil {
				return fmt.Errorf("tkernel: task %d owns unknown mutex %d", s.ID, mid)
			}
			t.owned = append(t.owned, m)
		}
		if m := machineOf(t.tt); m != nil {
			if !s.HasMachine {
				return fmt.Errorf("tkernel: task %d gained a compiled machine since capture", s.ID)
			}
			m.pc = s.PC
			m.sp = svcPhase(s.SP)
			if s.AwArmed {
				m.aw = &t.aw
			} else {
				m.aw = nil
			}
		} else if s.HasMachine {
			return fmt.Errorf("tkernel: task %d lost its compiled machine since capture", s.ID)
		}
	}
	for i := range st.Sems {
		s := &st.Sems[i]
		sem := k.sems[s.ID]
		if sem == nil {
			return fmt.Errorf("tkernel: captured state references unknown semaphore %d", s.ID)
		}
		sem.count = s.Count
		ts, err := k.taskList(s.Wait)
		if err != nil {
			return err
		}
		sem.wq.relink(ts)
		clear(sem.pending)
		for j, t := range ts {
			sem.pending[t] = s.Need[j]
		}
	}
	for i := range st.Flags {
		s := &st.Flags[i]
		f := k.flags[s.ID]
		if f == nil {
			return fmt.Errorf("tkernel: captured state references unknown flag %d", s.ID)
		}
		f.pattern = s.Pattern
		ts, err := k.taskList(s.Wait)
		if err != nil {
			return err
		}
		f.wq.relink(ts)
		clear(f.waits)
		for j, t := range ts {
			f.waits[t] = &flgWait{waiptn: s.Waiptn[j], mode: s.Mode[j], relptn: s.Relptn[j]}
		}
	}
	for i := range st.Mtxs {
		s := &st.Mtxs[i]
		m := k.mtxs[s.ID]
		if m == nil {
			return fmt.Errorf("tkernel: captured state references unknown mutex %d", s.ID)
		}
		m.owner = nil
		if s.HasOwner {
			o := k.tasks[s.Owner]
			if o == nil {
				return fmt.Errorf("tkernel: mutex %d owned by unknown task %d", s.ID, s.Owner)
			}
			m.owner = o
		}
		ts, err := k.taskList(s.Wait)
		if err != nil {
			return err
		}
		m.wq.relink(ts)
	}
	for i := range st.Mbfs {
		s := &st.Mbfs[i]
		b := k.mbfs[s.ID]
		if b == nil {
			return fmt.Errorf("tkernel: captured state references unknown message buffer %d", s.ID)
		}
		b.used = s.Used
		b.msgs = b.msgs[:0]
		for _, msg := range s.Msgs {
			b.msgs = append(b.msgs, append([]byte(nil), msg...))
		}
		senders, err := k.taskList(s.SendQ)
		if err != nil {
			return err
		}
		b.sendQ.relink(senders)
		clear(b.sMsg)
		for j, t := range senders {
			b.sMsg[t] = append([]byte(nil), s.SendMsg[j]...)
		}
		receivers, err := k.taskList(s.RecvQ)
		if err != nil {
			return err
		}
		b.recvQ.relink(receivers)
		clear(b.rDst)
		for j, t := range receivers {
			b.rDst[t] = s.RecvDst[j]
		}
	}
	for i := range st.Cycs {
		s := &st.Cycs[i]
		c := k.cycs[s.ID]
		if c == nil {
			return fmt.Errorf("tkernel: captured state references unknown cyclic handler %d", s.ID)
		}
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
		a := k.alms[s.ID]
		if a == nil {
			return fmt.Errorf("tkernel: captured state references unknown alarm handler %d", s.ID)
		}
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
		if isr == nil {
			return fmt.Errorf("tkernel: captured state references unknown interrupt %d", s.IntNo)
		}
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
