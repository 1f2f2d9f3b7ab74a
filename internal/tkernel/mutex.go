package tkernel

// Mutex is a T-Kernel mutex (tk_cre_mtx family) supporting FIFO/priority
// wait queues, priority inheritance (TA_INHERIT) and priority ceiling
// (TA_CEILING). Mutexes owned by a task are released automatically when the
// task exits or is terminated.
type Mutex struct {
	id      ID
	name    string
	attr    Attr
	ceiling int // ceiling priority (TA_CEILING)
	owner   *Task
	wq      waitQueue
}

// MutexInfo is the tk_ref_mtx snapshot.
type MutexInfo struct {
	ID        ID
	Name      string
	Attr      Attr
	Ceiling   int
	Owner     ID     // waiting-task view: 0 when unlocked (see HasOwner)
	OwnerName string // "" when unlocked
	HasOwner  bool
	Waiting   []WaitRef
}

// CreMtx creates a mutex (tk_cre_mtx). For TA_CEILING, ceilpri is the
// ceiling priority; ignored otherwise.
func (k *Kernel) CreMtx(name string, attr Attr, ceilpri int) (_ ID, er ER) {
	k.enterSvc("tk_cre_mtx")
	defer k.exitSvc("tk_cre_mtx", &er)
	if attr&TaCeiling != 0 && (ceilpri < 1 || ceilpri > k.cfg.MaxPriority) {
		return 0, EPAR
	}
	if attr&TaCeiling != 0 && attr&TaInherit != 0 {
		return 0, ERSATR
	}
	k.nextMtx++
	id := k.nextMtx
	wqAttr := attr
	if attr&(TaInherit|TaCeiling) != 0 {
		wqAttr |= TaTPRI // inheritance/ceiling imply priority-ordered queue
	}
	m := &Mutex{id: id, name: name, attr: attr, ceiling: ceilpri,
		wq: newWaitQueue(wqAttr)}
	m.wq.mtx = m
	k.mtxs[id] = m
	return id, EOK
}

// DelMtx deletes a mutex; waiters are released with E_DLT (tk_del_mtx).
func (k *Kernel) DelMtx(id ID) (er ER) {
	k.enterSvc("tk_del_mtx")
	defer k.exitSvc("tk_del_mtx", &er)
	m, ok := k.mtxs[id]
	if !ok {
		return ENOEXS
	}
	if m.owner != nil {
		k.dropOwnership(m.owner, m)
	}
	m.wq.drain(func(t *Task) {
		k.wake(t, EDLT)
	})
	delete(k.mtxs, id)
	return EOK
}

// LocMtx locks the mutex, waiting up to tmout (tk_loc_mtx). Re-locking a
// mutex the caller already owns is E_ILUSE. Under TA_CEILING, a locker
// whose base priority outranks the ceiling is E_ILUSE.
func (k *Kernel) LocMtx(id ID, tmout TMO) (er ER) {
	k.enterSvc("tk_loc_mtx")
	defer k.exitSvc("tk_loc_mtx", &er)
	return k.finish(k.locMtxBody(id, tmout))
}

// locMtxBody is the split call body of LocMtx.
func (k *Kernel) locMtxBody(id ID, tmout TMO) (ER, *armedWait) {
	m, ok := k.mtxs[id]
	if !ok {
		return ENOEXS, nil
	}
	if tmout < TmoFevr {
		return EPAR, nil
	}
	task := k.caller()
	if task == nil || k.api.InHandler() {
		return ECTX, nil // mutexes are task-context only
	}
	if m.owner == task {
		return EILUSE, nil
	}
	if m.attr&TaCeiling != 0 && task.tt.BasePriority() < m.ceiling {
		return EILUSE, nil
	}
	if m.owner == nil {
		k.takeOwnership(task, m)
		return EOK, nil
	}
	if tmout == TmoPol {
		return ETMOUT, nil
	}
	// Priority inheritance: boost the owner to the blocker's priority (and,
	// if the owner is itself blocked in a priority queue, re-file it there —
	// transitive inheritance along a wait chain).
	if m.attr&TaInherit != 0 && task.tt.Priority() < m.owner.tt.Priority() {
		k.setEffective(m.owner, task.tt.Priority())
	}
	m.wq.add(task)
	// On success the releaser transfers ownership to the waiter already.
	return EOK, k.armSleep(task, objName("mtx", m.id, m.name), tmout, func() {
		m.wq.remove(task)
		k.recomputeInheritance(m)
	})
}

// UnlMtx unlocks the mutex and passes ownership to the head waiter
// (tk_unl_mtx). Only the owner may unlock (E_ILUSE).
func (k *Kernel) UnlMtx(id ID) (er ER) {
	k.enterSvc("tk_unl_mtx")
	defer k.exitSvc("tk_unl_mtx", &er)
	return k.unlMtxBody(id)
}

// unlMtxBody is the split call body of UnlMtx.
func (k *Kernel) unlMtxBody(id ID) ER {
	m, ok := k.mtxs[id]
	if !ok {
		return ENOEXS
	}
	task := k.caller()
	if task == nil {
		return ECTX
	}
	if m.owner != task {
		return EILUSE
	}
	k.dropOwnership(task, m)
	if next := m.wq.head(); next != nil {
		m.wq.remove(next)
		k.takeOwnership(next, m)
		k.recomputeInheritance(m)
		k.wake(next, EOK)
	}
	return EOK
}

// RefMtx returns the mutex state (tk_ref_mtx).
func (k *Kernel) RefMtx(id ID) (MutexInfo, ER) {
	m, ok := k.mtxs[id]
	if !ok {
		return MutexInfo{}, ENOEXS
	}
	return k.mtxInfo(m), EOK
}

// mtxInfo builds the unified view of one mutex.
func (k *Kernel) mtxInfo(m *Mutex) MutexInfo {
	info := MutexInfo{ID: m.id, Name: m.name, Attr: m.attr,
		Ceiling: m.ceiling, Waiting: m.wq.refs()}
	if m.owner != nil {
		info.Owner = m.owner.id
		info.OwnerName = m.owner.name
		info.HasOwner = true
	}
	return info
}

// takeOwnership records ownership and applies a ceiling boost.
func (k *Kernel) takeOwnership(task *Task, m *Mutex) {
	m.owner = task
	task.owned = append(task.owned, m)
	if m.attr&TaCeiling != 0 && m.ceiling < task.tt.Priority() {
		k.setEffective(task, m.ceiling)
	}
}

// dropOwnership removes m from the task's owned set and recomputes the
// task's effective priority from its remaining mutexes.
func (k *Kernel) dropOwnership(task *Task, m *Mutex) {
	m.owner = nil
	for i, x := range task.owned {
		if x == m {
			task.owned = append(task.owned[:i], task.owned[i+1:]...)
			break
		}
	}
	k.recomputeEffective(task)
}

// recomputeEffective sets the task's effective priority to the strongest of
// its base priority, the ceilings of owned ceiling-mutexes, and the top
// waiter priorities of owned inheritance-mutexes.
func (k *Kernel) recomputeEffective(task *Task) {
	p := task.tt.BasePriority()
	for _, m := range task.owned {
		if m.attr&TaCeiling != 0 && m.ceiling < p {
			p = m.ceiling
		}
		if m.attr&TaInherit != 0 {
			if h := m.wq.head(); h != nil && h.tt.Priority() < p {
				p = h.tt.Priority()
			}
		}
	}
	k.setEffective(task, p)
}

// recomputeInheritance refreshes the owner's boost after the wait queue of
// an inheritance mutex changes.
func (k *Kernel) recomputeInheritance(m *Mutex) {
	if m.owner != nil && m.attr&TaInherit != 0 {
		k.recomputeEffective(m.owner)
	}
}

// releaseOwnedMutexes unlocks everything a task owns (task exit and
// termination paths, per the T-Kernel rule).
func (k *Kernel) releaseOwnedMutexes(task *Task) {
	for len(task.owned) > 0 {
		m := task.owned[len(task.owned)-1]
		k.dropOwnership(task, m)
		if next := m.wq.head(); next != nil {
			m.wq.remove(next)
			k.takeOwnership(next, m)
			k.recomputeInheritance(m)
			k.wake(next, EOK)
		}
	}
}
