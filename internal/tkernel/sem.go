package tkernel

// Semaphore is a T-Kernel counting semaphore (tk_cre_sem family): a
// non-negative resource count with a wait queue of tasks requesting counts.
// Each waiter's request is its winfo.cnt.
type Semaphore struct {
	id     ID
	name   string
	label  string // wait-object label, formed at creation
	attr   Attr
	count  int
	maxSem int
	wq     waitQueue
}

// SemInfo is the unified semaphore view returned by both tk_ref_sem and the
// invariant snapshot path (SnapshotSemaphores).
type SemInfo struct {
	ID       ID
	Name     string
	Count    int
	MaxCount int
	HeadNeed int // resource request of the queue head (0 when no waiters)
	Waiting  []WaitRef
}

// CreSem creates a semaphore with an initial count and a maximum count
// (tk_cre_sem).
func (k *Kernel) CreSem(name string, attr Attr, initCount, maxCount int) (id ID, er ER) {
	er = k.call("tk_cre_sem", func(k *Kernel) (ER, *armedWait) {
		if maxCount <= 0 || initCount < 0 || initCount > maxCount {
			return EPAR, nil
		}
		var s *Semaphore
		id, s = k.sems.add()
		*s = Semaphore{
			id: id, name: name, label: objName("sem", id, name), attr: attr,
			count: initCount, maxSem: maxCount, wq: newWaitQueue(attr),
		}
		return EOK, nil
	})
	return id, er
}

// DelSem deletes a semaphore; waiting tasks are released with E_DLT
// (tk_del_sem).
func (k *Kernel) DelSem(id ID) ER {
	return k.call("tk_del_sem", func(k *Kernel) (ER, *armedWait) {
		s := k.sems.get(id)
		if s == nil {
			return ENOEXS, nil
		}
		s.wq.drain(func(t *Task) { k.wake(t, EDLT) })
		k.sems.del(id)
		return EOK, nil
	})
}

// SigSem returns cnt resources to the semaphore and grants queued requests
// in queue order (tk_sig_sem).
func (k *Kernel) SigSem(id ID, cnt int) ER {
	return k.call("tk_sig_sem", func(k *Kernel) (ER, *armedWait) { return k.sigSemBody(id, cnt), nil })
}

// sigSemBody is the body of SigSem, shared with its program op.
func (k *Kernel) sigSemBody(id ID, cnt int) ER {
	s := k.sems.get(id)
	if s == nil {
		return ENOEXS
	}
	if cnt <= 0 {
		return EPAR
	}
	if s.count+cnt > s.maxSem {
		return EQOVR
	}
	s.count += cnt
	k.semGrant(s)
	return EOK
}

// semGrant satisfies waiting requests from the head of the queue while the
// count allows (strict queue order: a large head request blocks smaller
// ones behind it, per the T-Kernel TA_CNT-less semantics).
func (k *Kernel) semGrant(s *Semaphore) {
	for {
		t := s.wq.head()
		if t == nil {
			return
		}
		if s.count < t.winfo.cnt {
			return
		}
		s.count -= t.winfo.cnt
		s.wq.remove(t)
		k.wake(t, EOK)
	}
}

// WaiSem acquires cnt resources, waiting up to tmout (tk_wai_sem).
func (k *Kernel) WaiSem(id ID, cnt int, tmout TMO) ER {
	return k.call("tk_wai_sem", func(k *Kernel) (ER, *armedWait) { return k.waiSemBody(id, cnt, tmout) })
}

// waiSemBody is the body of WaiSem, shared with its program op.
func (k *Kernel) waiSemBody(id ID, cnt int, tmout TMO) (ER, *armedWait) {
	s := k.sems.get(id)
	if s == nil {
		return ENOEXS, nil
	}
	if cnt <= 0 || cnt > s.maxSem {
		return EPAR, nil
	}
	if s.wq.len() == 0 && s.count >= cnt {
		s.count -= cnt
		return EOK, nil
	}
	if tmout == TmoPol {
		return ETMOUT, nil
	}
	task, er := k.blockCheck(tmout)
	if er != EOK {
		return er, nil
	}
	s.wq.add(task)
	task.winfo.cnt = cnt
	return EOK, k.armSleep(task, &s.wq, s.label, tmout)
}

// RefSem returns the semaphore state (tk_ref_sem).
func (k *Kernel) RefSem(id ID) (SemInfo, ER) {
	s := k.sems.get(id)
	if s == nil {
		return SemInfo{}, ENOEXS
	}
	return k.semInfo(s), EOK
}

// semInfo builds the unified view of one semaphore.
func (k *Kernel) semInfo(s *Semaphore) SemInfo {
	info := SemInfo{ID: s.id, Name: s.name, Count: s.count,
		MaxCount: s.maxSem, Waiting: s.wq.refs()}
	if h := s.wq.head(); h != nil {
		info.HeadNeed = h.winfo.cnt
	}
	return info
}
