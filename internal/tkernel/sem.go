package tkernel

// Semaphore is a T-Kernel counting semaphore (tk_cre_sem family): a
// non-negative resource count with a wait queue of tasks requesting counts.
type Semaphore struct {
	id      ID
	name    string
	attr    Attr
	count   int
	maxSem  int
	wq      waitQueue
	pending map[*Task]int // requested count per waiting task
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
func (k *Kernel) CreSem(name string, attr Attr, initCount, maxCount int) (_ ID, er ER) {
	k.enterSvc("tk_cre_sem")
	defer k.exitSvc("tk_cre_sem", &er)
	if maxCount <= 0 || initCount < 0 || initCount > maxCount {
		return 0, EPAR
	}
	k.nextSem++
	id := k.nextSem
	k.sems[id] = &Semaphore{
		id: id, name: name, attr: attr,
		count: initCount, maxSem: maxCount,
		wq:      newWaitQueue(attr),
		pending: map[*Task]int{},
	}
	return id, EOK
}

// DelSem deletes a semaphore; waiting tasks are released with E_DLT
// (tk_del_sem).
func (k *Kernel) DelSem(id ID) (er ER) {
	k.enterSvc("tk_del_sem")
	defer k.exitSvc("tk_del_sem", &er)
	s, ok := k.sems[id]
	if !ok {
		return ENOEXS
	}
	s.wq.drain(func(t *Task) {
		delete(s.pending, t)
		k.wake(t, EDLT)
	})
	delete(k.sems, id)
	return EOK
}

// SigSem returns cnt resources to the semaphore and grants queued requests
// in queue order (tk_sig_sem).
func (k *Kernel) SigSem(id ID, cnt int) (er ER) {
	k.enterSvc("tk_sig_sem")
	defer k.exitSvc("tk_sig_sem", &er)
	return k.sigSemBody(id, cnt)
}

// sigSemBody is the split call body of SigSem.
func (k *Kernel) sigSemBody(id ID, cnt int) ER {
	s, ok := k.sems[id]
	if !ok {
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
		need := s.pending[t]
		if s.count < need {
			return
		}
		s.count -= need
		s.wq.remove(t)
		delete(s.pending, t)
		k.wake(t, EOK)
	}
}

// WaiSem acquires cnt resources, waiting up to tmout (tk_wai_sem).
func (k *Kernel) WaiSem(id ID, cnt int, tmout TMO) (er ER) {
	k.enterSvc("tk_wai_sem")
	defer k.exitSvc("tk_wai_sem", &er)
	return k.finish(k.waiSemBody(id, cnt, tmout))
}

// waiSemBody is the split call body of WaiSem.
func (k *Kernel) waiSemBody(id ID, cnt int, tmout TMO) (ER, *armedWait) {
	s, ok := k.sems[id]
	if !ok {
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
	s.pending[task] = cnt
	sid := s.id
	return EOK, k.armSleep(task, objName("sem", sid, s.name), tmout, func() {
		s.wq.remove(task)
		delete(s.pending, task)
	})
}

// RefSem returns the semaphore state (tk_ref_sem).
func (k *Kernel) RefSem(id ID) (SemInfo, ER) {
	s, ok := k.sems[id]
	if !ok {
		return SemInfo{}, ENOEXS
	}
	return k.semInfo(s), EOK
}

// semInfo builds the unified view of one semaphore.
func (k *Kernel) semInfo(s *Semaphore) SemInfo {
	info := SemInfo{ID: s.id, Name: s.name, Count: s.count,
		MaxCount: s.maxSem, Waiting: s.wq.refs()}
	if h := s.wq.head(); h != nil {
		info.HeadNeed = s.pending[h]
	}
	return info
}
