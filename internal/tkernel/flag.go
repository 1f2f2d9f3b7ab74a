package tkernel

// Event flag wait modes (tk_wai_flg).
type FlagMode uint32

// Wait-mode bits.
const (
	TwfANDW   FlagMode = 0      // wait until all bits of waiptn are set
	TwfORW    FlagMode = 1 << 0 // wait until any bit of waiptn is set
	TwfCLR    FlagMode = 1 << 1 // clear the whole pattern on release
	TwfBitCLR FlagMode = 1 << 2 // clear only the matched bits on release
)

// EventFlag is a T-Kernel event flag: a 32-bit pattern tasks wait on with
// AND/OR conditions and optional clearing (tk_cre_flg family).
type EventFlag struct {
	id      ID
	name    string
	attr    Attr
	pattern uint32
	wq      waitQueue
	waits   map[*Task]*flgWait
}

type flgWait struct {
	waiptn uint32
	mode   FlagMode
	relptn *uint32 // where to deliver the release pattern
}

// FlagInfo is the tk_ref_flg snapshot.
type FlagInfo struct {
	ID      ID
	Name    string
	Pattern uint32
	Waiting []WaitRef
}

// CreFlg creates an event flag with an initial pattern (tk_cre_flg).
// TaWMUL permits multiple simultaneous waiters.
func (k *Kernel) CreFlg(name string, attr Attr, init uint32) (_ ID, er ER) {
	k.enterSvc("tk_cre_flg")
	defer k.exitSvc("tk_cre_flg", &er)
	k.nextFlg++
	id := k.nextFlg
	k.flags[id] = &EventFlag{
		id: id, name: name, attr: attr, pattern: init,
		wq:    newWaitQueue(attr),
		waits: map[*Task]*flgWait{},
	}
	return id, EOK
}

// DelFlg deletes an event flag; waiters are released with E_DLT (tk_del_flg).
func (k *Kernel) DelFlg(id ID) (er ER) {
	k.enterSvc("tk_del_flg")
	defer k.exitSvc("tk_del_flg", &er)
	f, ok := k.flags[id]
	if !ok {
		return ENOEXS
	}
	f.wq.drain(func(t *Task) {
		delete(f.waits, t)
		k.wake(t, EDLT)
	})
	delete(k.flags, id)
	return EOK
}

// flgMatch evaluates a wait condition against the current pattern.
func flgMatch(pattern, waiptn uint32, mode FlagMode) bool {
	if mode&TwfORW != 0 {
		return pattern&waiptn != 0
	}
	return pattern&waiptn == waiptn
}

// SetFlg sets bits in the pattern and releases all satisfied waiters in
// queue order (tk_set_flg).
func (k *Kernel) SetFlg(id ID, setptn uint32) (er ER) {
	k.enterSvc("tk_set_flg")
	defer k.exitSvc("tk_set_flg", &er)
	return k.setFlgBody(id, setptn)
}

// setFlgBody is the split call body of SetFlg.
func (k *Kernel) setFlgBody(id ID, setptn uint32) ER {
	f, ok := k.flags[id]
	if !ok {
		return ENOEXS
	}
	f.pattern |= setptn
	k.flgRelease(f)
	return EOK
}

// flgRelease walks the wait queue releasing satisfied waiters; TwfCLR and
// TwfBitCLR clearing can unsatisfy later waiters, so the scan restarts on
// every successful release.
func (k *Kernel) flgRelease(f *EventFlag) {
	for {
		released := false
		for t := f.wq.head(); t != nil; t = t.wqNext {
			w := f.waits[t]
			if w == nil || !flgMatch(f.pattern, w.waiptn, w.mode) {
				continue
			}
			if w.relptn != nil {
				*w.relptn = f.pattern
			}
			if w.mode&TwfCLR != 0 {
				f.pattern = 0
			} else if w.mode&TwfBitCLR != 0 {
				f.pattern &^= w.waiptn
			}
			f.wq.remove(t)
			delete(f.waits, t)
			k.wake(t, EOK)
			released = true
			break
		}
		if !released {
			return
		}
	}
}

// ClrFlg clears bits: pattern &= clrptn (tk_clr_flg; clrptn is the mask of
// bits to KEEP, per the T-Kernel signature).
func (k *Kernel) ClrFlg(id ID, clrptn uint32) (er ER) {
	k.enterSvc("tk_clr_flg")
	defer k.exitSvc("tk_clr_flg", &er)
	f, ok := k.flags[id]
	if !ok {
		return ENOEXS
	}
	f.pattern &= clrptn
	return EOK
}

// WaiFlg waits until the flag pattern satisfies (waiptn, mode), delivering
// the pattern at release time (tk_wai_flg).
func (k *Kernel) WaiFlg(id ID, waiptn uint32, mode FlagMode, tmout TMO) (_ uint32, er ER) {
	k.enterSvc("tk_wai_flg")
	defer k.exitSvc("tk_wai_flg", &er)
	var relptn uint32
	er = k.finish(k.waiFlgBody(id, waiptn, mode, tmout, &relptn))
	return relptn, er
}

// waiFlgBody is the split call body of WaiFlg: the release pattern
// is delivered through relptn (zero on error paths).
func (k *Kernel) waiFlgBody(id ID, waiptn uint32, mode FlagMode, tmout TMO, relptn *uint32) (ER, *armedWait) {
	f, ok := k.flags[id]
	if !ok {
		return ENOEXS, nil
	}
	if waiptn == 0 {
		return EPAR, nil
	}
	if f.attr&TaWMUL == 0 && f.wq.len() > 0 {
		return EOBJ, nil // single-waiter flag already has a waiter
	}
	if flgMatch(f.pattern, waiptn, mode) {
		*relptn = f.pattern
		if mode&TwfCLR != 0 {
			f.pattern = 0
		} else if mode&TwfBitCLR != 0 {
			f.pattern &^= waiptn
		}
		return EOK, nil
	}
	if tmout == TmoPol {
		return ETMOUT, nil
	}
	task, er := k.blockCheck(tmout)
	if er != EOK {
		return er, nil
	}
	f.wq.add(task)
	f.waits[task] = &flgWait{waiptn: waiptn, mode: mode, relptn: relptn}
	return EOK, k.armSleep(task, objName("flg", f.id, f.name), tmout, func() {
		f.wq.remove(task)
		delete(f.waits, task)
	})
}

// RefFlg returns the event-flag state (tk_ref_flg).
func (k *Kernel) RefFlg(id ID) (FlagInfo, ER) {
	f, ok := k.flags[id]
	if !ok {
		return FlagInfo{}, ENOEXS
	}
	return FlagInfo{ID: f.id, Name: f.name, Pattern: f.pattern,
		Waiting: f.wq.refs()}, EOK
}
