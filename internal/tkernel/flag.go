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
// Each waiter's condition is its winfo ptn and mode, and winfo.relptn
// receives the pattern that releases it.
type EventFlag struct {
	id      ID
	name    string
	label   string // wait-object label, formed at creation
	attr    Attr
	pattern uint32
	wq      waitQueue
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
func (k *Kernel) CreFlg(name string, attr Attr, init uint32) (id ID, er ER) {
	er = k.call("tk_cre_flg", func(k *Kernel) (ER, *armedWait) {
		var f *EventFlag
		id, f = k.flags.add()
		*f = EventFlag{
			id: id, name: name, label: objName("flg", id, name),
			attr: attr, pattern: init, wq: newWaitQueue(attr),
		}
		return EOK, nil
	})
	return id, er
}

// DelFlg deletes an event flag; waiters are released with E_DLT (tk_del_flg).
func (k *Kernel) DelFlg(id ID) ER {
	return k.call("tk_del_flg", func(k *Kernel) (ER, *armedWait) {
		f := k.flags.get(id)
		if f == nil {
			return ENOEXS, nil
		}
		f.wq.drain(func(t *Task) { k.wake(t, EDLT) })
		k.flags.del(id)
		return EOK, nil
	})
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
func (k *Kernel) SetFlg(id ID, setptn uint32) ER {
	return k.call("tk_set_flg", func(k *Kernel) (ER, *armedWait) { return k.setFlgBody(id, setptn), nil })
}

// setFlgBody is the body of SetFlg, shared with its program op.
func (k *Kernel) setFlgBody(id ID, setptn uint32) ER {
	f := k.flags.get(id)
	if f == nil {
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
			w := &t.winfo
			if !flgMatch(f.pattern, w.ptn, w.mode) {
				continue
			}
			if w.relptn != nil {
				*w.relptn = f.pattern
			}
			if w.mode&TwfCLR != 0 {
				f.pattern = 0
			} else if w.mode&TwfBitCLR != 0 {
				f.pattern &^= w.ptn
			}
			f.wq.remove(t)
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
func (k *Kernel) ClrFlg(id ID, clrptn uint32) ER {
	return k.call("tk_clr_flg", func(k *Kernel) (ER, *armedWait) {
		f := k.flags.get(id)
		if f == nil {
			return ENOEXS, nil
		}
		f.pattern &= clrptn
		return EOK, nil
	})
}

// WaiFlg waits until the flag pattern satisfies (waiptn, mode), delivering
// the pattern at release time (tk_wai_flg).
func (k *Kernel) WaiFlg(id ID, waiptn uint32, mode FlagMode, tmout TMO) (relptn uint32, er ER) {
	er = k.call("tk_wai_flg", func(k *Kernel) (ER, *armedWait) { return k.waiFlgBody(id, waiptn, mode, tmout, &relptn) })
	return relptn, er
}

// waiFlgBody is the body of WaiFlg, shared with its program op: the release pattern
// is delivered through relptn (zero on error paths).
func (k *Kernel) waiFlgBody(id ID, waiptn uint32, mode FlagMode, tmout TMO, relptn *uint32) (ER, *armedWait) {
	f := k.flags.get(id)
	if f == nil {
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
	task.winfo.ptn, task.winfo.mode, task.winfo.relptn = waiptn, mode, relptn
	return EOK, k.armSleep(task, &f.wq, f.label, tmout)
}

// RefFlg returns the event-flag state (tk_ref_flg).
func (k *Kernel) RefFlg(id ID) (FlagInfo, ER) {
	f := k.flags.get(id)
	if f == nil {
		return FlagInfo{}, ENOEXS
	}
	return FlagInfo{ID: f.id, Name: f.name, Pattern: f.pattern,
		Waiting: f.wq.refs()}, EOK
}
