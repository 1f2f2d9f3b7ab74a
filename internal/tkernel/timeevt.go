package tkernel

import (
	"repro/internal/core"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// HandlerFunc is the body of a time-event or interrupt handler. It runs in
// handler (task-independent) context: task dispatching is delayed until it
// returns, and blocking service calls are forbidden (E_CTX). The handler
// consumes execution time/energy through the ctx.Work annotation.
type HandlerFunc func(ctx *HandlerCtx)

// HandlerCtx is the execution context handed to a running handler.
type HandlerCtx struct {
	K  *Kernel
	tt *core.TThread
}

// Work consumes handler execution time/energy (the handler's ETM/EEM).
func (h *HandlerCtx) Work(c core.Cost, note string) {
	h.tt.Consume(c, trace.CtxHandler, note)
}

// Now returns the current simulation time.
func (h *HandlerCtx) Now() sysc.Time { return h.tt.Now() }

// CyclicHandler is a T-Kernel cyclic handler (tk_cre_cyc family): a
// time-event handler started every cycle time once activated.
type CyclicHandler struct {
	id       ID
	name     string
	interval sysc.Time
	phase    sysc.Time
	active   bool
	tt       *core.TThread
	k        *Kernel
	overruns int
	fires    int
	gen      int // activation generation: stale timer entries are ignored
}

// CyclicInfo is the tk_ref_cyc snapshot.
type CyclicInfo struct {
	Name     string
	Active   bool
	Interval sysc.Time
	Fires    int
	Overruns int
}

// CreCyc creates a cyclic handler with the given cycle interval and initial
// phase (tk_cre_cyc). TA_STA semantics are obtained by calling StaCyc.
func (k *Kernel) CreCyc(name string, interval, phase sysc.Time, fn HandlerFunc) (ID, ER) {
	return k.creCyc(name, interval, phase, k.closureHandler(name, core.KindCyclicHandler, fn))
}

// closureHandler returns the thread constructor of a handler whose body is
// a Go closure.
func (k *Kernel) closureHandler(name string, kind core.Kind, fn HandlerFunc) func() *core.TThread {
	return func() *core.TThread {
		return k.api.CreateThread(name, kind, 0, func(tt *core.TThread) {
			fn(&HandlerCtx{K: k, tt: tt})
		})
	}
}

// creCyc is tk_cre_cyc for CreCyc and CreCycProg: thread creates the
// handler's T-THREAD.
func (k *Kernel) creCyc(name string, interval, phase sysc.Time, thread func() *core.TThread) (id ID, er ER) {
	er = k.call("tk_cre_cyc", func(k *Kernel) (ER, *armedWait) {
		if interval <= 0 || phase < 0 {
			return EPAR, nil
		}
		var c *CyclicHandler
		id, c = k.cycs.add()
		*c = CyclicHandler{id: id, name: name, interval: interval, phase: phase,
			k: k, tt: thread()}
		return EOK, nil
	})
	return id, er
}

// DelCyc deletes a cyclic handler (tk_del_cyc).
func (k *Kernel) DelCyc(id ID) ER {
	return k.call("tk_del_cyc", func(k *Kernel) (ER, *armedWait) {
		c := k.cycs.get(id)
		if c == nil {
			return ENOEXS, nil
		}
		c.active = false
		c.gen++
		k.cycs.del(id)
		return EOK, nil
	})
}

// StaCyc activates a cyclic handler: the first activation occurs after the
// phase, subsequent ones every interval (tk_sta_cyc).
func (k *Kernel) StaCyc(id ID) ER {
	return k.call("tk_sta_cyc", func(k *Kernel) (ER, *armedWait) {
		c := k.cycs.get(id)
		if c == nil {
			return ENOEXS, nil
		}
		if c.active {
			return EOK, nil // restarting resets the phase
		}
		c.active = true
		c.gen++
		first := c.phase
		if first == 0 {
			first = c.interval
		}
		k.scheduleCyc(c, first)
		return EOK, nil
	})
}

// scheduleCyc arms the next firing d from now.
func (k *Kernel) scheduleCyc(c *CyclicHandler, d sysc.Time) {
	k.after(d, c, c.gen)
}

// expire is a cyclic firing (timerTarget): entries armed before the last
// stop or restart are stale.
func (c *CyclicHandler) expire(gen int) {
	if !c.active || c.gen != gen {
		return
	}
	c.fires++
	if err := c.k.api.EnterInterrupt(c.tt); err != nil {
		c.overruns++ // previous activation still running
	}
	c.k.scheduleCyc(c, c.interval)
}

// StpCyc deactivates a cyclic handler (tk_stp_cyc).
func (k *Kernel) StpCyc(id ID) ER {
	return k.call("tk_stp_cyc", func(k *Kernel) (ER, *armedWait) {
		c := k.cycs.get(id)
		if c == nil {
			return ENOEXS, nil
		}
		c.active = false
		c.gen++
		return EOK, nil
	})
}

// RefCyc returns the cyclic-handler state (tk_ref_cyc).
func (k *Kernel) RefCyc(id ID) (CyclicInfo, ER) {
	c := k.cycs.get(id)
	if c == nil {
		return CyclicInfo{}, ENOEXS
	}
	return CyclicInfo{Name: c.name, Active: c.active, Interval: c.interval,
		Fires: c.fires, Overruns: c.overruns}, EOK
}

// AlarmHandler is a T-Kernel alarm handler (tk_cre_alm family): a one-shot
// time-event handler started a relative time after activation.
type AlarmHandler struct {
	id     ID
	name   string
	active bool
	tt     *core.TThread
	k      *Kernel
	fires  int
	gen    int
}

// AlarmInfo is the tk_ref_alm snapshot.
type AlarmInfo struct {
	Name   string
	Active bool
	Fires  int
}

// CreAlm creates an alarm handler (tk_cre_alm).
func (k *Kernel) CreAlm(name string, fn HandlerFunc) (ID, ER) {
	return k.creAlm(name, k.closureHandler(name, core.KindAlarmHandler, fn))
}

// creAlm is tk_cre_alm for CreAlm and CreAlmProg: thread creates the
// handler's T-THREAD.
func (k *Kernel) creAlm(name string, thread func() *core.TThread) (id ID, er ER) {
	er = k.call("tk_cre_alm", func(k *Kernel) (ER, *armedWait) {
		var a *AlarmHandler
		id, a = k.alms.add()
		*a = AlarmHandler{id: id, name: name, k: k, tt: thread()}
		return EOK, nil
	})
	return id, er
}

// DelAlm deletes an alarm handler (tk_del_alm).
func (k *Kernel) DelAlm(id ID) ER {
	return k.call("tk_del_alm", func(k *Kernel) (ER, *armedWait) {
		a := k.alms.get(id)
		if a == nil {
			return ENOEXS, nil
		}
		a.active = false
		a.gen++
		k.alms.del(id)
		return EOK, nil
	})
}

// StaAlm arms the alarm to fire once, d from now (tk_sta_alm). Re-arming
// replaces the previous setting.
func (k *Kernel) StaAlm(id ID, d sysc.Time) ER {
	return k.call("tk_sta_alm", func(k *Kernel) (ER, *armedWait) { return k.staAlmBody(id, d), nil })
}

// staAlmBody is the body of StaAlm, shared with its program op.
func (k *Kernel) staAlmBody(id ID, d sysc.Time) ER {
	a := k.alms.get(id)
	if a == nil {
		return ENOEXS
	}
	if d < 0 {
		return EPAR
	}
	a.active = true
	a.gen++
	k.after(d, a, a.gen)
	return EOK
}

// expire is the alarm firing (timerTarget): entries armed before the last
// re-arm or stop are stale.
func (a *AlarmHandler) expire(gen int) {
	if !a.active || a.gen != gen {
		return
	}
	a.active = false
	a.fires++
	_ = a.k.api.EnterInterrupt(a.tt)
}

// StpAlm disarms the alarm (tk_stp_alm).
func (k *Kernel) StpAlm(id ID) ER {
	return k.call("tk_stp_alm", func(k *Kernel) (ER, *armedWait) {
		a := k.alms.get(id)
		if a == nil {
			return ENOEXS, nil
		}
		a.active = false
		a.gen++
		return EOK, nil
	})
}

// RefAlm returns the alarm-handler state (tk_ref_alm).
func (k *Kernel) RefAlm(id ID) (AlarmInfo, ER) {
	a := k.alms.get(id)
	if a == nil {
		return AlarmInfo{}, ENOEXS
	}
	return AlarmInfo{Name: a.name, Active: a.active, Fires: a.fires}, EOK
}
