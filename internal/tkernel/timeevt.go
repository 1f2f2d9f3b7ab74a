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
	fn       HandlerFunc
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
func (k *Kernel) CreCyc(name string, interval, phase sysc.Time, fn HandlerFunc) (_ ID, er ER) {
	k.enterSvc("tk_cre_cyc")
	defer k.exitSvc("tk_cre_cyc", &er)
	if interval <= 0 || phase < 0 {
		return 0, EPAR
	}
	k.nextCyc++
	id := k.nextCyc
	c := &CyclicHandler{id: id, name: name, interval: interval, phase: phase,
		k: k, fn: fn}
	c.tt = k.api.CreateThread(name, core.KindCyclicHandler, 0, func(tt *core.TThread) {
		fn(&HandlerCtx{K: k, tt: tt})
	})
	k.cycs[id] = c
	return id, EOK
}

// DelCyc deletes a cyclic handler (tk_del_cyc).
func (k *Kernel) DelCyc(id ID) (er ER) {
	k.enterSvc("tk_del_cyc")
	defer k.exitSvc("tk_del_cyc", &er)
	c, ok := k.cycs[id]
	if !ok {
		return ENOEXS
	}
	c.active = false
	c.gen++
	delete(k.cycs, id)
	return EOK
}

// StaCyc activates a cyclic handler: the first activation occurs after the
// phase, subsequent ones every interval (tk_sta_cyc).
func (k *Kernel) StaCyc(id ID) (er ER) {
	k.enterSvc("tk_sta_cyc")
	defer k.exitSvc("tk_sta_cyc", &er)
	c, ok := k.cycs[id]
	if !ok {
		return ENOEXS
	}
	if c.active {
		return EOK // restarting resets the phase
	}
	c.active = true
	c.gen++
	first := c.phase
	if first == 0 {
		first = c.interval
	}
	k.scheduleCyc(c, first)
	return EOK
}

// scheduleCyc arms the next firing d from now.
func (k *Kernel) scheduleCyc(c *CyclicHandler, d sysc.Time) {
	gen := c.gen
	k.after(d, func() {
		if !c.active || c.gen != gen {
			return
		}
		c.fires++
		if err := k.api.EnterInterrupt(c.tt); err != nil {
			c.overruns++ // previous activation still running
		}
		k.scheduleCyc(c, c.interval)
	})
}

// StpCyc deactivates a cyclic handler (tk_stp_cyc).
func (k *Kernel) StpCyc(id ID) (er ER) {
	k.enterSvc("tk_stp_cyc")
	defer k.exitSvc("tk_stp_cyc", &er)
	c, ok := k.cycs[id]
	if !ok {
		return ENOEXS
	}
	c.active = false
	c.gen++
	return EOK
}

// RefCyc returns the cyclic-handler state (tk_ref_cyc).
func (k *Kernel) RefCyc(id ID) (CyclicInfo, ER) {
	c, ok := k.cycs[id]
	if !ok {
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
	fn     HandlerFunc
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
func (k *Kernel) CreAlm(name string, fn HandlerFunc) (_ ID, er ER) {
	k.enterSvc("tk_cre_alm")
	defer k.exitSvc("tk_cre_alm", &er)
	k.nextAlm++
	id := k.nextAlm
	a := &AlarmHandler{id: id, name: name, k: k, fn: fn}
	a.tt = k.api.CreateThread(name, core.KindAlarmHandler, 0, func(tt *core.TThread) {
		fn(&HandlerCtx{K: k, tt: tt})
	})
	k.alms[id] = a
	return id, EOK
}

// DelAlm deletes an alarm handler (tk_del_alm).
func (k *Kernel) DelAlm(id ID) (er ER) {
	k.enterSvc("tk_del_alm")
	defer k.exitSvc("tk_del_alm", &er)
	a, ok := k.alms[id]
	if !ok {
		return ENOEXS
	}
	a.active = false
	a.gen++
	delete(k.alms, id)
	return EOK
}

// StaAlm arms the alarm to fire once, d from now (tk_sta_alm). Re-arming
// replaces the previous setting.
func (k *Kernel) StaAlm(id ID, d sysc.Time) (er ER) {
	k.enterSvc("tk_sta_alm")
	defer k.exitSvc("tk_sta_alm", &er)
	return k.staAlmBody(id, d)
}

// staAlmBody is the split call body of StaAlm.
func (k *Kernel) staAlmBody(id ID, d sysc.Time) ER {
	a, ok := k.alms[id]
	if !ok {
		return ENOEXS
	}
	if d < 0 {
		return EPAR
	}
	a.active = true
	a.gen++
	gen := a.gen
	k.after(d, func() {
		if !a.active || a.gen != gen {
			return
		}
		a.active = false
		a.fires++
		_ = k.api.EnterInterrupt(a.tt)
	})
	return EOK
}

// StpAlm disarms the alarm (tk_stp_alm).
func (k *Kernel) StpAlm(id ID) (er ER) {
	k.enterSvc("tk_stp_alm")
	defer k.exitSvc("tk_stp_alm", &er)
	a, ok := k.alms[id]
	if !ok {
		return ENOEXS
	}
	a.active = false
	a.gen++
	return EOK
}

// RefAlm returns the alarm-handler state (tk_ref_alm).
func (k *Kernel) RefAlm(id ID) (AlarmInfo, ER) {
	a, ok := k.alms[id]
	if !ok {
		return AlarmInfo{}, ENOEXS
	}
	return AlarmInfo{Name: a.name, Active: a.active, Fires: a.fires}, EOK
}
