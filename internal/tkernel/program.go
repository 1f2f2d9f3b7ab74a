package tkernel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// This file is the program IR: task and handler bodies expressed as a flat
// list of operations instead of a Go closure, compiled to a resumable
// machine (progMachine) that the scheduler loop drives inline on the
// T-THREAD's coroutine. A service op steps the same svcCall frame, over the
// same body, as the public service a closure task calls, so a program
// traverses the same kernel bookkeeping in the same order.

// opKind discriminates program operations.
type opKind uint8

const (
	opAtom opKind = iota // run an instantaneous side effect
	opWork               // consume application time/energy (k.Work / ctx.Work)
	opIo                 // a timed device access: latch, consume, apply
	opSvc                // issue one kernel service call
	opJump               // unconditional branch
	opBr                 // conditional branch
	opExit               // end the body (the closure's return)
)

// progOp is one program operation. A service op runs its service body
// (try) in the machine's svcCall frame; the body may hand back an armed
// wait for the frame to complete.
type progOp struct {
	kind opKind
	name string // service name / work note

	run  func()                           // opAtom
	cost core.Cost                        // opWork
	ctx  trace.Context                    // opWork
	io   func() core.Access               // opIo
	try  func(k *Kernel) (ER, *armedWait) // opSvc
	er   *ER                              // opSvc, optional result out

	cond  func() bool // opBr
	label string      // opJump/opBr target label (resolved by finalize)
	to    int         // resolved target pc
}

// Program is a compiled T-THREAD body under construction: append ops with
// the builder methods, then hand it to CreTskProg / CreCycProg / CreAlmProg
// / DefIntProg. Build each task or handler its own Program (out-pointers
// and frame variables are per-instance state).
type Program struct {
	name      string
	ctx       trace.Context // context class of Work ops
	ops       []progOp
	labels    map[string]int
	finalized bool
}

// NewProgram starts a task-body program: Work ops are charged in task
// context.
func (k *Kernel) NewProgram(name string) *Program {
	return &Program{name: name, ctx: trace.CtxTask, labels: map[string]int{}}
}

// NewHandlerProgram starts a handler-body program: Work ops are charged in
// handler context.
func (k *Kernel) NewHandlerProgram(name string) *Program {
	return &Program{name: name, ctx: trace.CtxHandler, labels: map[string]int{}}
}

// finalize resolves label targets; idempotent.
func (p *Program) finalize() {
	if p.finalized {
		return
	}
	p.finalized = true
	for i := range p.ops {
		op := &p.ops[i]
		if op.kind != opJump && op.kind != opBr {
			continue
		}
		to, ok := p.labels[op.label]
		if !ok {
			panic(fmt.Sprintf("tkernel: program %q: undefined label %q", p.name, op.label))
		}
		op.to = to
	}
}

func (p *Program) add(op progOp) *Program {
	if p.finalized {
		panic(fmt.Sprintf("tkernel: program %q: modified after finalize", p.name))
	}
	p.ops = append(p.ops, op)
	return p
}

// Atom appends an instantaneous side effect (plain Go between service
// calls: state updates, condition latching). The closure must not consume
// execution time: BFM accesses are Io ops.
func (p *Program) Atom(fn func()) *Program {
	return p.add(progOp{kind: opAtom, run: fn})
}

// Work appends an application execution-time/energy annotation (k.Work in
// task programs, ctx.Work in handler programs).
func (p *Program) Work(c core.Cost, note string) *Program {
	return p.add(progOp{kind: opWork, name: note, cost: c, ctx: p.ctx})
}

// Io appends a timed device access, such as a BFM port handshake. When the
// op executes, access builds the access, latching its arguments; the
// thread then consumes the access's budget in trace.CtxBFM under its name,
// and once the budget is spent the access's effect applies.
func (p *Program) Io(access func() core.Access) *Program {
	return p.add(progOp{kind: opIo, io: access})
}

// Label marks the next op as a branch target.
func (p *Program) Label(name string) *Program {
	p.labels[name] = len(p.ops)
	return p
}

// Jump appends an unconditional branch to a label.
func (p *Program) Jump(label string) *Program {
	return p.add(progOp{kind: opJump, label: label})
}

// Br appends a conditional branch: cond is evaluated when the op executes.
func (p *Program) Br(cond func() bool, label string) *Program {
	return p.add(progOp{kind: opBr, cond: cond, label: label})
}

// Exit appends an explicit body end (the closure's early return).
func (p *Program) Exit() *Program {
	return p.add(progOp{kind: opExit})
}

// svc appends a service op.
func (p *Program) svc(name string, try func(k *Kernel) (ER, *armedWait), er *ER) *Program {
	return p.add(progOp{kind: opSvc, name: name, try: try, er: er})
}

// --- service ops -----------------------------------------------------------
//
// ID arguments are pointers so a program can reference objects created
// after the program is built (including an op arming the handler's own
// alarm); value arguments that vary per iteration come in through pointers
// too. The optional er out-pointer receives the resolved return code.

// SlpTsk appends tk_slp_tsk.
func (p *Program) SlpTsk(tmout TMO, er *ER) *Program {
	return p.svc("tk_slp_tsk",
		func(k *Kernel) (ER, *armedWait) { return k.slpTskBody(tmout) },
		er)
}

// DlyTsk appends tk_dly_tsk.
func (p *Program) DlyTsk(d sysc.Time, er *ER) *Program {
	return p.svc("tk_dly_tsk",
		func(k *Kernel) (ER, *armedWait) { return k.dlyTskBody(d) },
		er)
}

// WupTsk appends tk_wup_tsk.
func (p *Program) WupTsk(id *ID, er *ER) *Program {
	return p.svc("tk_wup_tsk",
		func(k *Kernel) (ER, *armedWait) { return k.wupTskBody(*id), nil },
		er)
}

// RotRdq appends tk_rot_rdq.
func (p *Program) RotRdq(priority int, er *ER) *Program {
	return p.svc("tk_rot_rdq",
		func(k *Kernel) (ER, *armedWait) { return k.rotRdqBody(priority), nil },
		er)
}

// SigSem appends tk_sig_sem.
func (p *Program) SigSem(id *ID, cnt int, er *ER) *Program {
	return p.svc("tk_sig_sem",
		func(k *Kernel) (ER, *armedWait) { return k.sigSemBody(*id, cnt), nil },
		er)
}

// WaiSem appends tk_wai_sem.
func (p *Program) WaiSem(id *ID, cnt int, tmout TMO, er *ER) *Program {
	return p.svc("tk_wai_sem",
		func(k *Kernel) (ER, *armedWait) { return k.waiSemBody(*id, cnt, tmout) },
		er)
}

// SetFlg appends tk_set_flg.
func (p *Program) SetFlg(id *ID, setptn uint32, er *ER) *Program {
	return p.svc("tk_set_flg",
		func(k *Kernel) (ER, *armedWait) { return k.setFlgBody(*id, setptn), nil },
		er)
}

// WaiFlg appends tk_wai_flg; the release pattern is delivered through ptn.
func (p *Program) WaiFlg(id *ID, waiptn uint32, mode FlagMode, tmout TMO, ptn *uint32, er *ER) *Program {
	return p.svc("tk_wai_flg",
		func(k *Kernel) (ER, *armedWait) {
			*ptn = 0
			return k.waiFlgBody(*id, waiptn, mode, tmout, ptn)
		}, er)
}

// SndMbx appends tk_snd_mbx; the message is read from msg when the op runs.
func (p *Program) SndMbx(id *ID, msg **Message, er *ER) *Program {
	return p.svc("tk_snd_mbx",
		func(k *Kernel) (ER, *armedWait) { return k.sndMbxBody(*id, *msg), nil },
		er)
}

// RcvMbx appends tk_rcv_mbx; the message is delivered through msg.
func (p *Program) RcvMbx(id *ID, tmout TMO, msg **Message, er *ER) *Program {
	return p.svc("tk_rcv_mbx",
		func(k *Kernel) (ER, *armedWait) {
			*msg = nil
			return k.rcvMbxBody(*id, tmout, msg)
		}, er)
}

// SndMbf appends tk_snd_mbf; the message is read from msg when the op runs.
func (p *Program) SndMbf(id *ID, msg *[]byte, tmout TMO, er *ER) *Program {
	return p.svc("tk_snd_mbf",
		func(k *Kernel) (ER, *armedWait) { return k.sndMbfBody(*id, *msg, tmout) },
		er)
}

// RcvMbf appends tk_rcv_mbf; the message is delivered through msg.
func (p *Program) RcvMbf(id *ID, tmout TMO, msg *[]byte, er *ER) *Program {
	return p.svc("tk_rcv_mbf",
		func(k *Kernel) (ER, *armedWait) {
			*msg = nil
			return k.rcvMbfBody(*id, tmout, msg)
		}, er)
}

// GetMpf appends tk_get_mpf; the block is delivered through blk.
func (p *Program) GetMpf(id *ID, tmout TMO, blk **MemBlock, er *ER) *Program {
	return p.svc("tk_get_mpf",
		func(k *Kernel) (ER, *armedWait) {
			*blk = nil
			return k.getMpfBody(*id, tmout, blk)
		}, er)
}

// RelMpf appends tk_rel_mpf; the block is read from blk when the op runs.
func (p *Program) RelMpf(id *ID, blk **MemBlock, er *ER) *Program {
	return p.svc("tk_rel_mpf",
		func(k *Kernel) (ER, *armedWait) { return k.relMpfBody(*id, *blk), nil },
		er)
}

// GetMpl appends tk_get_mpl; the block is delivered through blk.
func (p *Program) GetMpl(id *ID, size int, tmout TMO, blk **MemBlock, er *ER) *Program {
	return p.svc("tk_get_mpl",
		func(k *Kernel) (ER, *armedWait) {
			*blk = nil
			return k.getMplBody(*id, size, tmout, blk)
		}, er)
}

// RelMpl appends tk_rel_mpl; the block is read from blk when the op runs.
func (p *Program) RelMpl(id *ID, blk **MemBlock, er *ER) *Program {
	return p.svc("tk_rel_mpl",
		func(k *Kernel) (ER, *armedWait) { return k.relMplBody(*id, *blk), nil },
		er)
}

// LocMtx appends tk_loc_mtx.
func (p *Program) LocMtx(id *ID, tmout TMO, er *ER) *Program {
	return p.svc("tk_loc_mtx",
		func(k *Kernel) (ER, *armedWait) { return k.locMtxBody(*id, tmout) },
		er)
}

// UnlMtx appends tk_unl_mtx.
func (p *Program) UnlMtx(id *ID, er *ER) *Program {
	return p.svc("tk_unl_mtx",
		func(k *Kernel) (ER, *armedWait) { return k.unlMtxBody(*id), nil },
		er)
}

// StaAlm appends tk_sta_alm (the alarm re-arm pattern: id may point at the
// alarm's own ID, assigned after the program is built).
func (p *Program) StaAlm(id *ID, d sysc.Time, er *ER) *Program {
	return p.svc("tk_sta_alm",
		func(k *Kernel) (ER, *armedWait) { return k.staAlmBody(*id, d), nil },
		er)
}

// --- compiled machine ------------------------------------------------------

// progMachine drives a Program as a resumable state machine
// (core.CompiledBody). A service op steps the embedded svcCall frame, the
// one service-call protocol a closure service (Kernel.call) steps too; the
// frame rewinds itself when the thread is reset mid-call.
type progMachine struct {
	k    *Kernel
	p    *Program
	task *Task // owning task; nil for handler machines

	pc      int
	svcCall             // the frame of the service op at pc
	acc     core.Access // the access of an in-flight Io op
	latched bool        // acc holds the current Io op's access
}

// Step implements core.CompiledBody.
func (m *progMachine) Step(t *core.TThread) core.BodyStep {
	k := m.k
	for {
		if m.pc >= len(m.p.ops) {
			return m.done(core.BodyDone)
		}
		op := &m.p.ops[m.pc]
		switch op.kind {
		case opAtom:
			op.run()
			m.pc++
		case opWork:
			switch t.StepConsume(op.cost, op.ctx, op.name) {
			case core.StepWait:
				return core.BodyWait
			case core.StepReset:
				return m.done(core.BodyReset)
			}
			m.pc++
		case opIo:
			// Latch once per execution: a resumed consume must not rebuild
			// the access (its arguments were fixed before the budget).
			if !m.latched {
				m.acc, m.latched = op.io(), true
			}
			switch t.StepConsume(m.acc.Cost, trace.CtxBFM, m.acc.Name) {
			case core.StepWait:
				return core.BodyWait
			case core.StepReset:
				return m.done(core.BodyReset)
			}
			m.latched = false
			m.acc.Apply()
			m.pc++
		case opJump:
			m.pc = op.to
		case opBr:
			if op.cond() {
				m.pc = op.to
			} else {
				m.pc++
			}
		case opExit:
			return m.done(core.BodyDone)
		case opSvc:
			m.name = op.name
			st, er := m.step(k, t, op.try)
			switch st {
			case core.StepWait:
				return core.BodyWait
			case core.StepReset:
				return m.done(core.BodyReset)
			}
			if op.er != nil {
				*op.er = er
			}
			m.pc++
		}
	}
}

// done rewinds the machine for the next activation. Task machines release
// still-held mutexes first, mirroring a closure task's deferred
// releaseOwnedMutexes (which runs on normal return and during the reset
// unwind alike).
func (m *progMachine) done(st core.BodyStep) core.BodyStep {
	m.pc = 0
	m.latched = false
	if m.task != nil {
		m.k.releaseOwnedMutexes(m.task)
	}
	return st
}

// --- creation --------------------------------------------------------------

// CreTskProg creates a task whose body is a program (tk_cre_tsk), compiled
// to a machine driven inline by the scheduler loop.
func (k *Kernel) CreTskProg(name string, priority int, prog *Program) (ID, ER) {
	return k.creTsk(name, priority, func(task *Task) *core.TThread {
		prog.finalize()
		return k.api.CreateThreadCompiled(name, core.KindTask, priority, &progMachine{k: k, p: prog, task: task})
	})
}

// progHandler returns the thread constructor of a handler whose body is a
// program.
func (k *Kernel) progHandler(name string, kind core.Kind, prog *Program) func() *core.TThread {
	return func() *core.TThread {
		prog.finalize()
		return k.api.CreateThreadCompiled(name, kind, 0, &progMachine{k: k, p: prog})
	}
}

// CreCycProg creates a cyclic handler whose body is a program (tk_cre_cyc).
func (k *Kernel) CreCycProg(name string, interval, phase sysc.Time, prog *Program) (ID, ER) {
	return k.creCyc(name, interval, phase, k.progHandler(name, core.KindCyclicHandler, prog))
}

// CreAlmProg creates an alarm handler whose body is a program (tk_cre_alm).
func (k *Kernel) CreAlmProg(name string, prog *Program) (ID, ER) {
	return k.creAlm(name, k.progHandler(name, core.KindAlarmHandler, prog))
}

// DefIntProg defines an interrupt handler whose body is a program
// (tk_def_int).
func (k *Kernel) DefIntProg(intno int, name string, prog *Program) ER {
	return k.defInt(intno, name, k.progHandler(name, core.KindISR, prog))
}
