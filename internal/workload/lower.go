package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/sysc"
	"repro/internal/tkernel"
)

// Object defaults applied at lowering (zero values in the DSL).
const (
	defaultSemMax    = 1 << 30
	defaultMbfBufSz  = 256
	defaultMbfMaxMsg = 32
)

// arrivalStreamBase is the first sweep.Seed stream index used for interrupt
// device models: source i draws its interarrival gaps from stream
// arrivalStreamBase+i of the run seed. Streams 0–2 belong to the app /
// chaos schedule / generator; keeping the device streams well clear means a
// TaskSet replays identical interrupt schedules regardless of what else the
// run draws.
const arrivalStreamBase = 16

// Instance is a TaskSet lowered onto a live kernel: the created object IDs
// plus run counters.
type Instance struct {
	TS *TaskSet

	// TaskIDs etc. hold the kernel IDs in declaration order.
	TaskIDs     []tkernel.ID
	SemIDs      []tkernel.ID
	MtxIDs      []tkernel.ID
	MbfIDs      []tkernel.ID
	FlgIDs      []tkernel.ID
	CycIDs      []tkernel.ID
	AlmIDs      []tkernel.ID
	RelIDs      []tkernel.ID // implicit release cyclics of periodic tasks
	IntNos      []int
	activations uint64

	// Snapshot retention: the mutable cells task programs and device models
	// write through, kept addressable so internal/snapshot can capture and
	// restore them (see state.go).
	scratches  []*opScratch // per task, declaration order
	samplers   []*sampler   // per interrupt source, declaration order
	devStarted []*bool      // device-coro frame flags
}

// Activations returns the total completed task-body activations, the
// synthetic-scenario liveness counter.
func (in *Instance) Activations() uint64 { return in.activations }

// Build lowers a validated TaskSet onto the kernel: it boots k, creating
// every sync object, task, handler and interrupt definition inside the INIT
// context, then spawns one seeded device-model process per interrupt
// source. ts must have passed Validate; Build panics on kernel errors since
// a validated set cannot produce any.
//
// The caller starts the simulator afterwards; everything that happens from
// then on — including Poisson/Gamma interrupt schedules — is a pure
// function of (ts, seed).
func Build(sim *sysc.Simulator, k *tkernel.Kernel, ts *TaskSet, seed uint64) *Instance {
	in := &Instance{TS: ts}

	k.Boot(func(k *tkernel.Kernel) {
		for _, s := range ts.Sems {
			attr := tkernel.TaTFIFO
			if s.PrioOrder {
				attr = tkernel.TaTPRI
			}
			max := s.Max
			if max == 0 {
				max = defaultSemMax
			}
			id, er := k.CreSem("wl."+s.Name, attr, s.Init, max)
			must(er, "cre_sem", s.Name)
			in.SemIDs = append(in.SemIDs, id)
		}
		for _, f := range ts.Flags {
			id, er := k.CreFlg("wl."+f.Name, tkernel.TaWMUL, f.Init)
			must(er, "cre_flg", f.Name)
			in.FlgIDs = append(in.FlgIDs, id)
		}
		for _, m := range ts.Mutexes {
			attr := tkernel.TaTPRI
			ceil := 0
			switch m.Policy {
			case "", PolicyInherit:
				attr = tkernel.TaInherit
			case PolicyCeiling:
				attr = tkernel.TaCeiling
				ceil = m.Ceiling
			}
			id, er := k.CreMtx("wl."+m.Name, attr, ceil)
			must(er, "cre_mtx", m.Name)
			in.MtxIDs = append(in.MtxIDs, id)
		}
		for _, b := range ts.Mbfs {
			attr := tkernel.TaMFIFO
			if b.PrioOrder {
				attr = tkernel.TaMPRI
			}
			bufsz, maxmsg := b.BufSz, b.MaxMsg
			if bufsz == 0 {
				bufsz = defaultMbfBufSz
			}
			if maxmsg == 0 {
				maxmsg = defaultMbfMaxMsg
			}
			id, er := k.CreMbf("wl."+b.Name, attr, bufsz, maxmsg)
			must(er, "cre_mbf", b.Name)
			in.MbfIDs = append(in.MbfIDs, id)
		}

		// Tasks. IDs land in declaration order before any handler program
		// references them (wup_tsk pointers resolve at execution time).
		in.TaskIDs = make([]tkernel.ID, len(ts.Tasks))
		for ti := range ts.Tasks {
			t := &ts.Tasks[ti]
			prog := in.buildTaskProgram(k, t)
			id, er := k.CreTskProg("wl."+t.Name, t.Priority, prog)
			must(er, "cre_tsk", t.Name)
			in.TaskIDs[ti] = id
			must(k.StaTsk(id), "sta_tsk", t.Name)
		}

		// Implicit release cyclics: one per periodic task, waking it every
		// Period (first release at Offset, or at Period when Offset is 0 —
		// the kernel's phase convention).
		for ti := range ts.Tasks {
			t := &ts.Tasks[ti]
			if t.Period == 0 {
				continue
			}
			rel := k.NewHandlerProgram("wl." + t.Name + ".rel")
			rel.WupTsk(&in.TaskIDs[ti], nil)
			id, er := k.CreCycProg("wl."+t.Name+".rel", t.Period.Sim(), t.Offset.Sim(), rel)
			must(er, "cre_cyc", t.Name+".rel")
			in.RelIDs = append(in.RelIDs, id)
			must(k.StaCyc(id), "sta_cyc", t.Name+".rel")
		}

		for ci := range ts.Cyclics {
			c := &ts.Cyclics[ci]
			prog := k.NewHandlerProgram("wl." + c.Name)
			in.appendHandlerOps(k, prog, c.Ops)
			id, er := k.CreCycProg("wl."+c.Name, c.Interval.Sim(), c.Phase.Sim(), prog)
			must(er, "cre_cyc", c.Name)
			in.CycIDs = append(in.CycIDs, id)
			must(k.StaCyc(id), "sta_cyc", c.Name)
		}

		in.AlmIDs = make([]tkernel.ID, len(ts.Alarms))
		for ai := range ts.Alarms {
			a := &ts.Alarms[ai]
			prog := k.NewHandlerProgram("wl." + a.Name)
			in.appendHandlerOps(k, prog, a.Ops)
			if a.Rearm > 0 {
				// Self-rearming alarm: the trailing op re-arms through the
				// ID pointer filled in right below.
				prog.StaAlm(&in.AlmIDs[ai], a.Rearm.Sim(), nil)
			}
			id, er := k.CreAlmProg("wl."+a.Name, prog)
			must(er, "cre_alm", a.Name)
			in.AlmIDs[ai] = id
			must(k.StaAlm(id, a.Start.Sim()), "sta_alm", a.Name)
		}

		for ii := range ts.Interrupts {
			irq := &ts.Interrupts[ii]
			prog := k.NewHandlerProgram("wl." + irq.Name)
			in.appendHandlerOps(k, prog, irq.Ops)
			must(k.DefIntProg(irq.IntNo, "wl."+irq.Name, prog), "def_int", irq.Name)
			in.IntNos = append(in.IntNos, irq.IntNo)
		}
	})

	// Device models: one seeded step-function coroutine per interrupt
	// source, raising it on the sampled arrival schedule.
	for ii := range ts.Interrupts {
		irq := ts.Interrupts[ii]
		s := newSampler(irq.Arrival, sweep.NewRNG(sweep.Seed(seed, arrivalStreamBase+ii)))
		in.samplers = append(in.samplers, s)
		started := new(bool)
		in.devStarted = append(in.devStarted, started)
		sim.SpawnCoro("wl.device."+irq.Name, func(c *sysc.Coro) {
			if *started {
				_ = k.RaiseInterrupt(irq.IntNo)
			}
			*started = true
			c.Wait(s.next())
		})
	}

	return in
}

// buildTaskProgram compiles one task body. Periodic tasks sleep until the
// release cyclic wakes them (queued wakeups absorb overruns), run their op
// list once per activation and loop; aperiodic tasks loop the list freely.
func (in *Instance) buildTaskProgram(k *tkernel.Kernel, t *Task) *tkernel.Program {
	p := k.NewProgram("wl." + t.Name)
	scratch := &opScratch{}
	in.scratches = append(in.scratches, scratch)
	p.Label("loop")
	if t.Period > 0 {
		p.SlpTsk(tkernel.TmoFevr, nil)
	}
	in.appendOps(k, p, t, t.Ops, scratch)
	p.Atom(func() { in.activations++ })
	p.Jump("loop")
	return p
}

// opScratch is the per-program mutable state service ops write through.
type opScratch struct {
	er  tkernel.ER
	ptn uint32
	rcv []byte
}

// appendOps lowers a task op list. Lock failures (timeout, ceiling
// violation under a transient priority) branch past the matching unlock so
// the discipline the validator proved is preserved at run time.
func (in *Instance) appendOps(k *tkernel.Kernel, p *tkernel.Program, t *Task, ops []Op, sc *opScratch) {
	match := matchUnlocks(in.TS, ops)
	for i, op := range ops {
		switch op.Op {
		case OpConsume:
			p.Work(core.Cost{Time: op.Dur.Sim(), Energy: core.Energy(op.Energy)}, op.note(t.Name))
		case OpDlyTsk:
			p.DlyTsk(op.Dur.Sim(), nil)
		case OpSlpTsk:
			p.SlpTsk(tmo(op.Timeout), nil)
		case OpWupTsk:
			p.WupTsk(in.taskID(op.Obj), nil)
		case OpLock:
			skip := fmt.Sprintf("skip%d", match[i])
			p.LocMtx(in.mtxID(op.Obj), tmo(op.Timeout), &sc.er)
			p.Br(func() bool { return sc.er != tkernel.EOK }, skip)
		case OpUnlock:
			p.UnlMtx(in.mtxID(op.Obj), nil)
			p.Label(fmt.Sprintf("skip%d", i))
		case OpSigSem:
			p.SigSem(in.semID(op.Obj), cnt(op.Count), nil)
		case OpWaiSem:
			p.WaiSem(in.semID(op.Obj), cnt(op.Count), tmo(op.Timeout), nil)
		case OpSndMbf:
			msg := deterministicMsg(op.Size, i)
			p.SndMbf(in.mbfID(op.Obj), &msg, tmo(op.Timeout), nil)
		case OpRcvMbf:
			p.RcvMbf(in.mbfID(op.Obj), tmo(op.Timeout), &sc.rcv, nil)
		case OpSetFlg:
			p.SetFlg(in.flgID(op.Obj), op.Pattern, nil)
		case OpWaiFlg:
			p.WaiFlg(in.flgID(op.Obj), op.Pattern, flagMode(op), tmo(op.Timeout), &sc.ptn, nil)
		}
	}
}

// appendHandlerOps lowers a handler body (cyclic, alarm, interrupt): the
// validator already restricted it to the non-blocking kinds.
func (in *Instance) appendHandlerOps(k *tkernel.Kernel, p *tkernel.Program, ops []Op) {
	for _, op := range ops {
		switch op.Op {
		case OpConsume:
			p.Work(core.Cost{Time: op.Dur.Sim(), Energy: core.Energy(op.Energy)}, op.note("handler"))
		case OpSigSem:
			p.SigSem(in.semID(op.Obj), cnt(op.Count), nil)
		case OpSetFlg:
			p.SetFlg(in.flgID(op.Obj), op.Pattern, nil)
		case OpWupTsk:
			p.WupTsk(in.taskID(op.Obj), nil)
		}
	}
}

// matchUnlocks maps each OpLock index to its matching OpUnlock index, using
// the same stack walk the validator ran.
func matchUnlocks(ts *TaskSet, ops []Op) map[int]int {
	match := map[int]int{}
	var stack []int
	for i, op := range ops {
		switch op.Op {
		case OpLock:
			stack = append(stack, i)
		case OpUnlock:
			if len(stack) > 0 {
				match[stack[len(stack)-1]] = i
				stack = stack[:len(stack)-1]
			}
		}
	}
	return match
}

// note labels a consume op in traces.
func (op Op) note(owner string) string {
	return owner + ".consume"
}

// tmo maps a DSL timeout to the kernel representation: zero waits forever.
func tmo(d Duration) tkernel.TMO {
	if d == 0 {
		return tkernel.TmoFevr
	}
	return d.Sim()
}

// cnt defaults a semaphore count to 1.
func cnt(n int) int {
	if n == 0 {
		return 1
	}
	return n
}

// flagMode maps DSL wait mode + clear to kernel flag-mode bits.
func flagMode(op Op) tkernel.FlagMode {
	m := tkernel.TwfORW
	if op.Mode == ModeAnd {
		m = tkernel.TwfANDW
	}
	if op.Clear {
		m |= tkernel.TwfCLR
	}
	return m
}

// deterministicMsg builds the payload of a snd_mbf op: content is a pure
// function of (size, op index) so artifacts never depend on memory state.
func deterministicMsg(size, opIdx int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(opIdx + i)
	}
	return b
}

// ID lookups by declaration name. Validate guarantees they hit.

func (in *Instance) taskID(name string) *tkernel.ID {
	for i := range in.TS.Tasks {
		if in.TS.Tasks[i].Name == name {
			return &in.TaskIDs[i]
		}
	}
	panic("workload: unvalidated task ref " + name)
}

func (in *Instance) semID(name string) *tkernel.ID {
	for i := range in.TS.Sems {
		if in.TS.Sems[i].Name == name {
			return &in.SemIDs[i]
		}
	}
	panic("workload: unvalidated sem ref " + name)
}

func (in *Instance) mtxID(name string) *tkernel.ID {
	for i := range in.TS.Mutexes {
		if in.TS.Mutexes[i].Name == name {
			return &in.MtxIDs[i]
		}
	}
	panic("workload: unvalidated mutex ref " + name)
}

func (in *Instance) mbfID(name string) *tkernel.ID {
	for i := range in.TS.Mbfs {
		if in.TS.Mbfs[i].Name == name {
			return &in.MbfIDs[i]
		}
	}
	panic("workload: unvalidated mbf ref " + name)
}

func (in *Instance) flgID(name string) *tkernel.ID {
	for i := range in.TS.Flags {
		if in.TS.Flags[i].Name == name {
			return &in.FlgIDs[i]
		}
	}
	panic("workload: unvalidated flag ref " + name)
}

// must panics on a kernel error during lowering; Validate makes them
// impossible, so one firing means the validator and the kernel disagree.
func must(er tkernel.ER, svc, obj string) {
	if er != tkernel.EOK {
		panic(fmt.Sprintf("workload: %s(%s): %v", svc, obj, er))
	}
}
