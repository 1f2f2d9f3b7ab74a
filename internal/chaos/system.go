package chaos

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/sweep"
	"repro/internal/sysc"
	"repro/internal/tkernel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SystemConfig parameterizes the synthetic application a chaos job runs.
type SystemConfig struct {
	Tasks int // application tasks (default 6)
	Costs tkernel.Costs
	// Bus optionally supplies the kernel event bus, letting callers attach
	// exporters before the run. Nil lets the kernel create a private one.
	Bus *event.Bus
	// Schedule is the fault schedule to inject. Window-fault hooks are
	// frozen into the kernel's construction config and the injector is
	// bound before BuildSystem returns (reachable via System.Inj).
	Schedule Schedule
	// DeferFaults binds the injector's hooks but spawns no event-fault
	// threads and starts with an empty active schedule — the warm-minimizer
	// construction, which simulates a fault-free prefix, checkpoints it, and
	// activates each ddmin trial's subset after restoring.
	DeferFaults bool
}

// System is one built job: a kernel hosting a seeded random application that
// exercises every service family the oracles watch — semaphore hand-offs,
// PI and ceiling mutexes, message buffers, both memory-pool kinds, bounded
// sleeps woken by a cyclic handler, ready-queue rotation, and two external
// interrupts raised by a periodic device model.
type System struct {
	K       *tkernel.Kernel
	Inj     *Injector
	Gantt   *trace.Gantt
	Targets Targets
	TaskIDs []tkernel.ID

	cycles int                // completed task program iterations (activity digest)
	inst   *workload.Instance // synthetic workload, when this system runs one
}

// Cycles returns how many task program iterations completed — a cheap
// deterministic activity digest for verdict summaries.
func (s *System) Cycles() int {
	if s.inst != nil {
		return int(s.inst.Activations())
	}
	return s.cycles
}

// BuildSyntheticSystem constructs a job around a generated (or hand-written)
// workload.TaskSet instead of the built-in application: same injector
// wiring, same oracles, but the kernel hosts the declarative task set and
// the fault targets are the set's own objects.
func BuildSyntheticSystem(sim *sysc.Simulator, seed uint64, cfg SystemConfig, ts *workload.TaskSet) *System {
	g := trace.NewGantt()
	inj := NewInjector(cfg.Schedule)
	kcfg := tkernel.Config{Costs: cfg.Costs}
	kcfg.Bus = cfg.Bus
	kcfg.Gantt = g
	inj.Configure(&kcfg)
	k := tkernel.New(sim, kcfg)
	if cfg.DeferFaults {
		inj.BindHooks(k)
		inj.SetActive(nil)
	} else {
		inj.Bind(k)
	}

	inst := workload.Build(sim, k, ts, seed)
	targets := Targets{IntNos: inst.IntNos}
	if len(inst.MbfIDs) > 0 {
		targets.Mbf = inst.MbfIDs[0]
	}
	return &System{
		K: k, Inj: inj, Gantt: g,
		Targets: targets,
		TaskIDs: inst.TaskIDs,
		inst:    inst,
	}
}

// Program step opcodes (drawn per task from the system seed).
const (
	opWork = iota
	opDelay
	opSigSem
	opWaiSem
	opLockInherit
	opLockCeiling
	opSndMbf
	opRcvMbf
	opGetMpf
	opGetMpl
	opSleep
	opRotate
	opCount
)

type step struct {
	op   int
	dur  sysc.Time
	size int
}

// BuildSystem constructs the synthetic application on sim, fully determined
// by seed. Object creation order is fixed, so the injector's Targets are
// identical for every seed: interrupts {1, 2}, mpf#1, mbf#1.
func BuildSystem(sim *sysc.Simulator, seed uint64, cfg SystemConfig) *System {
	if cfg.Tasks <= 0 {
		cfg.Tasks = 6
	}
	rng := sweep.NewRNG(sweep.Seed(seed, 0))
	g := trace.NewGantt()
	inj := NewInjector(cfg.Schedule)
	kcfg := tkernel.Config{Costs: cfg.Costs}
	kcfg.Bus = cfg.Bus
	kcfg.Gantt = g
	inj.Configure(&kcfg)
	k := tkernel.New(sim, kcfg)
	inj.Bind(k)
	sys := &System{
		K: k, Inj: inj, Gantt: g,
		Targets: Targets{IntNos: []int{1, 2}, Mpf: 1, Mbf: 1},
		TaskIDs: make([]tkernel.ID, cfg.Tasks),
	}

	// Pre-draw every task's priority and program before Boot so the draw
	// order never depends on scheduling.
	prios := make([]int, cfg.Tasks)
	programs := make([][]step, cfg.Tasks)
	for i := range programs {
		prios[i] = 5 + rng.Intn(20)
		n := 4 + rng.Intn(5)
		for j := 0; j < n; j++ {
			st := step{
				op:   rng.Intn(opCount),
				dur:  sysc.Time(1+rng.Intn(4)) * sysc.Ms,
				size: 8 + 8*rng.Intn(6),
			}
			programs[i] = append(programs[i], st)
		}
		// Every loop iteration ends with a delay so no program can pin the
		// CPU and every task keeps making progress across the whole run.
		programs[i] = append(programs[i], step{op: opDelay, dur: sysc.Time(1+rng.Intn(3)) * sysc.Ms})
	}

	k.Boot(func(k *tkernel.Kernel) {
		sem, _ := k.CreSem("chaos-sem", tkernel.TaTPRI, 2, 1<<30)
		mtxI, _ := k.CreMtx("chaos-pi", tkernel.TaInherit, 0)
		mtxC, _ := k.CreMtx("chaos-ceil", tkernel.TaCeiling, 4)
		mbf, _ := k.CreMbf("chaos-mbf", tkernel.TaTPRI, 96, 16)
		mpf, _ := k.CreMpf("chaos-mpf", tkernel.TaTPRI, 4, 32)
		mpl, _ := k.CreMpl("chaos-mpl", tkernel.TaTPRI, 256)
		objs := &chaosObjs{sem: sem, mtxI: mtxI, mtxC: mtxC, mbf: mbf, mpf: mpf, mpl: mpl}

		// Cyclic handler: keeps the semaphore supplied and wakes sleepers
		// round-robin (the partner of every opSleep step).
		var wakeNext int
		var wakeID tkernel.ID
		cyc, _ := k.CreCycProg("chaos-cyc", 7*sysc.Ms, 0,
			k.NewHandlerProgram("chaos-cyc").
				Work(core.Cost{Time: 80 * sysc.Us, Energy: 4e-9}, "cyc-work").
				SigSem(&objs.sem, 1, nil).
				Atom(func() {
					wakeID = sys.TaskIDs[wakeNext%cfg.Tasks]
					wakeNext++
				}).
				WupTsk(&wakeID, nil))
		_ = k.StaCyc(cyc)

		// Two external interrupts: int 1 is the periodic device below; int 2
		// only ever fires from injected spurious raises/bursts.
		_ = k.DefIntProg(1, "chaos-isr1",
			k.NewHandlerProgram("chaos-isr1").
				Work(core.Cost{Time: 60 * sysc.Us, Energy: 3e-9}, "isr1").
				SigSem(&objs.sem, 1, nil))
		_ = k.DefIntProg(2, "chaos-isr2",
			k.NewHandlerProgram("chaos-isr2").
				Work(core.Cost{Time: 40 * sysc.Us, Energy: 2e-9}, "isr2"))

		for i := 0; i < cfg.Tasks; i++ {
			name := fmt.Sprintf("chaos%d", i)
			id, _ := k.CreTskProg(name, prios[i],
				buildStepProgram(k, name, programs[i], sys, objs))
			sys.TaskIDs[i] = id
			_ = k.StaTsk(id)
		}
	})

	// Periodic device model: a step-function coroutine raising interrupt 1
	// every 5 ms (the target the DropIRQ fault suppresses and IRQBurst
	// storms).
	started := false
	sim.SpawnCoro("chaos.device", func(c *sysc.Coro) {
		if started {
			_ = k.RaiseInterrupt(1)
		}
		started = true
		c.Wait(5 * sysc.Ms)
	})

	return sys
}

// chaosObjs holds the shared kernel-object IDs a step program references.
type chaosObjs struct {
	sem, mtxI, mtxC, mbf, mpf, mpl tkernel.ID
}

// buildStepProgram compiles one task's pre-drawn step list into a Program:
// the op sequence of the old runStep loop, one label per conditional step.
// Every wait is bounded, so injected exhaustion or flooding shows up as
// E_TMOUT — never a stuck system.
func buildStepProgram(k *tkernel.Kernel, name string, steps []step,
	sys *System, o *chaosObjs) *tkernel.Program {
	var (
		er  tkernel.ER
		blk *tkernel.MemBlock
		snd = make([]byte, 8) // SndMbf copies; one zeroed buffer suffices
		rcv []byte
	)
	p := k.NewProgram(name).Label("loop")
	for j, st := range steps {
		skip := fmt.Sprintf("s%d", j)
		switch st.op {
		case opWork:
			p.Work(core.Cost{Time: st.dur, Energy: 1e-6}, "app-work")
		case opDelay:
			p.DlyTsk(st.dur, nil)
		case opSigSem:
			p.SigSem(&o.sem, 1, nil)
		case opWaiSem:
			p.WaiSem(&o.sem, 1, st.dur, nil)
		case opLockInherit:
			p.LocMtx(&o.mtxI, st.dur, &er).
				Br(func() bool { return er != tkernel.EOK }, skip).
				Work(core.Cost{Time: 400 * sysc.Us, Energy: 2e-7}, "crit-pi").
				UnlMtx(&o.mtxI, nil).
				Label(skip)
		case opLockCeiling:
			p.LocMtx(&o.mtxC, st.dur, &er).
				Br(func() bool { return er != tkernel.EOK }, skip).
				Work(core.Cost{Time: 250 * sysc.Us, Energy: 1e-7}, "crit-ceil").
				UnlMtx(&o.mtxC, nil).
				Label(skip)
		case opSndMbf:
			p.SndMbf(&o.mbf, &snd, st.dur, nil)
		case opRcvMbf:
			p.RcvMbf(&o.mbf, st.dur, &rcv, nil)
		case opGetMpf:
			p.GetMpf(&o.mpf, st.dur, &blk, &er).
				Br(func() bool { return er != tkernel.EOK }, skip).
				Work(core.Cost{Time: 150 * sysc.Us, Energy: 5e-8}, "use-mpf").
				RelMpf(&o.mpf, &blk, nil).
				Label(skip)
		case opGetMpl:
			p.GetMpl(&o.mpl, st.size, st.dur, &blk, &er).
				Br(func() bool { return er != tkernel.EOK }, skip).
				Work(core.Cost{Time: 150 * sysc.Us, Energy: 5e-8}, "use-mpl").
				RelMpl(&o.mpl, &blk, nil).
				Label(skip)
		case opSleep:
			p.SlpTsk(st.dur, nil)
		case opRotate:
			p.RotRdq(0, nil)
		}
	}
	return p.Atom(func() { sys.cycles++ }).Jump("loop")
}
