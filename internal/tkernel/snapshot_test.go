package tkernel_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sysc"
	"repro/internal/tkernel"
	"repro/internal/trace"
)

// parkedKernel is a kernel of Program tasks that, by its 5 ms capture
// point, parks one waiter of each request-carrying kind: a semaphore waiter needing 2 (with
// a timed waiter behind it), a TA_WMUL flag waiter with AND + clear, a
// blocked message-buffer sender and a blocked receiver, a mutex waiter,
// and pending timeouts (the mutex owner's and the releaser's delays, the
// timed semaphore waiter's). The releaser satisfies them at 10 ms and
// 25 ms, so every grant after the capture reads a request written back
// by LoadState.
type parkedKernel struct {
	sim   *sysc.Simulator
	k     *tkernel.Kernel
	gantt *trace.Gantt

	sem, flg, full, empty tkernel.ID

	// Program scratch the kernel delivers into, and the observation log:
	// the test's stand-in for the workload layer's instance state.
	ptn     uint32
	rmsg    []byte
	relmsg  []byte
	sndmsg  []byte
	rcvdmsg []byte
	er      [8]tkernel.ER
	log     []string
}

func newParkedKernel(t *testing.T) *parkedKernel {
	t.Helper()
	p := &parkedKernel{sim: sysc.NewSimulator(), gantt: trace.NewGantt(),
		sndmsg: []byte("bbbb"), relmsg: []byte("cccc")}
	var cfg tkernel.Config
	cfg.Costs = tkernel.DefaultCosts()
	cfg.Gantt = p.gantt
	p.k = tkernel.New(p.sim, cfg)
	t.Cleanup(p.sim.Shutdown)
	var mtx tkernel.ID
	note := func(format string, args ...any) func() {
		return func() { p.log = append(p.log, fmt.Sprintf(format, args...)) }
	}
	p.k.Boot(func(k *tkernel.Kernel) {
		p.sem, _ = k.CreSem("s", tkernel.TaTFIFO, 0, 4)
		p.flg, _ = k.CreFlg("f", tkernel.TaWMUL, 0)
		p.full, _ = k.CreMbf("full", tkernel.TaTFIFO, 8, 4)
		p.empty, _ = k.CreMbf("empty", tkernel.TaTFIFO, 16, 4)
		mtx, _ = k.CreMtx("m", tkernel.TaTFIFO, 0)
		if er := k.SndMbf(p.full, []byte("aaaa"), tkernel.TmoPol); er != tkernel.EOK {
			panic(er)
		}
		work := core.Cost{Time: 200 * sysc.Us}
		progs := []struct {
			name string
			pri  int
			prog *tkernel.Program
		}{
			{"rel", 8, k.NewProgram("rel").
				DlyTsk(10*sysc.Ms, nil).
				SigSem(&p.sem, 1, &p.er[0]).
				SetFlg(&p.flg, 0x1, &p.er[1]).
				Work(work, "rel").
				DlyTsk(15*sysc.Ms, nil).
				SigSem(&p.sem, 1, &p.er[0]).
				SetFlg(&p.flg, 0x2, &p.er[1]).
				RcvMbf(&p.full, tkernel.TmoPol, &p.rmsg, &p.er[2]).
				Atom(func() { p.log = append(p.log, fmt.Sprintf("rel got %q", p.rmsg)) }).
				SndMbf(&p.empty, &p.relmsg, tkernel.TmoPol, &p.er[3]).
				RcvMbf(&p.full, tkernel.TmoPol, &p.rmsg, &p.er[2]).
				Atom(func() { p.log = append(p.log, fmt.Sprintf("rel got %q", p.rmsg)) })},
			{"owner", 9, k.NewProgram("owner").
				LocMtx(&mtx, tkernel.TmoFevr, nil).
				DlyTsk(20*sysc.Ms, nil).
				Work(work, "owner").
				UnlMtx(&mtx, nil).
				Atom(note("owner unlocked"))},
			{"semw", 10, k.NewProgram("semw").
				WaiSem(&p.sem, 2, tkernel.TmoFevr, &p.er[4]).
				Work(work, "semw").
				Atom(note("semw granted"))},
			{"flgw", 10, k.NewProgram("flgw").
				WaiFlg(&p.flg, 0x3, tkernel.TwfANDW|tkernel.TwfCLR, tkernel.TmoFevr, &p.ptn, &p.er[5]).
				Atom(func() { p.log = append(p.log, fmt.Sprintf("flgw ptn=%#x", p.ptn)) })},
			{"sndw", 10, k.NewProgram("sndw").
				SndMbf(&p.full, &p.sndmsg, tkernel.TmoFevr, &p.er[6]).
				Atom(note("sndw sent"))},
			{"rcvw", 10, k.NewProgram("rcvw").
				RcvMbf(&p.empty, tkernel.TmoFevr, &p.rcvdmsg, &p.er[7]).
				Atom(func() { p.log = append(p.log, fmt.Sprintf("rcvw got %q", p.rcvdmsg)) })},
			{"mtxw", 10, k.NewProgram("mtxw").
				LocMtx(&mtx, tkernel.TmoFevr, nil).
				Work(work, "mtxw").
				UnlMtx(&mtx, nil).
				Atom(note("mtxw done"))},
			{"tmo", 11, k.NewProgram("tmo").
				WaiSem(&p.sem, 1, 30*sysc.Ms, nil).
				Atom(note("tmo ended"))},
		}
		for _, pg := range progs {
			id, er := k.CreTskProg(pg.name, pg.pri, pg.prog)
			if er != tkernel.EOK {
				panic(er)
			}
			k.StaTsk(id)
		}
	})
	return p
}

// capture is one in-memory checkpoint of the whole parked kernel.
type capture struct {
	sim   *sysc.SimState
	api   *core.APIState
	kern  *tkernel.KernelState
	gantt trace.GanttState

	ptn           uint32
	rmsg, rcvdmsg []byte
	er            [8]tkernel.ER
	logLen        int
}

func (p *parkedKernel) capture(t *testing.T) *capture {
	t.Helper()
	c := &capture{gantt: p.gantt.SaveState(), ptn: p.ptn, rmsg: p.rmsg,
		rcvdmsg: p.rcvdmsg, er: p.er, logLen: len(p.log)}
	var err error
	if c.kern, err = p.k.SaveState(); err != nil {
		t.Fatal(err)
	}
	if c.sim, err = p.sim.SaveState(); err != nil {
		t.Fatal(err)
	}
	if c.api, err = p.k.API().SaveState(); err != nil {
		t.Fatal(err)
	}
	return c
}

func (p *parkedKernel) restore(t *testing.T, c *capture) {
	t.Helper()
	if err := p.sim.LoadState(c.sim); err != nil {
		t.Fatal(err)
	}
	if err := p.k.API().LoadState(c.api); err != nil {
		t.Fatal(err)
	}
	if err := p.k.LoadState(c.kern); err != nil {
		t.Fatal(err)
	}
	p.gantt.LoadState(c.gantt)
	p.ptn, p.rmsg, p.rcvdmsg, p.er = c.ptn, c.rmsg, c.rcvdmsg, c.er
	p.log = p.log[:c.logLen]
}

// view is everything the round trip must reproduce.
type view struct {
	Sem         tkernel.SemInfo
	Flg         tkernel.FlagInfo
	Full, Empty tkernel.MessageBufferInfo
	Tasks       []tkernel.TaskInfo
	Log         []string
	ER          [8]tkernel.ER
	Gantt       string
}

func (p *parkedKernel) view(t *testing.T) view {
	t.Helper()
	var v view
	var ers [4]tkernel.ER
	v.Sem, ers[0] = p.k.RefSem(p.sem)
	v.Flg, ers[1] = p.k.RefFlg(p.flg)
	v.Full, ers[2] = p.k.RefMbf(p.full)
	v.Empty, ers[3] = p.k.RefMbf(p.empty)
	for i, er := range ers {
		if er != tkernel.EOK {
			t.Fatalf("ref %d: %v", i, er)
		}
	}
	v.Tasks = p.k.SnapshotTasks()
	v.Log = append([]string(nil), p.log...)
	v.ER = p.er
	v.Gantt = fmt.Sprintf("%v\n%s", p.gantt.Segments, p.gantt.String())
	return v
}

// TestKernelStateRoundTrip captures a kernel with one parked waiter of
// every request kind, runs it 50 ms, restores the capture and runs the
// same 50 ms again: both legs, and a twin that was never captured, must
// end in equal kernel views and equal Gantt bytes. An in-memory capture
// points into its own construction (armed waits, timer targets, delivery
// slots), so the restore goes back into the kernel it came from after
// that kernel has run on; the twin pins that capturing perturbs nothing.
func TestKernelStateRoundTrip(t *testing.T) {
	const capAt, leg = 5 * sysc.Ms, 50 * sysc.Ms
	p := newParkedKernel(t)
	run(t, p.sim, capAt)

	parked := p.view(t)
	if got := parked.Sem.HeadNeed; got != 2 || len(parked.Sem.Waiting) != 2 {
		t.Fatalf("semaphore at capture: head need %d, %d waiters; want 2, 2", got, len(parked.Sem.Waiting))
	}
	if len(parked.Flg.Waiting) != 1 || len(parked.Full.SendWaiting) != 1 || len(parked.Empty.RecvWaiting) != 1 {
		t.Fatalf("waiters at capture: flag %v, sender %v, receiver %v",
			parked.Flg.Waiting, parked.Full.SendWaiting, parked.Empty.RecvWaiting)
	}
	waitObjs := map[string]string{}
	for _, ti := range parked.Tasks {
		waitObjs[ti.Name] = ti.WaitObj
	}
	if waitObjs["mtxw"] != "mtx#1(m)" || waitObjs["owner"] != "delay" {
		t.Fatalf("mutex waiter %q, owner %q at capture", waitObjs["mtxw"], waitObjs["owner"])
	}

	c := p.capture(t)
	run(t, p.sim, capAt+leg)
	first := p.view(t)
	want := []string{`rel got "aaaa"`, `rel got "bbbb"`, `rcvw got "cccc"`, "flgw ptn=0x3", "semw granted",
		"sndw sent", "owner unlocked", "mtxw done", "tmo ended"}
	got := slices.Clone(first.Log)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("log after the first leg = %q, want (in some order) %q", first.Log, want)
	}
	if first.Sem.Count != 0 || first.Flg.Pattern != 0 || first.Full.Messages != 0 {
		t.Fatalf("after the first leg: sem count %d, flag pattern %#x, full buffer %d msgs",
			first.Sem.Count, first.Flg.Pattern, first.Full.Messages)
	}

	p.restore(t, c)
	if got := p.view(t); !reflect.DeepEqual(got, parked) {
		t.Fatalf("restored view differs from the captured one:\n got %+v\nwant %+v", got, parked)
	}
	run(t, p.sim, capAt+leg)
	if second := p.view(t); !reflect.DeepEqual(second, first) {
		t.Fatalf("second leg differs from the first:\n got %+v\nwant %+v", second, first)
	}

	twin := newParkedKernel(t)
	run(t, twin.sim, capAt)
	run(t, twin.sim, capAt+leg)
	if got := twin.view(t); !reflect.DeepEqual(got, first) {
		t.Fatalf("uncaptured twin differs from the captured kernel:\n got %+v\nwant %+v", got, first)
	}
}

// TestKernelLoadStateRefusesUntouched loads captures that name a task or
// mutex the kernel does not have, or whose request array is shorter than
// its wait queue, into the parked kernel after it has run on: each load
// fails, and a re-capture equals the capture taken before it, so a
// refused restore leaves the kernel as it was.
func TestKernelLoadStateRefusesUntouched(t *testing.T) {
	const capAt, leg = 5 * sysc.Ms, 20 * sysc.Ms
	p := newParkedKernel(t)
	run(t, p.sim, capAt)
	c := p.capture(t)
	run(t, p.sim, capAt+leg)
	before, err := p.k.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	const unknown = tkernel.ID(99)
	bad := []struct {
		name    string
		corrupt func(st *tkernel.KernelState)
	}{
		{"unknown semaphore waiter", func(st *tkernel.KernelState) {
			for i := range st.Sems {
				if s := &st.Sems[i]; len(s.Wait) > 0 {
					s.Wait = append(slices.Clone(s.Wait), unknown)
					s.Need = append(slices.Clone(s.Need), 1)
					return
				}
			}
			t.Fatal("no semaphore waiter at capture")
		}},
		{"unknown mutex owner", func(st *tkernel.KernelState) {
			for i := range st.Mtxs {
				if m := &st.Mtxs[i]; m.HasOwner {
					m.Owner = unknown
					return
				}
			}
			t.Fatal("no mutex owner at capture")
		}},
		{"short semaphore requests", func(st *tkernel.KernelState) {
			for i := range st.Sems {
				if s := &st.Sems[i]; len(s.Wait) > 0 {
					s.Need = s.Need[:len(s.Need)-1]
					return
				}
			}
			t.Fatal("no semaphore waiter at capture")
		}},
	}
	for _, b := range bad {
		st := *c.kern
		st.Sems = slices.Clone(st.Sems)
		st.Mtxs = slices.Clone(st.Mtxs)
		b.corrupt(&st)
		if err := p.k.LoadState(&st); err == nil {
			t.Fatalf("%s: LoadState accepted it", b.name)
		}
		after, err := p.k.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: a refused LoadState changed the kernel:\n got %+v\nwant %+v", b.name, after, before)
		}
	}
}
