package tkernel_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/sysc"
	"repro/internal/tkernel"
)

// labelCase is one kernel object class a task can block on. create makes
// the object (and whatever holds it, so the wait must block) from the INIT
// task; block runs in the waiting task; listed reports whether the
// object's tk_ref_* listing shows the waiter.
type labelCase struct {
	class  string
	create func(k *tkernel.Kernel, name string) tkernel.ID
	block  func(k *tkernel.Kernel, id tkernel.ID)
	listed func(k *tkernel.Kernel, id tkernel.ID, w tkernel.WaitRef) bool
}

func hasRef(refs []tkernel.WaitRef, w tkernel.WaitRef) bool {
	for _, r := range refs {
		if r == w {
			return true
		}
	}
	return false
}

var labelCases = []labelCase{
	{class: "sem",
		create: func(k *tkernel.Kernel, name string) tkernel.ID {
			id, _ := k.CreSem(name, tkernel.TaTFIFO, 0, 1)
			return id
		},
		block: func(k *tkernel.Kernel, id tkernel.ID) { k.WaiSem(id, 1, tkernel.TmoFevr) },
		listed: func(k *tkernel.Kernel, id tkernel.ID, w tkernel.WaitRef) bool {
			info, _ := k.RefSem(id)
			return hasRef(info.Waiting, w)
		}},
	{class: "flg",
		create: func(k *tkernel.Kernel, name string) tkernel.ID {
			id, _ := k.CreFlg(name, tkernel.TaWSGL, 0)
			return id
		},
		block: func(k *tkernel.Kernel, id tkernel.ID) { k.WaiFlg(id, 1, tkernel.TwfORW, tkernel.TmoFevr) },
		listed: func(k *tkernel.Kernel, id tkernel.ID, w tkernel.WaitRef) bool {
			info, _ := k.RefFlg(id)
			return hasRef(info.Waiting, w)
		}},
	{class: "mtx",
		create: func(k *tkernel.Kernel, name string) tkernel.ID {
			id, _ := k.CreMtx(name, tkernel.TaTFIFO, 0)
			k.LocMtx(id, tkernel.TmoPol) // INIT holds it
			return id
		},
		block: func(k *tkernel.Kernel, id tkernel.ID) { k.LocMtx(id, tkernel.TmoFevr) },
		listed: func(k *tkernel.Kernel, id tkernel.ID, w tkernel.WaitRef) bool {
			info, _ := k.RefMtx(id)
			return hasRef(info.Waiting, w)
		}},
	{class: "mbx",
		create: func(k *tkernel.Kernel, name string) tkernel.ID {
			id, _ := k.CreMbx(name, tkernel.TaMFIFO)
			return id
		},
		block: func(k *tkernel.Kernel, id tkernel.ID) { k.RcvMbx(id, tkernel.TmoFevr) },
		listed: func(k *tkernel.Kernel, id tkernel.ID, w tkernel.WaitRef) bool {
			info, _ := k.RefMbx(id)
			return hasRef(info.Waiting, w)
		}},
	{class: "mbf",
		create: func(k *tkernel.Kernel, name string) tkernel.ID {
			id, _ := k.CreMbf(name, tkernel.TaTFIFO, 16, 8)
			return id
		},
		block: func(k *tkernel.Kernel, id tkernel.ID) { k.RcvMbf(id, tkernel.TmoFevr) },
		listed: func(k *tkernel.Kernel, id tkernel.ID, w tkernel.WaitRef) bool {
			info, _ := k.RefMbf(id)
			return hasRef(info.RecvWaiting, w)
		}},
	{class: "mpf",
		create: func(k *tkernel.Kernel, name string) tkernel.ID {
			id, _ := k.CreMpf(name, tkernel.TaTFIFO, 1, 8)
			k.GetMpf(id, tkernel.TmoPol) // INIT takes the only block
			return id
		},
		block: func(k *tkernel.Kernel, id tkernel.ID) { k.GetMpf(id, tkernel.TmoFevr) },
		listed: func(k *tkernel.Kernel, id tkernel.ID, w tkernel.WaitRef) bool {
			info, _ := k.RefMpf(id)
			return hasRef(info.Waiting, w)
		}},
	{class: "mpl",
		create: func(k *tkernel.Kernel, name string) tkernel.ID {
			id, _ := k.CreMpl(name, tkernel.TaTFIFO, 64)
			k.GetMpl(id, 56, tkernel.TmoPol) // INIT takes the whole arena
			return id
		},
		block: func(k *tkernel.Kernel, id tkernel.ID) { k.GetMpl(id, 16, tkernel.TmoFevr) },
		listed: func(k *tkernel.Kernel, id tkernel.ID, w tkernel.WaitRef) bool {
			info, _ := k.RefMpl(id)
			return hasRef(info.Waiting, w)
		}},
	{class: "por",
		create: func(k *tkernel.Kernel, name string) tkernel.ID {
			id, _ := k.CrePor(name, tkernel.TaTFIFO, 8, 8)
			return id
		},
		block: func(k *tkernel.Kernel, id tkernel.ID) { k.CalPor(id, 1, []byte{1}, tkernel.TmoFevr) },
		listed: func(k *tkernel.Kernel, id tkernel.ID, w tkernel.WaitRef) bool {
			info, _ := k.RefPor(id)
			return hasRef(info.CallWaiting, w)
		}},
	{class: "rdv",
		create: func(k *tkernel.Kernel, name string) tkernel.ID {
			id, _ := k.CrePor(name, tkernel.TaTFIFO, 8, 8)
			// A server already waiting in tk_acp_por accepts the call at
			// once; the caller then waits for the reply.
			srv, _ := k.CreTsk("server", 5, func(*tkernel.Task) { k.AcpPor(id, 1, tkernel.TmoFevr) })
			k.StaTsk(srv)
			return id
		},
		block: func(k *tkernel.Kernel, id tkernel.ID) { k.CalPor(id, 1, []byte{1}, tkernel.TmoFevr) },
		// An accepted call is listed as an open rendezvous, not a waiter.
		listed: func(k *tkernel.Kernel, id tkernel.ID, _ tkernel.WaitRef) bool {
			info, _ := k.RefPor(id)
			return info.OpenRdv == 1
		}},
}

// TestWaitObjectLabels pins the wait-object label every blocking object
// class forms at creation: "<class>#<id>(<name>)", or "<class>#<id>" for an
// unnamed object. The label must be what the KindBlock event carries, what
// tk_ref_tsk reports for the waiter, and the waiter must show in the
// object's own tk_ref_* listing.
func TestWaitObjectLabels(t *testing.T) {
	for _, c := range labelCases {
		for _, name := range []string{"obj", ""} {
			want := c.class + "#1"
			if name != "" {
				want += "(" + name + ")"
			}
			t.Run(want, func(t *testing.T) {
				var obj, blocked []string
				var waiter, id tkernel.ID
				k, sim := boot(t, func(k *tkernel.Kernel) {
					id = c.create(k, name)
					waiter, _ = k.CreTsk("waiter", 10, func(*tkernel.Task) { c.block(k, id) })
					k.StaTsk(waiter)
				})
				k.Bus().Subscribe(func(e event.Event) {
					if e.ThreadName() == "waiter" {
						obj = append(obj, e.Obj)
					} else {
						blocked = append(blocked, e.ThreadName())
					}
				}, event.KindBlock)
				run(t, sim, 10*sysc.Ms)
				if len(obj) != 1 || obj[0] != want {
					t.Errorf("KindBlock Obj = %q, want [%q] (others blocked: %v)", obj, want, blocked)
				}
				info, er := k.RefTsk(waiter)
				if er != tkernel.EOK || info.State != core.StateWaiting || info.WaitObj != want {
					t.Errorf("tk_ref_tsk: %v, state %v, WaitObj %q; want waiting on %q", er, info.State, info.WaitObj, want)
				}
				w := tkernel.WaitRef{ID: waiter, Name: "waiter", Priority: 10}
				if !c.listed(k, id, w) {
					t.Errorf("tk_ref_%s does not list the waiter %+v", c.class, w)
				}
			})
		}
	}
}

// flagPingPong boots two program tasks that hand an event flag back and
// forth: "setter" works 1 us and sets the flag, and the higher-priority
// "waiter" wakes, clears it and waits again. One round trip (a wai_flg
// block, a set_flg release, two dispatches) takes 1 us of simulated time.
func flagPingPong(tb testing.TB) (step func()) {
	sim := sysc.NewSimulator()
	tb.Cleanup(sim.Shutdown)
	k := tkernel.New(sim, tkernel.Config{Costs: tkernel.ZeroCosts()})
	var flg tkernel.ID
	var ptn uint32
	var er tkernel.ER
	rounds := 0
	k.Boot(func(k *tkernel.Kernel) {
		flg, _ = k.CreFlg("ping", tkernel.TaWSGL, 0)
		waiter := k.NewProgram("waiter").Label("top").
			WaiFlg(&flg, 1, tkernel.TwfORW|tkernel.TwfCLR, tkernel.TmoFevr, &ptn, &er).
			Atom(func() {
				if er == tkernel.EOK && ptn == 1 {
					rounds++
				}
			}).
			Jump("top")
		setter := k.NewProgram("setter").Label("top").
			Work(core.Cost{Time: sysc.Us}, "").
			SetFlg(&flg, 1, nil).
			Jump("top")
		w, _ := k.CreTskProg("waiter", 5, waiter)
		s, _ := k.CreTskProg("setter", 10, setter)
		k.StaTsk(w)
		k.StaTsk(s)
	})
	end := sysc.Time(0)
	step = func() {
		end += sysc.Us
		if err := sim.Start(end); err != nil {
			tb.Fatal(err)
		}
	}
	// Warm up: grow the simulator's queues and waiter lists.
	for i := 0; i < 1000; i++ {
		step()
	}
	before := rounds
	step()
	if rounds != before+1 {
		tb.Fatalf("%d flag round trips in 1 us, want 1", rounds-before)
	}
	return step
}

// TestFlagWaitWakeAllocs pins the wai_flg/set_flg round trip between two
// program tasks at zero heap allocations: the wait label is formed at flag
// creation, the wait condition lives in the task and the wait arms no
// closure.
func TestFlagWaitWakeAllocs(t *testing.T) {
	step := flagPingPong(t)
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("%v allocs per wai_flg/set_flg round trip, want 0", n)
	}
}

// TestClosureServiceCallAllocs pins a closure-face service call at zero
// heap allocations: tk_sig_sem issued from outside any T-THREAD, as
// BenchmarkServiceCall issues it, runs its frame and its body closure on
// the caller's stack.
func TestClosureServiceCallAllocs(t *testing.T) {
	var sem tkernel.ID
	k, sim := boot(t, func(k *tkernel.Kernel) {
		sem, _ = k.CreSem("s", tkernel.TaTFIFO, 0, 1<<30)
	})
	run(t, sim, 10*sysc.Ms)
	if n := testing.AllocsPerRun(200, func() {
		if er := k.SigSem(sem, 1); er != tkernel.EOK {
			t.Fatal(er)
		}
	}); n != 0 {
		t.Errorf("%v allocs per SigSem outside a T-THREAD, want 0", n)
	}
}

// BenchmarkFlagWaitWake is the cost of one wai_flg/set_flg round trip
// between two program tasks, scheduler and simulator included.
func BenchmarkFlagWaitWake(b *testing.B) {
	step := flagPingPong(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
