package tkernel_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/sysc"
	"repro/internal/tkernel"
)

// boot builds a kernel on a fresh simulator with zero kernel-cost
// annotations (exact timing assertions) and boots userMain as the INIT task.
func boot(t *testing.T, main func(k *tkernel.Kernel)) (*tkernel.Kernel, *sysc.Simulator) {
	t.Helper()
	sim := sysc.NewSimulator()
	k := tkernel.New(sim, tkernel.Config{Costs: tkernel.ZeroCosts()})
	k.Boot(main)
	t.Cleanup(sim.Shutdown)
	return k, sim
}

func run(t *testing.T, sim *sysc.Simulator, until sysc.Time) {
	t.Helper()
	if err := sim.Start(until); err != nil {
		t.Fatal(err)
	}
}

func TestBootRunsInitAndUserTasks(t *testing.T) {
	var order []string
	k, sim := boot(t, func(k *tkernel.Kernel) {
		order = append(order, "init")
		id, er := k.CreTsk("worker", 10, func(task *tkernel.Task) {
			order = append(order, "worker")
		})
		if er != tkernel.EOK {
			t.Errorf("CreTsk: %v", er)
		}
		if er := k.StaTsk(id); er != tkernel.EOK {
			t.Errorf("StaTsk: %v", er)
		}
	})
	run(t, sim, 100*sysc.Ms)
	if len(order) != 2 || order[0] != "init" || order[1] != "worker" {
		t.Fatalf("order = %v", order)
	}
	if k.Ticks() == 0 {
		t.Fatal("timer ticks did not advance")
	}
}

func TestCreTskValidation(t *testing.T) {
	_, sim := boot(t, func(k *tkernel.Kernel) {
		if _, er := k.CreTsk("bad", 0, func(*tkernel.Task) {}); er != tkernel.EPAR {
			t.Errorf("priority 0: %v", er)
		}
		if _, er := k.CreTsk("bad", 10000, func(*tkernel.Task) {}); er != tkernel.EPAR {
			t.Errorf("priority 10000: %v", er)
		}
	})
	run(t, sim, 10*sysc.Ms)
}

func TestStaTskErrors(t *testing.T) {
	_, sim := boot(t, func(k *tkernel.Kernel) {
		if er := k.StaTsk(999); er != tkernel.ENOEXS {
			t.Errorf("unknown id: %v", er)
		}
		id, _ := k.CreTsk("w", 10, func(task *tkernel.Task) {
			_ = k.SlpTsk(tkernel.TmoFevr)
		})
		_ = k.StaTsk(id)
		_ = k.DlyTsk(5 * sysc.Ms) // let worker start and block
		if er := k.StaTsk(id); er != tkernel.EOBJ {
			t.Errorf("double start: %v", er)
		}
	})
	run(t, sim, 100*sysc.Ms)
}

func TestSlpWupRoundTrip(t *testing.T) {
	var wokeAt sysc.Time
	_, sim := boot(t, func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("sleeper", 10, func(task *tkernel.Task) {
			if er := k.SlpTsk(tkernel.TmoFevr); er != tkernel.EOK {
				t.Errorf("SlpTsk: %v", er)
			}
			wokeAt = k.Sim().Now()
		})
		_ = k.StaTsk(id)
		_ = k.DlyTsk(10 * sysc.Ms)
		if er := k.WupTsk(id); er != tkernel.EOK {
			t.Errorf("WupTsk: %v", er)
		}
	})
	run(t, sim, sysc.Sec)
	if wokeAt != 10*sysc.Ms {
		t.Fatalf("woke at %v, want 10 ms", wokeAt)
	}
}

func TestQueuedWakeup(t *testing.T) {
	var immediate bool
	_, sim := boot(t, func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("sleeper", 10, func(task *tkernel.Task) {
			start := k.Sim().Now()
			if er := k.SlpTsk(tkernel.TmoFevr); er != tkernel.EOK {
				t.Errorf("SlpTsk: %v", er)
			}
			immediate = k.Sim().Now() == start
		})
		// Wakeup BEFORE the sleep: queues.
		_ = k.StaTsk(id)
		if er := k.WupTsk(id); er != tkernel.EOK {
			t.Errorf("WupTsk: %v", er)
		}
	})
	run(t, sim, sysc.Sec)
	if !immediate {
		t.Fatal("queued wakeup should complete the sleep immediately")
	}
}

func TestCanWup(t *testing.T) {
	_, sim := boot(t, func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("w", 10, func(task *tkernel.Task) {
			_ = k.DlyTsk(20 * sysc.Ms)
		})
		_ = k.StaTsk(id)
		_ = k.WupTsk(id)
		_ = k.WupTsk(id)
		n, er := k.CanWup(id)
		if er != tkernel.EOK || n != 2 {
			t.Errorf("CanWup = %d, %v", n, er)
		}
		n, _ = k.CanWup(id)
		if n != 0 {
			t.Errorf("second CanWup = %d", n)
		}
	})
	run(t, sim, sysc.Sec)
}

func TestSlpTskTimeout(t *testing.T) {
	var code tkernel.ER
	var at sysc.Time
	_, sim := boot(t, func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("sleeper", 10, func(task *tkernel.Task) {
			code = k.SlpTsk(5 * sysc.Ms)
			at = k.Sim().Now()
		})
		_ = k.StaTsk(id)
	})
	run(t, sim, sysc.Sec)
	if code != tkernel.ETMOUT {
		t.Fatalf("code = %v, want E_TMOUT", code)
	}
	if at != 5*sysc.Ms {
		t.Fatalf("timed out at %v, want 5 ms (tick-aligned)", at)
	}
}

func TestSlpTskPolling(t *testing.T) {
	_, sim := boot(t, func(k *tkernel.Kernel) {
		if er := k.SlpTsk(tkernel.TmoPol); er != tkernel.ETMOUT {
			t.Errorf("polling sleep with no wakeup: %v", er)
		}
	})
	run(t, sim, 10*sysc.Ms)
}

func TestDlyTsk(t *testing.T) {
	var at sysc.Time
	_, sim := boot(t, func(k *tkernel.Kernel) {
		if er := k.DlyTsk(7 * sysc.Ms); er != tkernel.EOK {
			t.Errorf("DlyTsk: %v", er)
		}
		at = k.Sim().Now()
		// A wakeup must NOT shorten a delay.
		id, _ := k.CreTsk("d", 10, func(task *tkernel.Task) {
			start := k.Sim().Now()
			_ = k.DlyTsk(10 * sysc.Ms)
			if k.Sim().Now()-start < 10*sysc.Ms {
				t.Error("wakeup shortened a delay")
			}
		})
		_ = k.StaTsk(id)
		_ = k.DlyTsk(2 * sysc.Ms)
		_ = k.WupTsk(id)
	})
	run(t, sim, sysc.Sec)
	if at != 7*sysc.Ms {
		t.Fatalf("delay ended at %v", at)
	}
}

func TestRelWai(t *testing.T) {
	var code tkernel.ER
	_, sim := boot(t, func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("sleeper", 10, func(task *tkernel.Task) {
			code = k.SlpTsk(tkernel.TmoFevr)
		})
		_ = k.StaTsk(id)
		_ = k.DlyTsk(3 * sysc.Ms)
		if er := k.RelWai(id); er != tkernel.EOK {
			t.Errorf("RelWai: %v", er)
		}
		if er := k.RelWai(id); er != tkernel.EOBJ {
			t.Errorf("RelWai on non-waiting: %v", er)
		}
	})
	run(t, sim, sysc.Sec)
	if code != tkernel.ERLWAI {
		t.Fatalf("release code = %v, want E_RLWAI", code)
	}
}

func TestSusRsmTsk(t *testing.T) {
	var end sysc.Time
	_, sim := boot(t, func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("w", 10, func(task *tkernel.Task) {
			k.Work(core.Cost{Time: 10 * sysc.Ms}, "busy")
			end = k.Sim().Now()
		})
		_ = k.StaTsk(id)
		_ = k.DlyTsk(2 * sysc.Ms)
		_ = k.SusTsk(id)
		_ = k.DlyTsk(5 * sysc.Ms)
		_ = k.RsmTsk(id)
	})
	run(t, sim, sysc.Sec)
	// Ran 0..2 (after init), suspended 2..7, resumed: 8 more ms -> 15.
	if end != 15*sysc.Ms {
		t.Fatalf("end = %v, want 15 ms", end)
	}
}

func TestFrsmTsk(t *testing.T) {
	_, sim := boot(t, func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("w", 10, func(task *tkernel.Task) {
			k.Work(core.Cost{Time: 5 * sysc.Ms}, "busy")
		})
		_ = k.StaTsk(id)
		_ = k.DlyTsk(1 * sysc.Ms)
		_ = k.SusTsk(id)
		_ = k.SusTsk(id)
		_ = k.SusTsk(id)
		info, _ := k.RefTsk(id)
		if info.SusCount != 3 {
			t.Errorf("suscount = %d", info.SusCount)
		}
		if er := k.FrsmTsk(id); er != tkernel.EOK {
			t.Errorf("FrsmTsk: %v", er)
		}
		info, _ = k.RefTsk(id)
		if info.SusCount != 0 || info.State != core.StateReady {
			t.Errorf("after frsm: %+v", info)
		}
	})
	run(t, sim, sysc.Sec)
}

func TestChgPri(t *testing.T) {
	var order []string
	_, sim := boot(t, func(k *tkernel.Kernel) {
		a, _ := k.CreTsk("a", 10, func(task *tkernel.Task) {
			k.Work(core.Cost{Time: 4 * sysc.Ms}, "")
			order = append(order, "a")
		})
		b, _ := k.CreTsk("b", 12, func(task *tkernel.Task) {
			k.Work(core.Cost{Time: 4 * sysc.Ms}, "")
			order = append(order, "b")
		})
		_ = k.StaTsk(a)
		_ = k.StaTsk(b)
		// b is behind a; raise b above a: preempts immediately when INIT
		// sleeps.
		if er := k.ChgPri(b, 5); er != tkernel.EOK {
			t.Errorf("ChgPri: %v", er)
		}
	})
	run(t, sim, sysc.Sec)
	if len(order) != 2 || order[0] != "b" {
		t.Fatalf("order = %v, want b first", order)
	}
}

func TestChgPriValidation(t *testing.T) {
	_, sim := boot(t, func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("w", 10, func(*tkernel.Task) {})
		if er := k.ChgPri(id, 0); er != tkernel.EPAR {
			t.Errorf("bad pri: %v", er)
		}
		if er := k.ChgPri(id, 10); er != tkernel.EOBJ {
			t.Errorf("dormant: %v", er)
		}
		if er := k.ChgPri(999, 10); er != tkernel.ENOEXS {
			t.Errorf("unknown: %v", er)
		}
	})
	run(t, sim, 50*sysc.Ms)
}

func TestTerTskAndRestart(t *testing.T) {
	runs := 0
	_, sim := boot(t, func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("victim", 10, func(task *tkernel.Task) {
			runs++
			k.Work(core.Cost{Time: 100 * sysc.Ms}, "")
			runs += 100 // must not be reached on the first run
		})
		_ = k.StaTsk(id)
		_ = k.DlyTsk(5 * sysc.Ms)
		if er := k.TerTsk(id); er != tkernel.EOK {
			t.Errorf("TerTsk: %v", er)
		}
		info, _ := k.RefTsk(id)
		if info.State != core.StateDormant {
			t.Errorf("state %v", info.State)
		}
		if er := k.TerTsk(id); er != tkernel.EOBJ {
			t.Errorf("TerTsk dormant: %v", er)
		}
	})
	run(t, sim, sysc.Sec)
	if runs != 1 {
		t.Fatalf("runs = %d", runs)
	}
}

func TestExtTskUnwinds(t *testing.T) {
	reached := false
	var state core.State
	_, sim := boot(t, func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("quitter", 10, func(task *tkernel.Task) {
			_ = k.ExtTsk()
			reached = true // unreachable
		})
		_ = k.StaTsk(id)
		_ = k.DlyTsk(5 * sysc.Ms)
		info, _ := k.RefTsk(id)
		state = info.State
	})
	run(t, sim, sysc.Sec)
	if reached {
		t.Fatal("code after ExtTsk executed")
	}
	if state != core.StateDormant {
		t.Fatalf("state %v", state)
	}
}

func TestDelTsk(t *testing.T) {
	_, sim := boot(t, func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("w", 10, func(*tkernel.Task) {})
		if er := k.DelTsk(id); er != tkernel.EOK {
			t.Errorf("DelTsk: %v", er)
		}
		if er := k.DelTsk(id); er != tkernel.ENOEXS {
			t.Errorf("DelTsk again: %v", er)
		}
		if er := k.StaTsk(id); er != tkernel.ENOEXS {
			t.Errorf("StaTsk deleted: %v", er)
		}
	})
	run(t, sim, 50*sysc.Ms)
}

func TestGetTidAndRefTsk(t *testing.T) {
	_, sim := boot(t, func(k *tkernel.Kernel) {
		var inner tkernel.ID
		id, _ := k.CreTsk("w", 10, func(task *tkernel.Task) {
			inner = k.GetTid()
		})
		_ = k.StaTsk(id)
		_ = k.DlyTsk(3 * sysc.Ms)
		if inner != id {
			t.Errorf("GetTid inside task = %d, want %d", inner, id)
		}
		info, er := k.RefTsk(id)
		if er != tkernel.EOK || info.Name != "w" || info.Cycles != 1 {
			t.Errorf("RefTsk = %+v, %v", info, er)
		}
	})
	run(t, sim, sysc.Sec)
}

func TestRotRdqTimeSlicing(t *testing.T) {
	var finished []string
	_, sim := boot(t, func(k *tkernel.Kernel) {
		mk := func(name string) tkernel.ID {
			id, _ := k.CreTsk(name, 10, func(task *tkernel.Task) {
				k.Work(core.Cost{Time: 6 * sysc.Ms}, "")
				finished = append(finished, name)
			})
			return id
		}
		a, b := mk("a"), mk("b")
		_ = k.StaTsk(a)
		_ = k.StaTsk(b)
		// Rotate the priority-10 class every 2 ms from INIT (higher prio).
		for i := 0; i < 10; i++ {
			_ = k.DlyTsk(2 * sysc.Ms)
			_ = k.RotRdq(10)
		}
	})
	run(t, sim, sysc.Sec)
	// Interleaved: a 0-2, b 2-4, a 4-6, b 6-8, a 8-10 (a done), b 10-12.
	if len(finished) != 2 || finished[0] != "a" || finished[1] != "b" {
		t.Fatalf("finished = %v", finished)
	}
}

func TestSystemTime(t *testing.T) {
	k, sim := boot(t, func(k *tkernel.Kernel) {
		k.SetSystemTime(1000 * sysc.Sec)
	})
	run(t, sim, 50*sysc.Ms)
	want := 1000*sysc.Sec + 50*sysc.Ms
	if got := k.SystemTime(); got != want {
		t.Fatalf("system time = %v, want %v", got, want)
	}
}

func TestBlockFromInitWithDispatchDisabled(t *testing.T) {
	_, sim := boot(t, func(k *tkernel.Kernel) {
		if er := k.DisDsp(); er != tkernel.EOK {
			t.Errorf("DisDsp: %v", er)
		}
		sys := k.RefSys()
		if !sys.DispatchDis {
			t.Error("DispatchDis not reported")
		}
		if er := k.EnaDsp(); er != tkernel.EOK {
			t.Errorf("EnaDsp: %v", er)
		}
	})
	run(t, sim, 50*sysc.Ms)
}

// TestTerTskParkedClosureTask terminates a closure task parked in a split
// blocking service and restarts it. The reset unwinds the service with the
// dispatch lock already released around the wait, so the unwind must
// neither unlock a second time nor report a service exit.
func TestTerTskParkedClosureTask(t *testing.T) {
	var starts int
	var got tkernel.ER = -1
	k, sim := boot(t, func(k *tkernel.Kernel) {
		sem, _ := k.CreSem("s", tkernel.TaTFIFO, 0, 10)
		id, _ := k.CreTsk("victim", 10, func(task *tkernel.Task) {
			starts++
			got = k.WaiSem(sem, 1, tkernel.TmoFevr)
		})
		_ = k.StaTsk(id)
		_ = k.DlyTsk(sysc.Ms) // victim runs and parks in WaiSem
		if er := k.TerTsk(id); er != tkernel.EOK {
			t.Errorf("TerTsk: %v", er)
		}
		if er := k.StaTsk(id); er != tkernel.EOK {
			t.Errorf("StaTsk: %v", er)
		}
		if er := k.SigSem(sem, 1); er != tkernel.EOK {
			t.Errorf("SigSem: %v", er)
		}
	})
	var exits int
	k.Bus().Subscribe(func(e event.Event) {
		if e.Thread == "victim" && e.Obj == "tk_wai_sem" {
			exits++
		}
	}, event.KindSvcExit)
	run(t, sim, 10*sysc.Ms)
	if starts != 2 || got != tkernel.EOK {
		t.Fatalf("victim starts=%d, second WaiSem=%v; want 2 starts and E_OK", starts, got)
	}
	if exits != 1 {
		t.Fatalf("victim published %d tk_wai_sem exits, want 1 (the unwound wait reports none)", exits)
	}
}
