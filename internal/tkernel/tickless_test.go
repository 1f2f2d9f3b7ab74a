package tkernel_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/run/opts"
	"repro/internal/sysc"
	"repro/internal/tkernel"
	"repro/internal/trace"
)

// runTicked boots a zero-cost kernel with a 1 ms tick, runs userMain until
// the horizon, and returns the kernel and the number of clock advances the
// simulator actually made.
func runTicked(t *testing.T, cfg tkernel.Config, until sysc.Time, userMain func(*tkernel.Kernel)) (*tkernel.Kernel, int) {
	t.Helper()
	sim := sysc.NewSimulator()
	t.Cleanup(sim.Shutdown)
	cfg.CommonOptions = opts.CommonOptions{Tick: sysc.Ms}
	cfg.Costs = tkernel.ZeroCosts()
	k := tkernel.New(sim, cfg)
	advances := 0
	k.Bus().Subscribe(func(event.Event) { advances++ }, event.KindTimeAdvance)
	k.Boot(userMain)
	if err := sim.Start(until); err != nil {
		t.Fatal(err)
	}
	return k, advances
}

// TestTicklessSkipsIdleTicks: with no timed kernel work at all, the tickless
// kernel advances the clock once, straight to the horizon, yet counts the
// same 1000 ticks as the run with a pass at every tick.
func TestTicklessSkipsIdleTicks(t *testing.T) {
	k, advances := runTicked(t, tkernel.Config{}, sysc.Sec, func(*tkernel.Kernel) {})
	if k.Ticks() != 1000 {
		t.Fatalf("tickless ticks = %d, want 1000", k.Ticks())
	}
	if advances > 1 {
		t.Fatalf("tickless advanced the clock %d times, want <= 1", advances)
	}
	b, bAdvances := runTicked(t, tkernel.Config{DisableTickless: true}, sysc.Sec, func(*tkernel.Kernel) {})
	if b.Ticks() != 1000 || bAdvances != 1000 {
		t.Fatalf("every tick = %d ticks, %d advances, want 1000/1000", b.Ticks(), bAdvances)
	}
}

// TestTicklessCyclicExact: a 100 ms cyclic handler fires on exactly the same
// schedule with and without tickless, while the tickless run only advances
// the clock to the ticks that pop it.
func TestTicklessCyclicExact(t *testing.T) {
	run := func(disable bool) (uint64, int, []sysc.Time) {
		var at []sysc.Time
		k, advances := runTicked(t, tkernel.Config{DisableTickless: disable}, sysc.Sec, func(k *tkernel.Kernel) {
			id, _ := k.CreCyc("cyc", 100*sysc.Ms, 0, func(h *tkernel.HandlerCtx) {
				at = append(at, h.K.Sim().Now())
			})
			_ = k.StaCyc(id)
		})
		return k.Ticks(), advances, at
	}
	ticks, advances, at := run(false)
	bTicks, bAdvances, bAt := run(true)
	if ticks != bTicks {
		t.Fatalf("ticks %d != every-tick %d", ticks, bTicks)
	}
	if len(at) != len(bAt) || len(at) != 10 {
		t.Fatalf("cyclic fired %d times, every-tick %d, want 10", len(at), len(bAt))
	}
	for i := range at {
		if at[i] != bAt[i] {
			t.Fatalf("firing %d at %v, every-tick %v", i, at[i], bAt[i])
		}
	}
	if advances >= bAdvances/10 {
		t.Fatalf("tickless advanced the clock %d of %d times: no skipping", advances, bAdvances)
	}
}

// TestTicklessDisabledUnderTickFault: a tick-delay hook (the chaos fault)
// must see every tick delivered.
func TestTicklessDisabledUnderTickFault(t *testing.T) {
	seen := 0
	cfg := tkernel.Config{TickDelay: func(uint64) sysc.Time { seen++; return 0 }}
	k, advances := runTicked(t, cfg, 100*sysc.Ms, func(*tkernel.Kernel) {})
	if advances != 100 || seen != 100 || k.Ticks() != 100 {
		t.Fatalf("advances=%d hook=%d ticks=%d, want 100 each", advances, seen, k.Ticks())
	}
}

// TestTicksReadsMatchEveryTick: the tick count a task reads around on-grid
// and off-grid delays, and the one a cyclic handler reads at each release,
// are the same whether a timer pass runs at every tick or only where an
// entry is due.
func TestTicksReadsMatchEveryTick(t *testing.T) {
	run := func(disable bool) []uint64 {
		var reads []uint64
		read := func(k *tkernel.Kernel) { reads = append(reads, k.RefSys().Ticks) }
		runTicked(t, tkernel.Config{DisableTickless: disable}, 50*sysc.Ms, func(k *tkernel.Kernel) {
			id, _ := k.CreTsk("reader", 10, func(task *tkernel.Task) {
				read(k)
				_ = k.DlyTsk(3 * sysc.Ms) // on-grid deadline
				read(k)
				task.TThread().Consume(core.Cost{Time: 500 * sysc.Us}, trace.CtxTask, "half")
				read(k)
				_ = k.DlyTsk(2 * sysc.Ms) // off-grid deadline, released at the next tick
				read(k)
				_ = k.DlyTsk(sysc.Ms) // on-grid again, from a tick
				read(k)
			})
			_ = k.StaTsk(id)
			cyc, _ := k.CreCyc("cyc", 7*sysc.Ms, 2*sysc.Ms, func(h *tkernel.HandlerCtx) { read(h.K) })
			_ = k.StaCyc(cyc)
		})
		return reads
	}
	tickless, every := run(false), run(true)
	if len(tickless) != len(every) || len(tickless) < 10 {
		t.Fatalf("reads: tickless %v, every tick %v", tickless, every)
	}
	for i := range tickless {
		if tickless[i] != every[i] {
			t.Fatalf("read %d: tickless %v, every tick %v", i, tickless, every)
		}
	}
}

// TestZeroDelayAlarm: an alarm started with no delay fires at the current
// tick when the task starting it runs before that tick's timer pass, and at
// the next tick once the pass has run; the tick count the task and the
// handler read never goes back. Both hold with a pass at every tick or only
// where an entry is due.
func TestZeroDelayAlarm(t *testing.T) {
	cases := []struct {
		name string
		body func(k *tkernel.Kernel, task *tkernel.Task, alm tkernel.ID, read func(*tkernel.Kernel))
		want []uint64 // (µs, ticks) pairs
	}{{
		name: "after pass",
		body: func(k *tkernel.Kernel, _ *tkernel.Task, alm tkernel.ID, read func(*tkernel.Kernel)) {
			_ = k.DlyTsk(2 * sysc.Ms) // released by the pass at 2 ms
			read(k)
			_ = k.StaAlm(alm, 0)
			read(k)
		},
		want: []uint64{2000, 2, 2000, 2, 3000, 3},
	}, {
		// A task whose Consume ends on a tick runs before that tick's pass,
		// so it reads the tick uncounted. The second Consume starts off the
		// grid and ends on it.
		name: "uncounted tick",
		body: func(k *tkernel.Kernel, task *tkernel.Task, alm tkernel.ID, read func(*tkernel.Kernel)) {
			consume := func(d sysc.Time) {
				task.TThread().Consume(core.Cost{Time: d}, trace.CtxTask, "work")
			}
			_ = k.DlyTsk(2 * sysc.Ms)
			consume(sysc.Ms) // ends on the tick at 3 ms
			read(k)
			_ = k.StaAlm(alm, 0)
			read(k)
			consume(500 * sysc.Us) // 3.5 ms, off the grid
			consume(500 * sysc.Us) // ends on the tick at 4 ms
			read(k)
			_ = k.StaAlm(alm, 0)
		},
		want: []uint64{3000, 2, 3000, 2, 3000, 3, 4000, 3, 4000, 4},
	}}
	for _, tc := range cases {
		run := func(disable bool) []uint64 {
			var reads []uint64
			read := func(k *tkernel.Kernel) {
				reads = append(reads, uint64(k.Sim().Now()/sysc.Us), k.RefSys().Ticks)
			}
			runTicked(t, tkernel.Config{DisableTickless: disable}, 10*sysc.Ms, func(k *tkernel.Kernel) {
				alm, _ := k.CreAlm("alm", func(h *tkernel.HandlerCtx) { read(h.K) })
				id, _ := k.CreTsk("starter", 10, func(task *tkernel.Task) { tc.body(k, task, alm, read) })
				_ = k.StaTsk(id)
			})
			return reads
		}
		for _, disable := range []bool{false, true} {
			if got := run(disable); !slices.Equal(got, tc.want) {
				t.Errorf("%s, DisableTickless=%v: reads (µs, ticks) %v, want %v", tc.name, disable, got, tc.want)
			}
		}
	}
}
