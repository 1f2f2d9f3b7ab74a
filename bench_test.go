package repro

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/petri"
	"repro/internal/rtk"
	"repro/internal/run"
	"repro/internal/run/opts"
	"repro/internal/sweep"
	"repro/internal/sysc"
	"repro/internal/tkds"
	"repro/internal/tkernel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchSimWindow is the simulated time per benchmark iteration. Table 2's
// published S is 1 s; a 250 ms window keeps iterations short while the
// reported simsec/s metric stays comparable.
const benchSimWindow = 250 * sysc.Ms

// BenchmarkTable2CoSimSpeed regenerates Table 2: co-simulation speed of the
// full framework (RTK-Spec TRON + i8051 BFM + video game) across GUI
// overhead and widget-driving BFM access rates. The custom metric
// simsec/s is the paper's S/R, what BENCH_sysc.json and the perf gates
// track.
func BenchmarkTable2CoSimSpeed(b *testing.B) {
	type cfg struct {
		name       string
		gui        bool
		frame      sysc.Time
		idleSleep  sysc.Time
		noTickless bool
		window     sysc.Time // overrides benchSimWindow when non-zero
	}
	cases := []cfg{
		{name: "gui=off/frame=off"},
		{name: "gui=off/frame=100ms", frame: 100 * sysc.Ms},
		{name: "gui=off/frame=50ms", frame: 50 * sysc.Ms},
		{name: "gui=off/frame=20ms", frame: 20 * sysc.Ms},
		{name: "gui=off/frame=10ms", frame: 10 * sysc.Ms},
		{name: "gui=on/frame=off", gui: true},
		{name: "gui=on/frame=100ms", gui: true, frame: 100 * sysc.Ms},
		{name: "gui=on/frame=50ms", gui: true, frame: 50 * sysc.Ms},
		{name: "gui=on/frame=20ms", gui: true, frame: 20 * sysc.Ms},
		{name: "gui=on/frame=10ms", gui: true, frame: 10 * sysc.Ms},
		// Idle-heavy variant: T4 sleeps in tk_dly_tsk instead of modelling
		// busy work, so most system ticks have nothing to do — the tickless
		// fast-forward case. The tickless=off twin measures its gain. The
		// longer window amortizes model construction, which otherwise
		// dominates an idle iteration and hides the steady-state gain.
		{name: "gui=off/frame=off/idle=sleep", idleSleep: 50 * sysc.Ms, window: 2500 * sysc.Ms},
		{name: "gui=off/frame=off/idle=sleep/tickless=off", idleSleep: 50 * sysc.Ms, noTickless: true, window: 2500 * sysc.Ms},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			window := benchSimWindow
			if c.window != 0 {
				window = c.window
			}
			for i := 0; i < b.N; i++ {
				acfg := app.DefaultConfig()
				acfg.GUI = c.gui
				acfg.GUIWorkFactor = experiments.GUIWorkFactor
				acfg.FramePeriod = c.frame
				acfg.IdleSleep = c.idleSleep
				acfg.DisableTickless = c.noTickless
				a := app.Build(acfg)
				if err := a.Run(window); err != nil {
					b.Fatal(err)
				}
				a.Shutdown()
			}
			simsec := window.Seconds() * float64(b.N)
			b.ReportMetric(simsec/b.Elapsed().Seconds(), "simsec/s")
		})
	}
}

// BenchmarkSweepWarmStart measures warm-start sweep forking against the
// cold baseline: 16 variant seeds of a 12-simsec synthetic run that share
// a 10-simsec prefix. Cold simulates every variant from t=0; warm
// simulates the prefix once, snapshots at the quiescent point, and forks
// each variant from the snapshot — identical artifacts (the byte-equality
// property tests pin that), so the simsec/s ratio between the two modes
// is pure wall-clock speedup. One worker keeps the comparison purely
// algorithmic: exactly one shared prefix, no scheduling noise.
func BenchmarkSweepWarmStart(b *testing.B) {
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = uint64(1000 + i)
	}
	base := run.SweepSpec{
		Base: run.Spec{
			Scenario:  run.ScenarioSynthetic,
			Seed:      42,
			Dur:       run.Duration(12 * time.Second),
			Synthetic: &run.SyntheticSpec{Gen: &workload.GenSpec{}},
		},
		Prefix:  run.Duration(10 * time.Second),
		Seeds:   seeds,
		Workers: 1,
	}
	for _, mode := range []string{"cold", "warm"} {
		sw := base
		sw.Warm = mode == "warm"
		b.Run("mode="+mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := run.ExecuteSweep(context.Background(), sw)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != len(seeds) {
					b.Fatalf("%d results, want %d", len(res), len(seeds))
				}
			}
			// Simulated coverage delivered per mode is the same (seeds x
			// full duration), so warm's higher simsec/s IS the speedup.
			simsec := sw.Base.Dur.Std().Seconds() * float64(len(seeds)) * float64(b.N)
			b.ReportMetric(simsec/b.Elapsed().Seconds(), "simsec/s")
		})
	}
}

// BenchmarkFigure6Trace regenerates the step-mode execution time/energy
// trace: the framework runs tick by tick with the GANTT recorder attached,
// then renders the chart.
func BenchmarkFigure6Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := trace.NewGantt()
		cfg := app.DefaultConfig()
		cfg.GUI = false
		cfg.Gantt = g
		a := app.Build(cfg)
		tick := a.K.Tick()
		for t := tick; t <= 100*sysc.Ms; t += tick {
			if err := a.Run(t); err != nil {
				b.Fatal(err)
			}
		}
		var sb strings.Builder
		g.Render(&sb, 0, 100*sysc.Ms, 100)
		if len(g.Segments) == 0 || sb.Len() == 0 {
			b.Fatal("empty trace")
		}
		a.Shutdown()
	}
}

// BenchmarkFigure7Energy regenerates the consumed time/energy distribution
// with the 10 Wh battery; the metric reports the application's average
// power draw the widget displays.
func BenchmarkFigure7Energy(b *testing.B) {
	var lastPower float64
	for i := 0; i < b.N; i++ {
		cfg := app.DefaultConfig()
		cfg.GUI = false
		a := app.Build(cfg)
		if err := a.Run(benchSimWindow); err != nil {
			b.Fatal(err)
		}
		lastPower = a.Battery.Consumed().Joules() / benchSimWindow.Seconds()
		if a.Battery.Consumed() <= 0 {
			b.Fatal("no energy accounted")
		}
		a.Shutdown()
	}
	b.ReportMetric(lastPower*1e6, "uW-avg")
}

// BenchmarkFigure8DSListing regenerates the T-Kernel/DS output listing.
func BenchmarkFigure8DSListing(b *testing.B) {
	cfg := app.DefaultConfig()
	cfg.GUI = false
	a := app.Build(cfg)
	defer a.Shutdown()
	if err := a.Run(benchSimWindow); err != nil {
		b.Fatal(err)
	}
	ds := tkds.New(a.K)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		ds.Listing(&sb)
		if sb.Len() == 0 {
			b.Fatal("empty listing")
		}
	}
}

// BenchmarkFigure4Waveform regenerates the probed-signal waveform: the
// framework runs with a VCD recorder on the BFM signals.
func BenchmarkFigure4Waveform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vcd := trace.NewVCD()
		cfg := app.DefaultConfig()
		cfg.GUI = false
		cfg.VCD = vcd
		a := app.Build(cfg)
		if err := a.Run(100 * sysc.Ms); err != nil {
			b.Fatal(err)
		}
		if vcd.Len() == 0 {
			b.Fatal("no signal changes")
		}
		vcd.Render(io.Discard)
		a.Shutdown()
	}
}

// BenchmarkAblationDelayedDispatch measures the wakeup-to-dispatch latency
// of a high-priority task woken from inside a handler: with delayed
// dispatching the latency tracks the handler's remaining execution time.
func BenchmarkAblationDelayedDispatch(b *testing.B) {
	for _, hw := range []sysc.Time{0, 1 * sysc.Ms, 5 * sysc.Ms} {
		b.Run("handler="+hw.String(), func(b *testing.B) {
			var latency sysc.Time
			for i := 0; i < b.N; i++ {
				latency = delayedDispatchLatency(b, hw)
			}
			b.ReportMetric(float64(latency)/float64(sysc.Us), "latency-us")
		})
	}
}

func delayedDispatchLatency(b *testing.B, handlerWork sysc.Time) sysc.Time {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	k := tkernel.New(sim, tkernel.Config{Costs: tkernel.ZeroCosts()})
	var wokeAt, raisedAt sysc.Time
	k.Boot(func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("hi", 1, func(task *tkernel.Task) {
			_ = k.SlpTsk(tkernel.TmoFevr)
			wokeAt = sim.Now()
		})
		_ = k.StaTsk(id)
		alm, _ := k.CreAlm("h", func(h *tkernel.HandlerCtx) {
			raisedAt = sim.Now()
			_ = h.K.WupTsk(id)
			h.Work(core.Cost{Time: handlerWork}, "rest")
		})
		_ = k.StaAlm(alm, 10*sysc.Ms)
	})
	if err := sim.Start(sysc.Sec); err != nil {
		b.Fatal(err)
	}
	if wokeAt < raisedAt+handlerWork {
		b.Fatalf("dispatch not delayed: woke %v, handler until %v",
			wokeAt, raisedAt+handlerWork)
	}
	return wokeAt - raisedAt
}

// BenchmarkAblationGranularity sweeps the system tick: finer ticks buy
// timeout accuracy at the cost of simulation events per simulated second.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, tick := range []sysc.Time{100 * sysc.Us, 1 * sysc.Ms, 10 * sysc.Ms} {
		b.Run("tick="+tick.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := sysc.NewSimulator()
				k := tkernel.New(sim, tkernel.Config{CommonOptions: opts.CommonOptions{Tick: tick}, Costs: tkernel.ZeroCosts()})
				k.Boot(func(k *tkernel.Kernel) {
					id, _ := k.CreTsk("t", 10, func(task *tkernel.Task) {
						for {
							_ = k.DlyTsk(5 * sysc.Ms)
						}
					})
					_ = k.StaTsk(id)
				})
				if err := sim.Start(benchSimWindow); err != nil {
					b.Fatal(err)
				}
				sim.Shutdown()
			}
			simsec := benchSimWindow.Seconds() * float64(b.N)
			b.ReportMetric(simsec/b.Elapsed().Seconds(), "simsec/s")
		})
	}
}

// BenchmarkAblationSchedulers runs the same workload on RTK-Spec I,
// RTK-Spec II and RTK-Spec TRON.
func BenchmarkAblationSchedulers(b *testing.B) {
	work := func(k *rtk.RTK) {
		for i := 0; i < 3; i++ {
			t := k.CreateTask("t", (i+1)*10, func(task *rtk.Task) {
				for j := 0; j < 50; j++ {
					task.Work(core.Cost{Time: 1 * sysc.Ms}, "")
				}
			})
			_ = k.Start(t)
		}
	}
	for _, p := range []rtk.Policy{rtk.RoundRobin, rtk.PriorityPreemptive} {
		name := "rtk1-roundrobin"
		if p == rtk.PriorityPreemptive {
			name = "rtk2-priority"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := sysc.NewSimulator()
				k := rtk.New(sim, rtk.Config{CommonOptions: opts.CommonOptions{TimeSlice: 2 * sysc.Ms}, Policy: p})
				work(k)
				if err := sim.Start(benchSimWindow); err != nil {
					b.Fatal(err)
				}
				sim.Shutdown()
			}
		})
	}
	b.Run("tron-tkernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim := sysc.NewSimulator()
			k := tkernel.New(sim, tkernel.Config{Costs: tkernel.ZeroCosts()})
			k.Boot(func(k *tkernel.Kernel) {
				for j := 0; j < 3; j++ {
					id, _ := k.CreTsk("t", (j+1)*10, func(task *tkernel.Task) {
						for n := 0; n < 50; n++ {
							k.Work(core.Cost{Time: 1 * sysc.Ms}, "")
						}
					})
					_ = k.StaTsk(id)
				}
			})
			if err := sim.Start(benchSimWindow); err != nil {
				b.Fatal(err)
			}
			sim.Shutdown()
		}
	})
}

// BenchmarkCycleSteppedBaseline is the ISS/RTL-level proxy the paper's
// conclusion compares against: the simulator evaluates one event per 8051
// machine cycle. Compare simsec/s with BenchmarkTable2CoSimSpeed to
// reproduce the "significant speed gain" claim.
func BenchmarkCycleSteppedBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wall, cycles := experiments.CycleSteppedBaseline(100 * sysc.Ms)
		if cycles == 0 || wall <= 0 {
			b.Fatal("baseline did not run")
		}
	}
	simsec := 0.1 * float64(b.N)
	b.ReportMetric(simsec/b.Elapsed().Seconds(), "simsec/s")
}

// BenchmarkISSLevelBaseline runs real 8051 firmware on the full
// instruction-set simulator coupled to the simulation clock — the honest
// "ISS level" whose simsec/s the paper's RTOS level beats by orders of
// magnitude (compare with BenchmarkTable2CoSimSpeed).
func BenchmarkISSLevelBaseline(b *testing.B) {
	for _, batch := range []int{1, 100} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wall, instrs := experiments.ISSBaseline(100*sysc.Ms, batch)
				if instrs == 0 || wall <= 0 {
					b.Fatal("ISS did not run")
				}
			}
			simsec := 0.1 * float64(b.N)
			b.ReportMetric(simsec/b.Elapsed().Seconds(), "simsec/s")
		})
	}
}

// BenchmarkServiceCall measures the raw cost of one kernel service call
// (tk_sig_sem with no waiters) in the simulation.
func BenchmarkServiceCall(b *testing.B) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	k := tkernel.New(sim, tkernel.Config{Costs: tkernel.ZeroCosts()})
	var sem tkernel.ID
	k.Boot(func(k *tkernel.Kernel) {
		sem, _ = k.CreSem("s", tkernel.TaTFIFO, 0, 1<<30)
	})
	if err := sim.Start(10 * sysc.Ms); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if er := k.SigSem(sem, 1); er != tkernel.EOK {
			b.Fatal(er)
		}
	}
}

// BenchmarkContextSwitch measures a full ping-pong context switch between
// two tasks through sleep/wakeup.
func BenchmarkContextSwitch(b *testing.B) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	k := tkernel.New(sim, tkernel.Config{Costs: tkernel.ZeroCosts()})
	var aID, bID tkernel.ID
	k.Boot(func(k *tkernel.Kernel) {
		// Each ping carries a 1 us annotated cost so simulated time
		// advances (a zero-cost ping-pong would loop within one instant).
		aID, _ = k.CreTsk("a", 10, func(task *tkernel.Task) {
			for {
				k.Work(core.Cost{Time: sysc.Us}, "")
				_ = k.WupTsk(bID)
				if er := k.SlpTsk(tkernel.TmoFevr); er != tkernel.EOK {
					return
				}
			}
		})
		bID, _ = k.CreTsk("b", 10, func(task *tkernel.Task) {
			for {
				k.Work(core.Cost{Time: sysc.Us}, "")
				_ = k.WupTsk(aID)
				if er := k.SlpTsk(tkernel.TmoFevr); er != tkernel.EOK {
					return
				}
			}
		})
		_ = k.StaTsk(aID)
		_ = k.StaTsk(bID)
	})
	if err := sim.Start(1 * sysc.Ms); err != nil {
		b.Fatal(err)
	}
	swBefore := k.API().ContextSwitches()
	b.ResetTimer()
	target := swBefore + uint64(b.N)
	horizon := 2 * sysc.Ms
	for k.API().ContextSwitches() < target {
		if err := sim.Start(horizon); err != nil {
			b.Fatal(err)
		}
		horizon += 2 * sysc.Ms
	}
	b.ReportMetric(float64(k.API().ContextSwitches()-swBefore)/b.Elapsed().Seconds(), "ctxsw/s")
}

// BenchmarkTThreadConsume measures SIM_Wait throughput: annotated execution
// slices per wall second.
func BenchmarkTThreadConsume(b *testing.B) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	k := tkernel.New(sim, tkernel.Config{Costs: tkernel.ZeroCosts()})
	slices := 0
	k.Boot(func(k *tkernel.Kernel) {
		id, _ := k.CreTsk("t", 10, func(task *tkernel.Task) {
			for {
				k.Work(core.Cost{Time: 10 * sysc.Us, Energy: petri.NanoJ}, "")
				slices++
			}
		})
		_ = k.StaTsk(id)
	})
	b.ResetTimer()
	horizon := sysc.Time(0)
	for slices < b.N {
		horizon += 10 * sysc.Ms
		if err := sim.Start(horizon); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyntheticCoSimSpeed measures kernel simulation speed on a
// generated synthetic task set — the default workload.GenSpec draw at a
// fixed seed, so the set (6 tasks, utilization 0.6, one sem/mutex/mbf/flag,
// one interrupt source) is identical across runs and machines. Unlike the
// Table 2 benchmark there is no BFM or GUI layer: this tracks the bare
// kernel data path under a mixed periodic/blocking load.
func BenchmarkSyntheticCoSimSpeed(b *testing.B) {
	ts := workload.Generate(sweep.NewRNG(sweep.Seed(42, 0)), workload.GenSpec{})
	b.Run("gen=default", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim := sysc.NewSimulator()
			k := tkernel.New(sim, tkernel.Config{Costs: tkernel.DefaultCosts()})
			inst := workload.Build(sim, k, ts, 42)
			if err := sim.Start(benchSimWindow); err != nil {
				b.Fatal(err)
			}
			if inst.Activations() == 0 {
				b.Fatal("no task activations")
			}
			sim.Shutdown()
		}
		simsec := benchSimWindow.Seconds() * float64(b.N)
		b.ReportMetric(simsec/b.Elapsed().Seconds(), "simsec/s")
	})
}
