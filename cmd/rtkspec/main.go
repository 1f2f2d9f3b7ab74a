// Command rtkspec runs the RTOS-centric co-simulator on the case-study
// system: RTK-Spec TRON + i8051 BFM + GUI widgets + the video game. It is a
// thin flag shim over the unified run façade — the same run.Spec submitted
// to rtkserve produces byte-identical artifacts.
//
//	rtkspec -dur 1s                 # animate mode, speed + distribution
//	rtkspec -step -dur 100ms        # step mode: per-tick GANTT trace
//	rtkspec -ds                     # dump the T-Kernel/DS listing at the end
//	rtkspec -vcd wave.vcd           # probe BFM signals into a VCD file
//	rtkspec -trace out.json         # stream a Perfetto/Chrome trace
//	rtkspec -metrics report.json    # per-task latency/wait/CET-CEE report
//	rtkspec -gui=false -frame 50ms  # sweep the Table 2 knobs by hand
//	rtkspec -timeout 10s            # wall-clock cap; exits 1 on expiry
//	rtkspec -spec run.json          # load a full run.Spec (any scenario)
//	rtkspec -gen "tasks=8,util=0.7" # run a generated synthetic task set
//	rtkspec -cpuprofile cpu.out -memprofile mem.out  # pprof the run
//
// With -spec, the file provides every field and any other flag given
// explicitly on the command line overrides the corresponding spec field
// (flags win over the file; unset flags leave the file's values alone).
// Output flags (-trace, -metrics, -vcd, -ds, -step, -taskset) also append
// their artifact to the spec's artifact list.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/profiling"
	"repro/internal/run"
	"repro/internal/workload"
)

func main() {
	dur := flag.Duration("dur", time.Second, "simulated duration")
	step := flag.Bool("step", false, "step mode: advance tick by tick and render the trace")
	ds := flag.Bool("ds", false, "print the T-Kernel/DS listing at the end")
	gui := flag.Bool("gui", true, "model GUI widget overhead")
	frame := flag.Duration("frame", 10*time.Millisecond, "LCD frame period (widget-driving BFM access)")
	tick := flag.Duration("tick", 0, "kernel tick period (0 = model default, 1ms)")
	tickless := flag.Bool("tickless", true, "run kernel timer passes only at ticks where a timer entry is due (false: at every tick)")
	idleSleep := flag.Duration("idle-sleep", 0, "make the idle task sleep in tk_dly_tsk per loop (0 = busy idle)")
	vcdOut := flag.String("vcd", "", "write a VCD waveform of BFM signals")
	traceOut := flag.String("trace", "", "stream a Perfetto/Chrome trace-event JSON file (load at ui.perfetto.dev)")
	metricsOut := flag.String("metrics", "", "write a per-task scheduling-metrics JSON report")
	seed := flag.Uint64("seed", 0, "seed the synthetic user's key presses (0 = fixed legacy pattern)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline; on expiry the run stops at a quiescent point and exits 1")
	specPath := flag.String("spec", "", "load a full run.Spec JSON file; explicit flags override its fields")
	genFlag := flag.String("gen", "", "run a generated synthetic task set: comma-separated key=value pairs (tasks, util, sems, mutexes, mbfs, flags, irqs, pmin, pmax); empty values allowed (-gen \"\")")
	tasksetOut := flag.String("taskset", "", "write the resolved synthetic task set JSON (synthetic scenario)")
	prof := profiling.AddFlags()
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var spec run.Spec
	if *specPath != "" {
		spec, err = run.LoadSpecFile(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		spec = run.Spec{
			GUI:       gui,
			Frame:     run.Duration(*frame),
			Tickless:  tickless,
			Artifacts: []string{run.ArtifactConsole},
		}
	}
	// Flags given explicitly win over the spec file; without -spec this
	// reproduces the historical all-flags construction.
	if *specPath == "" || explicit["dur"] {
		spec.Dur = run.Duration(*dur)
	}
	if *specPath == "" || explicit["seed"] {
		spec.Seed = *seed
	}
	if *specPath == "" || explicit["timeout"] {
		spec.Deadline = run.Duration(*timeout)
	}
	if *specPath == "" || explicit["tick"] {
		spec.Tick = run.Duration(*tick)
	}
	if *specPath == "" || explicit["step"] {
		spec.Step = *step
	}
	if *specPath == "" || explicit["idle-sleep"] {
		spec.IdleSleep = run.Duration(*idleSleep)
	}
	if explicit["gui"] {
		spec.GUI = gui
	}
	if explicit["frame"] {
		spec.Frame = run.Duration(*frame)
	}
	if explicit["tickless"] {
		spec.Tickless = tickless
	}
	if *genFlag != "" || explicit["gen"] {
		gs, err := workload.ParseGenFlag(*genFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spec.Scenario = run.ScenarioSynthetic
		spec.Synthetic = &run.SyntheticSpec{Gen: gs}
	}
	if spec.Scenario == run.ScenarioSynthetic {
		// The videogame-only console artifact does not exist here; default
		// to the resolved task set instead.
		spec.Artifacts = pruneArtifacts(spec.Artifacts, run.ArtifactConsole)
	}

	addArtifact := func(cond bool, name string) {
		if cond && !hasArtifact(spec.Artifacts, name) {
			spec.Artifacts = append(spec.Artifacts, name)
		}
	}
	addArtifact(spec.Step, run.ArtifactGantt)
	addArtifact(*ds, run.ArtifactDS)
	addArtifact(*vcdOut != "", run.ArtifactVCD)
	addArtifact(*traceOut != "", run.ArtifactTrace)
	addArtifact(*metricsOut != "", run.ArtifactMetrics)
	addArtifact(*tasksetOut != "", run.ArtifactTaskSet)

	res, runErr := run.Execute(context.Background(), spec)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "simulation error:", runErr)
		os.Exit(1)
	}

	st := res.Stats
	switch st.Scenario {
	case run.ScenarioSynthetic:
		fmt.Printf("RTK-Spec TRON synthetic workload: S=%v R=%v S/R=%.2f\n",
			st.SimTime.Std(), st.Wall.Std().Round(time.Millisecond), st.SimPerWall)
		fmt.Printf("kernel: ticks=%d ctxsw=%d preempt=%d irq=%d activations=%d\n",
			st.Ticks, st.CtxSwitches, st.Preemptions, st.Interrupts, st.Activations)
	default:
		fmt.Printf("RTK-Spec TRON co-simulation: S=%v R=%v S/R=%.2f mode=%s\n",
			st.SimTime.Std(), st.Wall.Std().Round(time.Millisecond), st.SimPerWall,
			map[bool]string{true: "step", false: "animate"}[spec.Step])
	}
	os.Stdout.Write(res.Artifacts[run.ArtifactConsole])
	os.Stdout.Write(res.Artifacts[run.ArtifactSummary])
	os.Stdout.Write(res.Artifacts[run.ArtifactReport])

	if spec.Step {
		fmt.Println("execution time/energy trace (first 100 ms):")
		os.Stdout.Write(res.Artifacts[run.ArtifactGantt])
	}
	if *ds {
		fmt.Println()
		os.Stdout.Write(res.Artifacts[run.ArtifactDS])
	}
	writeArtifact := func(path, name, note string) {
		if path == "" {
			return
		}
		if err := os.WriteFile(path, res.Artifacts[name], 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(note)
	}
	writeArtifact(*vcdOut, run.ArtifactVCD,
		fmt.Sprintf("\nwaveform: %d changes written to %s", st.VCDChanges, *vcdOut))
	writeArtifact(*traceOut, run.ArtifactTrace,
		fmt.Sprintf("\ntrace: %d events written to %s (load at ui.perfetto.dev)", st.TraceEvents, *traceOut))
	writeArtifact(*metricsOut, run.ArtifactMetrics,
		fmt.Sprintf("metrics: per-task report written to %s", *metricsOut))
	writeArtifact(*tasksetOut, run.ArtifactTaskSet,
		fmt.Sprintf("taskset: resolved set written to %s", *tasksetOut))

	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func hasArtifact(arts []string, name string) bool {
	for _, a := range arts {
		if a == name {
			return true
		}
	}
	return false
}

func pruneArtifacts(arts []string, drop string) []string {
	var out []string
	for _, a := range arts {
		if a != drop {
			out = append(out, a)
		}
	}
	return out
}
