package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"repro/internal/app"
	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/run"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/sysc"
	"repro/internal/tkernel"
	"repro/internal/trace"
	synth "repro/internal/workload"
)

// This file measures the traced run's per-layer metrics from outside the
// program. The simulation layers are rebuilt from their constructors for
// the workload's first ops (replicas), counted through the public counters
// and a bus subscriber, and checked against the façade's result for the
// same spec. The serving layers are read from the fleet the ops went
// through, or from a probe fleet for the façade workloads.

// oracleInterval is chaos.Config's default oracle throttle. The verdict
// table prints each job's oracle check count, so the drift check catches a
// change.
const oracleInterval = sysc.Ms

// system is one replica: the layers a scenario wires together, built
// directly from their constructors.
type system struct {
	sim   *sysc.Simulator
	k     *tkernel.Kernel
	inst  *synth.Instance // synthetic scenario
	drive func(context.Context) error
	stats func() run.Stats
}

func (s *system) shutdown() { s.sim.Shutdown() }

func durOf(spec run.Spec) sysc.Time {
	if d := spec.Dur.Sim(); d > 0 {
		return d
	}
	return 1 * sysc.Sec
}

func simTime(sim *sysc.Simulator) run.Duration {
	return run.Duration(time.Duration(sim.Now() / sysc.Ns))
}

// taskSetOf returns the task set a synthetic spec runs, as the façade
// resolves it: the taskset.json artifact of a 1 ms run of the same spec. The
// replicas thus simulate the façade's own generator draw.
func taskSetOf(ctx context.Context, spec run.Spec) (*synth.TaskSet, error) {
	if spec.Synthetic == nil {
		return nil, errors.New("replica: synthetic spec without a workload")
	}
	probe := spec
	probe.Dur = run.Duration(time.Millisecond)
	probe.Checkpoint, probe.Stream = nil, false
	probe.Artifacts = []string{run.ArtifactTaskSet}
	res, err := run.Execute(ctx, probe)
	if err != nil {
		return nil, fmt.Errorf("replica: task set: %w", err)
	}
	return synth.Parse(res.Artifacts[run.ArtifactTaskSet])
}

// buildSystem constructs a videogame or synthetic spec's layers on bus; a
// synthetic spec runs task set ts.
func buildSystem(spec run.Spec, ts *synth.TaskSet, bus *event.Bus) (*system, error) {
	dur := durOf(spec)
	tickless := spec.Tickless == nil || *spec.Tickless
	switch spec.Scenario {
	case "", run.ScenarioVideogame:
		cfg := app.DefaultConfig()
		cfg.GUI = spec.GUI == nil || *spec.GUI
		if spec.Frame != 0 {
			cfg.FramePeriod = spec.Frame.Sim()
		}
		cfg.Tick = spec.Tick.Sim()
		cfg.DisableTickless = !tickless
		cfg.IdleSleep = spec.IdleSleep.Sim()
		cfg.Seed = spec.Seed
		cfg.Bus = bus
		a := app.Build(cfg)
		s := &system{sim: a.Sim, k: a.K}
		s.drive = func(ctx context.Context) error { return a.RunContext(ctx, dur) }
		s.stats = func() run.Stats {
			return run.Stats{Scenario: run.ScenarioVideogame, SimTime: simTime(a.Sim),
				Ticks: a.K.Ticks(), CtxSwitches: a.K.API().ContextSwitches(),
				Preemptions: a.K.API().Preemptions(), Interrupts: a.K.API().Interrupts(),
				Frames: a.Frames(), Score: a.Score(), Bonus: a.Bonus()}
		}
		return s, nil
	case run.ScenarioSynthetic:
		sim := sysc.NewSimulator()
		kcfg := tkernel.Config{Costs: tkernel.DefaultCosts()}
		kcfg.Tick = spec.Tick.Sim()
		kcfg.DisableTickless = !tickless
		kcfg.Bus = bus
		k := tkernel.New(sim, kcfg)
		inst := synth.Build(sim, k, ts, spec.Seed)
		s := &system{sim: sim, k: k, inst: inst}
		s.drive = func(ctx context.Context) error {
			if ck := spec.Checkpoint; ck != nil && ck.At > 0 {
				if err := sim.StartContext(ctx, ck.At.Sim()); err != nil {
					return err
				}
				if ck.ForkSeed != nil {
					inst.Reseed(*ck.ForkSeed)
				}
			}
			return sim.StartContext(ctx, dur)
		}
		s.stats = func() run.Stats {
			return run.Stats{Scenario: run.ScenarioSynthetic, SimTime: simTime(sim),
				Ticks: k.Ticks(), CtxSwitches: k.API().ContextSwitches(),
				Preemptions: k.API().Preemptions(), Interrupts: k.API().Interrupts(),
				Activations: inst.Activations()}
		}
		return s, nil
	}
	return nil, fmt.Errorf("replica: scenario %q", spec.Scenario)
}

// recorder is the counting bus subscriber: it counts every kind and keeps
// the observer input (everything but the sysc bookkeeping kinds) for
// replay. It records only while on: the façade's observers are closed
// before the simulator shuts down, so shutdown traffic is not theirs.
type recorder struct {
	on     bool
	kinds  []uint64
	events []event.Event
}

func newRecorder() *recorder { return &recorder{kinds: make([]uint64, event.NumKinds())} }

func (r *recorder) attach(bus *event.Bus) {
	r.on = true
	bus.Subscribe(func(e event.Event) {
		if !r.on {
			return
		}
		r.kinds[e.Kind]++
		if e.Kind != event.KindQuiescent && e.Kind != event.KindTimeAdvance {
			r.events = append(r.events, e)
		}
	})
}

// stop ends recording; nil-safe.
func (r *recorder) stop() {
	if r != nil {
		r.on = false
	}
}

// layerRun is one replica execution.
type layerRun struct {
	stats           run.Stats
	build, simulate time.Duration
	deltas          uint64
	summary         []byte // chaos campaign verdict table
}

// runLayers builds and runs spec's layers (a synthetic spec on task set
// ts); a non-nil rec subscribes to every bus.
func runLayers(ctx context.Context, spec run.Spec, ts *synth.TaskSet, rec *recorder) (layerRun, error) {
	newBus := func() *event.Bus {
		bus := event.NewBus()
		if rec != nil {
			rec.attach(bus)
		}
		return bus
	}
	if spec.Scenario == run.ScenarioChaos {
		return runChaos(ctx, spec, newBus, rec.stop)
	}
	var lr layerRun
	t0 := time.Now()
	sys, err := buildSystem(spec, ts, newBus())
	if err != nil {
		return lr, err
	}
	defer sys.shutdown()
	t1 := time.Now()
	err = sys.drive(ctx)
	lr.build, lr.simulate = t1.Sub(t0), time.Since(t1)
	rec.stop()
	lr.stats = sys.stats()
	lr.deltas = sys.sim.DeltaCount()
	return lr, err
}

// runChaos replays a chaos campaign job by job from the chaos layer's
// constructors: the built-in application under the job's fault schedule,
// with the invariant oracles attached. The campaign's defaults come from
// the façade's canonical form of the spec, and each job's seed and fault
// schedule from the chaos layer's own run of that job.
func runChaos(ctx context.Context, spec run.Spec, newBus func() *event.Bus, stop func()) (layerRun, error) {
	var lr layerRun
	canon, err := run.Canonicalize(spec)
	if err != nil {
		return lr, err
	}
	cs := *canon.Chaos
	if cs.Synthetic != nil || cs.Minimize || cs.Job != nil {
		return lr, errors.New("replica: only plain chaos campaigns are rebuilt")
	}
	cfg := chaos.Config{Seeds: cs.Seeds, BaseSeed: canon.Seed, Dur: canon.Dur.Sim(), Tasks: cs.Tasks,
		Faults: cs.Faults, Corrupt: cs.Corrupt}
	report := chaos.Report{Cfg: cfg}
	for j := 0; j < cfg.Seeds; j++ {
		job, ok := chaos.RunJobContext(ctx, cfg, j)
		if !ok {
			return lr, fmt.Errorf("replica: chaos job %d did not complete: %v", j, ctx.Err())
		}
		seed, sched := job.Seed, job.Schedule
		t0 := time.Now()
		sim := sysc.NewSimulator()
		sys := chaos.BuildSystem(sim, seed, chaos.SystemConfig{Tasks: cfg.Tasks,
			Costs: tkernel.DefaultCosts(), Schedule: sched, Bus: newBus()})
		orc := chaos.Attach(sys.K, sys.Gantt, oracleInterval)
		t1 := time.Now()
		err := sim.StartContext(ctx, cfg.Dur)
		lr.build += t1.Sub(t0)
		lr.simulate += time.Since(t1)
		orc.Final(sim.Now())
		stop()
		v := chaos.Verdict{Index: j, Seed: seed, Pass: orc.Passed(), Schedule: sched,
			FaultsFired: len(sys.Inj.Fired()), Checks: orc.Checks(), Violations: orc.Violations,
			Ticks: sys.K.Ticks(), CtxSwitches: sys.K.API().ContextSwitches(),
			Preemptions: sys.K.API().Preemptions(), Interrupts: sys.K.API().Interrupts(),
			Cycles: sys.Cycles()}
		lr.deltas += sim.DeltaCount()
		sim.Shutdown()
		if err != nil {
			return lr, err
		}
		report.Verdicts = append(report.Verdicts, v)
		lr.stats.Ticks += v.Ticks
		lr.stats.CtxSwitches += v.CtxSwitches
		lr.stats.Preemptions += v.Preemptions
		lr.stats.Interrupts += v.Interrupts
	}
	lr.stats.Scenario = run.ScenarioChaos
	lr.stats.Jobs = len(report.Verdicts)
	lr.stats.Failures = len(report.Failures())
	lr.stats.SimTime = run.Duration(time.Duration(int64(cfg.Dur/sysc.Ns) * int64(cfg.Seeds)))
	lr.summary = []byte(report.Summary())
	return lr, nil
}

// replica is one spec rebuilt from layer constructors and measured.
type replica struct {
	spec   run.Spec
	run    layerRun   // the untraced execution: build and simulate times
	kinds  []uint64   // bus events by kind, from the recording execution
	twin   run.Result // the façade's result for the same spec
	simsec float64
	events int // observer input events replayed

	eventNs, traceNs, metricsNs float64 // replay cost per event
	closeMs, encodeMs           float64 // Perfetto close, metrics encode: the harvest
	traceRecords                int
	traceBytes                  []byte
}

// replicate rebuilds spec twice from layer constructors — untraced for
// timings, with the recorder for counts — replays the recorded events
// through each observer alone, and checks everything against the façade's
// result for the same spec (the drift check).
func replicate(ctx context.Context, spec run.Spec, op int, tr *tracer) (*replica, error) {
	rp := &replica{spec: spec}
	var ts *synth.TaskSet
	if spec.Scenario == run.ScenarioSynthetic {
		var err error
		if ts, err = taskSetOf(ctx, spec); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	plain, err := runLayers(ctx, spec, ts, nil)
	if err != nil {
		return nil, err
	}
	tr.add("build", "replica", tidReplica, op, t0, t0.Add(plain.build))
	tr.add("simulate", "replica", tidReplica, op, t0.Add(plain.build), t0.Add(plain.build+plain.simulate))
	rec := newRecorder()
	traced, err := runLayers(ctx, spec, ts, rec)
	if err != nil {
		return nil, err
	}
	rp.run, rp.kinds, rp.events = plain, rec.kinds, len(rec.events)
	rp.simsec = time.Duration(plain.stats.SimTime).Seconds()

	// Observer cost: the exporters are pure functions of the event stream,
	// so replaying it through each one alone isolates its host time.
	rp.eventNs = replayNs(rec.events, func(b *event.Bus) { b.Subscribe(func(event.Event) {}) })
	var tbuf bytes.Buffer
	var pf *trace.Perfetto
	rp.traceNs = replayNs(rec.events, func(b *event.Bus) { pf = trace.AttachPerfetto(b, &tbuf) })
	h0 := time.Now()
	if err := pf.Close(); err != nil {
		return nil, err
	}
	h1 := time.Now()
	var coll *metrics.Collector
	rp.metricsNs = replayNs(rec.events, func(b *event.Bus) { coll = metrics.Attach(b) })
	var mbuf bytes.Buffer
	h2 := time.Now()
	if err := coll.WriteJSON(&mbuf); err != nil {
		return nil, err
	}
	h3 := time.Now()
	rp.closeMs = ms(h1.Sub(h0))
	rp.encodeMs = ms(h3.Sub(h2))
	rp.traceRecords, rp.traceBytes = pf.Events(), tbuf.Bytes()
	tr.add("harvest", "replica", tidReplica, op, h0, h3)

	// Drift check against the façade, asked for the observers' artifacts
	// too (chaos campaigns cannot produce them; their verdict table stands
	// in).
	twin := spec
	twin.Stream = false
	if spec.Scenario != run.ScenarioChaos {
		twin.Artifacts = append(append([]string(nil), spec.Artifacts...), run.ArtifactTrace, run.ArtifactMetrics)
	}
	if rp.twin, err = run.Execute(ctx, twin); err != nil {
		return nil, fmt.Errorf("façade twin: %w", err)
	}
	want := rp.twin.Stats
	for _, lr := range []layerRun{plain, traced} {
		got := lr.stats
		if spec.Scenario != run.ScenarioChaos {
			got.TraceEvents = rp.traceRecords
		}
		if digestOf(got, nil) != digestOf(want, nil) {
			return nil, fmt.Errorf("drift: replica stats %+v, façade %+v", got, want)
		}
	}
	if spec.Scenario == run.ScenarioChaos {
		if !bytes.Equal(plain.summary, rp.twin.Artifacts[run.ArtifactSummary]) {
			return nil, errors.New("drift: replica summary.txt differs from the façade's")
		}
	} else {
		if !bytes.Equal(rp.traceBytes, rp.twin.Artifacts[run.ArtifactTrace]) {
			return nil, errors.New("drift: replica trace.json differs from the façade's")
		}
		if !bytes.Equal(mbuf.Bytes(), rp.twin.Artifacts[run.ArtifactMetrics]) {
			return nil, errors.New("drift: replica metrics.json differs from the façade's")
		}
	}
	return rp, nil
}

// replayNs publishes events through a fresh bus with one observer attached
// and returns the host nanoseconds per event.
func replayNs(events []event.Event, attach func(*event.Bus)) float64 {
	bus := event.NewBus()
	attach(bus)
	t0 := time.Now()
	for _, e := range events {
		bus.Publish(e)
	}
	if len(events) == 0 {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(events))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// perLayer adds the per-layer metrics of a traced run to rep.
func perLayer(ctx context.Context, rep *Report, w workload, c config, r runner, outs []outcome,
	wall time.Duration, tr *tracer) {
	rep.Counts = map[string]float64{}
	count := func(name string, v float64, unit string) {
		rep.put(name, v, unit)
		rep.Counts[name] = rep.Metrics[name].Value
	}

	specs, err := w.replicas(c)
	if err != nil {
		rep.fail(err)
		return
	}
	var reps []*replica
	for i, spec := range specs {
		rp, err := replicate(ctx, spec, i, tr)
		if err != nil {
			rep.fail(fmt.Errorf("replica %d: %w", i, err))
			return
		}
		reps = append(reps, rp)
	}

	// Simulation layers: counts per simulated second, host time per unit of
	// work, summed over the replicas.
	var simsec, events, records float64
	var build, simulate time.Duration
	var deltas, ctxsw, preempt, ticks, acts, frames float64
	var eventNs, traceNs, metricsNs, closeMs, encodeMs, traceBytes float64
	kinds := make([]float64, event.NumKinds())
	for _, rp := range reps {
		st := rp.run.stats
		simsec += rp.simsec
		build += rp.run.build
		simulate += rp.run.simulate
		deltas += float64(rp.run.deltas)
		ctxsw += float64(st.CtxSwitches)
		preempt += float64(st.Preemptions)
		ticks += float64(st.Ticks)
		acts += float64(st.Activations)
		frames += float64(st.Frames)
		for k, n := range rp.kinds {
			kinds[k] += float64(n)
		}
		n := float64(rp.events)
		events += n
		eventNs += rp.eventNs * n
		traceNs += rp.traceNs * n
		metricsNs += rp.metricsNs * n
		closeMs += rp.closeMs
		encodeMs += rp.encodeMs
		records += float64(rp.traceRecords)
		traceBytes += float64(len(rp.traceBytes))
	}
	nrep := float64(len(reps))
	perSim := func(v float64) float64 { return v / simsec }
	simNs := float64(simulate.Nanoseconds())
	count("sysc.deltas_per_simsec", perSim(deltas), "1/simsec")
	count("sysc.time_advances_per_simsec", perSim(kinds[event.KindTimeAdvance]), "1/simsec")
	// A scheduler cycle is a timed advance or a delta round; chaos jobs,
	// driven by timed events only, have no deltas at all.
	rep.put("sysc.ns_per_cycle", simNs/(deltas+kinds[event.KindTimeAdvance]), "ns")
	count("core.ctxsw_per_simsec", perSim(ctxsw), "1/simsec")
	count("core.preempt_per_simsec", perSim(preempt), "1/simsec")
	count("core.run_slices_per_simsec", perSim(kinds[event.KindRunSlice]), "1/simsec")
	rep.put("core.ns_per_ctxsw", simNs/ctxsw, "ns")
	count("tkernel.svc_per_simsec", perSim(kinds[event.KindSvcEnter]), "1/simsec")
	count("tkernel.ticks_per_simsec", perSim(ticks), "1/simsec")
	count("tkernel.timer_fires_per_simsec", perSim(kinds[event.KindTimerFire]), "1/simsec")
	count("tkernel.blocks_per_simsec", perSim(kinds[event.KindBlock]), "1/simsec")
	count("workload.activations_per_simsec", perSim(acts), "1/simsec")
	count("app.frames_per_simsec", perSim(frames), "1/simsec")
	total := 0.0
	for _, n := range kinds {
		total += n
	}
	count("event.events_per_simsec", perSim(total), "1/simsec")
	rep.put("event.ns_per_event", eventNs/events, "ns")
	rep.put("trace.ns_per_event", traceNs/events, "ns")
	count("trace.bytes_per_event", traceBytes/records, "B")
	rep.put("trace.close_ms", closeMs/nrep, "ms")
	rep.put("metrics.ns_per_event", metricsNs/events, "ns")
	rep.put("metrics.encode_ms", encodeMs/nrep, "ms")
	rep.put("run.build_ms", ms(build)/nrep, "ms")
	rep.put("run.simulate_ms", ms(simulate)/nrep, "ms")
	rep.put("run.harvest_ms", (closeMs+encodeMs)/nrep, "ms")
	rep.put("run.validate_us", perCallUs(func() { _ = run.Validate(specs[0]) }), "us")
	rep.put("run.hash_us", perCallUs(func() { _, _ = run.Hash(specs[0]) }), "us")

	if err := snapshotMirror(ctx, rep, c, tr); err != nil {
		rep.fail(fmt.Errorf("snapshot mirror: %w", err))
	}

	var runWall time.Duration
	for _, o := range outs {
		runWall += o.runWall
	}
	rep.put("sweep.worker_util", runWall.Seconds()/(wall.Seconds()*float64(r.workers())), "ratio")

	// Serving layers: the workload's own fleet, or a probe fleet serving
	// the replica specs (each submitted twice: a miss, then a hit).
	f, fouts := r.fleet(), outs
	if f == nil {
		f = startFleet(c.spool)
		defer f.close()
		fouts = nil
		for k := 0; k < 2*len(specs); k++ {
			spec := specs[k%len(specs)]
			if len(spec.Artifacts) == 0 {
				// First byte needs something to download.
				spec.Artifacts = []string{run.ArtifactMetrics}
			}
			js, err := json.Marshal(spec)
			if err != nil {
				rep.fail(err)
				return
			}
			j, err := f.submit(ctx, js, "", spec.Artifacts, tr, tidProbe, k)
			o := jobOutcome(j, err)
			o.id = j.view.ID
			if o.err != nil {
				rep.fail(fmt.Errorf("probe job %d: %w", k, o.err))
				return
			}
			fouts = append(fouts, o)
		}
	}
	if err := fleetLayers(ctx, rep, f, fouts); err != nil {
		rep.fail(err)
	}

	results := map[string]run.Result{}
	for _, rp := range reps {
		if h, err := run.Hash(rp.spec); err == nil {
			results[h] = rp.twin
		}
	}
	rep.put("cache.get_us", cacheGetUs(results), "us")
	largest := reps[0].traceBytes
	for _, rp := range reps {
		if len(rp.traceBytes) > len(largest) {
			largest = rp.traceBytes
		}
	}
	wr, rd, err := ringMiBps(ctx, largest, c.spool)
	if err != nil {
		rep.fail(err)
	}
	rep.put("stream.write_mib_per_s", wr, "MiB/s")
	rep.put("stream.read_mib_per_s", rd, "MiB/s")
}

// perCallUs times fn in batches and returns the median microseconds per
// call.
func perCallUs(fn func()) float64 {
	const batch, rounds = 200, 5
	var per []float64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, us(time.Since(t0))/batch)
	}
	return median(per)
}

// snapshotMirror mirrors one warm-sweep chunk with the snapshot layer
// called directly: simulate the sweep base to the fork point and capture
// it, then bring two variants to the fork point — by Fork when the capture
// succeeded, or by re-simulating the prefix, the fallback the sweep takes
// when the snapshot layer refuses the configuration.
func snapshotMirror(ctx context.Context, rep *Report, c config, tr *tracer) error {
	base, err := run.ParseSpec(sweepBase(c, 0))
	if err != nil {
		return err
	}
	ts, err := taskSetOf(ctx, base)
	if err != nil {
		return err
	}
	sys, err := buildSystem(base, ts, event.NewBus())
	if err != nil {
		return err
	}
	defer sys.shutdown()
	if err := sys.sim.StartContext(ctx, sweepPrefix.Sim()); err != nil {
		return err
	}
	snapSys := snapshot.System{Sim: sys.sim, Kernel: sys.k, Inst: sys.inst}
	t0 := time.Now()
	st, err := snapshot.Capture(snapSys)
	capture := time.Since(t0)
	tr.add("capture", "snapshot", tidProbe, 0, t0, t0.Add(capture))
	refused := errors.Is(err, snapshot.ErrUnsnapshottable)
	if err != nil && !refused {
		return err
	}
	seeds := forkSeeds()[:2]
	forks := 0
	t1 := time.Now()
	for _, seed := range seeds {
		if !refused {
			if err := snapshot.Fork(snapSys, st, seed); err != nil {
				return err
			}
			forks++
			continue
		}
		v, err := buildSystem(base, ts, event.NewBus())
		if err != nil {
			return err
		}
		err = v.sim.StartContext(ctx, sweepPrefix.Sim())
		v.inst.Reseed(seed)
		v.shutdown()
		if err != nil {
			return err
		}
	}
	fork := time.Since(t1)
	tr.add("fork", "snapshot", tidProbe, 0, t1, t1.Add(fork))
	refusals := 0.0
	if refused {
		refusals = 1
	}
	rep.put("snapshot.capture_ms", ms(capture), "ms")
	rep.put("snapshot.fork_ms", ms(fork)/float64(len(seeds)), "ms")
	rep.put("snapshot.fork_ratio", float64(forks)/float64(len(seeds)), "ratio")
	rep.put("snapshot.refusals", refusals, "count")
	rep.Counts["snapshot.fork_ratio"] = rep.Metrics["snapshot.fork_ratio"].Value
	rep.Counts["snapshot.refusals"] = refusals
	return nil
}

// fleetLayers reads the serving layers from the fleet's counters and the
// client-side timings of the jobs that went through it.
func fleetLayers(ctx context.Context, rep *Report, f *fleet, outs []outcome) error {
	var admit, first, runs, over []time.Duration
	lastID := ""
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		admit = append(admit, o.admit)
		first = append(first, o.firstByte)
		if o.simulated {
			runs = append(runs, o.runWall)
			over = append(over, o.lat-o.runWall)
		}
		lastID = o.id
	}
	p50 := func(ds []time.Duration) float64 { return quantile(sortedMs(ds), 0.5) }
	rep.put("server.admit_us", 1000*p50(admit), "us")
	rep.put("server.run_ms", p50(runs), "ms")
	rep.put("server.overhead_ms", p50(over), "ms")
	rep.put("stream.first_byte_ms", p50(first), "ms")
	rep.Samples["server.admit_us"] = fmt.Sprintf("p50 n=%d", len(admit))
	rep.Samples["server.run_ms"] = fmt.Sprintf("p50 n=%d", len(runs))

	v, err := f.varz(ctx)
	if err != nil {
		return err
	}
	t := v.Totals
	var evictions, waitMs, started float64
	for _, s := range v.Shards {
		if s.Cache != nil {
			evictions += float64(s.Cache.Evictions)
		}
		waitMs += s.Pool.QueueWaitAvgMS * float64(s.Pool.Completed)
		started += float64(s.Pool.Completed)
	}
	rep.put("server.queue_wait_ms", waitMs/started, "ms")
	// The hit ratio counts singleflight lookups only. Streamed submissions
	// (serve_stream) look the cache up without counting, and checkpoint
	// specs (the sweep's probe jobs) are not cacheable; with no counted
	// lookup the ratio reads 0.
	hits := 0.0
	if n := t.CacheHits + t.CacheMisses; n > 0 {
		hits = float64(t.CacheHits) / float64(n)
	}
	rep.put("cache.hit_ratio", hits, "ratio")
	rep.put("cache.coalesced_ratio", float64(t.JobsCoalesced)/float64(t.JobsSubmitted), "ratio")
	rep.put("cache.evictions", evictions, "count")
	rep.put("router.failovers", float64(t.Failovers), "count")
	if lastID == "" {
		return errors.New("no finished fleet job to time the router hop with")
	}
	hop, err := routerHopUs(f, lastID)
	if err != nil {
		return err
	}
	rep.put("router.hop_us", hop, "us")
	return nil
}

// routerHopUs times the same status GET through the router and directly
// against the owning shard, in process, and returns the median difference
// in microseconds.
func routerHopUs(f *fleet, id string) (float64, error) {
	shard := f.shard(id)
	if shard == nil {
		return 0, fmt.Errorf("router hop: no shard owns job %q", id)
	}
	const rounds = 400
	via, direct := make([]float64, 0, rounds), make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		for _, h := range []http.Handler{f.rt, shard} {
			req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+id, nil)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			d := us(time.Since(t0))
			if h == http.Handler(f.rt) {
				via = append(via, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	return median(via) - median(direct), nil
}

// cacheGetUs times cache hits against a cache holding the replicas'
// results, configured like a fleet shard's.
func cacheGetUs(results map[string]run.Result) float64 {
	c := cache.New(fleetCache)
	keys := make([]string, 0, len(results))
	for k, res := range results {
		c.Put(k, res)
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return math.NaN()
	}
	sort.Strings(keys)
	i := 0
	return perCallUs(func() {
		c.Get(keys[i%len(keys)])
		i++
	})
}

// ringMiBps replays a captured trace through a stream ring as the server's
// streaming path does — 32 KiB writes past the default window, then one
// sequential reader — and returns write and read throughput in MiB/s (the
// median of three replays).
func ringMiBps(ctx context.Context, data []byte, spool string) (float64, float64, error) {
	var ws, rs []float64
	mib := float64(len(data)) / (1 << 20)
	for k := 0; k < 3; k++ {
		ring := stream.NewRing(spool, 0)
		t0 := time.Now()
		for off := 0; off < len(data); off += 32 << 10 {
			if _, err := ring.Write(data[off:min(off+32<<10, len(data))]); err != nil {
				ring.Release()
				return 0, 0, err
			}
		}
		ring.Close(nil)
		t1 := time.Now()
		n, err := io.Copy(io.Discard, ring.Reader(ctx))
		t2 := time.Now()
		ring.Release()
		if err != nil {
			return 0, 0, err
		}
		if n != int64(len(data)) {
			return 0, 0, fmt.Errorf("ring replay read %d of %d bytes", n, len(data))
		}
		ws = append(ws, mib/t1.Sub(t0).Seconds())
		rs = append(rs, mib/t2.Sub(t1).Seconds())
	}
	return median(ws), median(rs), nil
}
