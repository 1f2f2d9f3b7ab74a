package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/run"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// config is what every workload is built from: the input seed (op i uses
// seed+i), the scale of its set-up and warm-up (1, except in the smoke
// test), and the directory streamed artifacts spill to.
type config struct {
	seed  uint64
	scale float64
	spool string
}

// outcome is one op as the measurement loop records it.
type outcome struct {
	index     int
	id        string        // fleet job ID (fleet ops)
	lat       time.Duration // the façade call, or POST -> terminal SSE event
	admit     time.Duration // POST -> 202 (fleet ops)
	firstByte time.Duration // POST -> first artifact byte (fleet ops)
	simsec    float64       // simulated seconds the op delivered
	simulated bool          // a simulation ran for this op (not a cache hit or follower)
	runWall   time.Duration // host time the op's simulations took (Stats.Wall)
	digest    [32]byte      // deterministic content: Stats counts and artifact hashes
	err       error         // op error or failed correctness gate
}

// runner executes the ops of one set-up workload.
type runner interface {
	op(ctx context.Context, i, tid int, tr *tracer) outcome
	// workers is how many simulations can run at once (worker utilisation's
	// denominator).
	workers() int
	// fleet is the serving fleet the ops go through, nil for façade ops.
	fleet() *fleet
	close()
}

// workload is one benchmark input set. Why each exists is recorded in
// BENCHMARK.json and bench/README.md.
type workload struct {
	name    string
	clients int // closed-loop clients issuing ops
	// warmup is how many untimed ops run before timing starts (about a
	// second's worth), so heap growth, connection set-up and cache fill
	// settle first. A fixed count keeps the timed ops' indices, and so
	// their inputs, the same on a fast and a slow commit.
	warmup int
	// setup builds the workload and re-runs op check to prove it
	// reproduces the same bytes.
	setup func(ctx context.Context, c config, check int) (runner, error)
	// replicas are the specs the traced run rebuilds from layer
	// constructors: the first ops', so they repeat exactly per seed.
	replicas func(c config) ([]run.Spec, error)
}

var workloads = []workload{
	{name: "videogame", clients: 1, warmup: 10, setup: setupVideogame,
		replicas: opSpecs(videogameSpec, 2)},
	{name: "synthetic", clients: 1, warmup: 30, setup: setupSynthetic,
		replicas: opSpecs(syntheticSpec, 3)},
	{name: "sweep", clients: 1, warmup: 6, setup: setupSweep, replicas: sweepReplicas},
	{name: "serve_dedupe", clients: runtime.NumCPU(), warmup: 2000, setup: setupDedupe,
		replicas: opSpecs(func(c config, i int) []byte { spec, _ := dedupeSpec(c, i); return spec }, 4)},
	{name: "serve_stream", clients: runtime.NumCPU(), warmup: 40, setup: setupStream,
		replicas: opSpecs(streamSpec, 3)},
}

// warmupOps is the workload's untimed op count at the run's scale.
func warmupOps(w workload, c config) int { return max(1, int(float64(w.warmup)*c.scale)) }

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- specs: JSON built from the seed, no engine named, so every op runs
// what a default Spec runs ---

func videogameSpec(c config, i int) []byte {
	return []byte(fmt.Sprintf(`{"gui":false,"frame":"10ms","dur":"60s","seed":%d,"artifacts":["console.txt"]}`,
		c.seed+uint64(i)))
}

func syntheticSpec(c config, i int) []byte {
	return []byte(fmt.Sprintf(`{"scenario":"synthetic","dur":"5s","seed":%d,`+
		`"synthetic":{"gen":{"tasks":8,"util":0.7,"interrupts":2}},"artifacts":["metrics.json"]}`,
		c.seed+uint64(i)))
}

// Sweep shape: the synthetic default generator for 3 s, forked at 2.5 s
// into 16 variants over GOMAXPROCS workers. The prefix is five sixths of
// the run, so a working warm fork saves most of each variant; short ops
// let one run average over about a hundred generated task sets.
const (
	sweepPrefix   = run.Duration(2500 * time.Millisecond)
	sweepVariants = 16
)

func sweepBase(c config, i int) []byte {
	return []byte(fmt.Sprintf(`{"scenario":"synthetic","dur":"3s","seed":%d,"synthetic":{"gen":{}}}`,
		c.seed+uint64(i)))
}

func chaosSpec(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"scenario":"chaos","dur":"40ms","seed":%d,`+
		`"chaos":{"seeds":2,"tasks":4,"faults":3},"artifacts":["summary.txt"]}`, seed))
}

func streamSpec(c config, i int) []byte {
	return []byte(fmt.Sprintf(`{"scenario":"synthetic","dur":"1s","seed":%d,"stream":true,`+
		`"synthetic":{"gen":{"tasks":10,"util":0.7,"interrupts":2}},"artifacts":["trace.json","metrics.json"]}`,
		c.seed+uint64(i)))
}

// Read-heavy serving: a pre-warmed hot set, repeated with probability ¾.
const (
	hotSetSize = 256
	hotShare   = 0.75
	// hotSeedBase offsets hot-set seeds so no cold op (seed+i) reuses one.
	hotSeedBase = 1 << 40
)

func hotSize(c config) int { return max(4, int(hotSetSize*c.scale)) }

// dedupeSpec is op i's submission and the hot-set index it repeats (-1
// for a never-seen cold spec).
func dedupeSpec(c config, i int) ([]byte, int) {
	rng := sweep.NewRNG(c.seed + uint64(i))
	if rng.Float64() < hotShare {
		k := rng.Intn(hotSize(c))
		return chaosSpec(c.seed + hotSeedBase + uint64(k)), k
	}
	return chaosSpec(c.seed + uint64(i)), -1
}

// opSpecs lists the first n ops' specs.
func opSpecs(spec func(config, int) []byte, n int) func(config) ([]run.Spec, error) {
	return func(c config) ([]run.Spec, error) {
		var out []run.Spec
		for i := 0; i < n; i++ {
			s, err := run.ParseSpec(spec(c, i))
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
}

// forkSeeds are the sweep's variant seeds.
func forkSeeds() []uint64 {
	seeds := make([]uint64, sweepVariants)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// coldVariant is the per-variant cold spec a warm sweep must reproduce: the
// base paused at the prefix with its arrival streams reseeded.
func coldVariant(base run.Spec, seed uint64) run.Spec {
	s := seed
	base.Checkpoint = &run.CheckpointSpec{At: sweepPrefix, ForkSeed: &s}
	return base
}

// sweepReplicas rebuilds op 0's first two variants as cold specs.
func sweepReplicas(c config) ([]run.Spec, error) {
	base, err := run.ParseSpec(sweepBase(c, 0))
	if err != nil {
		return nil, err
	}
	seeds := forkSeeds()
	return []run.Spec{coldVariant(base, seeds[0]), coldVariant(base, seeds[1])}, nil
}

// --- digests ---

// hashes maps each artifact to its SHA-256.
func hashes(arts map[string][]byte) map[string][32]byte {
	out := make(map[string][32]byte, len(arts))
	for name, b := range arts {
		out[name] = sha256.Sum256(b)
	}
	return out
}

// digestOf hashes a result's deterministic content: its Stats counts (the
// wall-clock fields zeroed) and each artifact's name and SHA-256, in name
// order.
func digestOf(st run.Stats, arts map[string][32]byte) [32]byte {
	st.Wall, st.SimPerWall = 0, 0
	h := sha256.New()
	b, _ := json.Marshal(st) // plain numeric and string fields: cannot fail
	h.Write(b)
	names := make([]string, 0, len(arts))
	for name := range arts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sum := arts[name]
		h.Write([]byte(name))
		h.Write(sum[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// resultOutcome records a façade result.
func resultOutcome(res run.Result, err error) outcome {
	return outcome{
		simsec:    time.Duration(res.Stats.SimTime).Seconds(),
		simulated: true,
		runWall:   time.Duration(res.Stats.Wall),
		digest:    digestOf(res.Stats, hashes(res.Artifacts)),
		err:       err,
	}
}

// --- façade workloads ---

// simRunner runs ops through the run façade on the calling client.
type simRunner struct {
	width int
	do    func(ctx context.Context, i int) outcome
	check int      // the op set-up re-ran
	want  [32]byte // its digest
}

func (r *simRunner) op(ctx context.Context, i, tid int, tr *tracer) outcome {
	t0 := time.Now()
	o := r.do(ctx, i)
	t1 := time.Now()
	o.lat = t1.Sub(t0)
	tr.add("execute", "op", tid, i, t0, t1)
	if o.err == nil && i == r.check && o.digest != r.want {
		o.err = fmt.Errorf("op %d differs from its set-up run", i)
	}
	return o
}

func (r *simRunner) workers() int  { return r.width }
func (r *simRunner) fleet() *fleet { return nil }
func (r *simRunner) close()        {}

// reproduce runs op k twice: both runs must produce the same bytes.
func (r *simRunner) reproduce(ctx context.Context, k int) error {
	a := r.do(ctx, k)
	if a.err != nil {
		return fmt.Errorf("op %d: %w", k, a.err)
	}
	b := r.do(ctx, k)
	if b.err != nil {
		return fmt.Errorf("op %d re-run: %w", k, b.err)
	}
	if a.digest != b.digest {
		return fmt.Errorf("op %d re-run produced different bytes", k)
	}
	r.check, r.want = k, a.digest
	return nil
}

// execute parses a spec and runs it through the façade.
func execute(ctx context.Context, js []byte) (run.Spec, run.Result, error) {
	spec, err := run.ParseSpec(js)
	if err != nil {
		return spec, run.Result{}, err
	}
	res, err := run.Execute(ctx, spec)
	return spec, res, err
}

func setupVideogame(ctx context.Context, c config, check int) (runner, error) {
	r := &simRunner{width: 1, do: func(ctx context.Context, i int) outcome {
		spec, res, err := execute(ctx, videogameSpec(c, i))
		o := resultOutcome(res, err)
		switch {
		case o.err != nil:
		case res.Stats.SimTime != spec.Dur:
			o.err = fmt.Errorf("simulated %v of %v", res.Stats.SimTime, spec.Dur)
		case res.Stats.Frames == 0:
			o.err = errors.New("no LCD frames")
		}
		return o
	}}
	return r, r.reproduce(ctx, check)
}

func setupSynthetic(ctx context.Context, c config, check int) (runner, error) {
	r := &simRunner{width: 1, do: func(ctx context.Context, i int) outcome {
		_, res, err := execute(ctx, syntheticSpec(c, i))
		o := resultOutcome(res, err)
		var rep metrics.Report
		switch {
		case o.err != nil:
		case res.Stats.Activations == 0:
			o.err = errors.New("no task activations")
		default:
			if err := json.Unmarshal(res.Artifacts[run.ArtifactMetrics], &rep); err != nil {
				o.err = fmt.Errorf("metrics.json: %w", err)
			}
		}
		return o
	}}
	return r, r.reproduce(ctx, check)
}

// sweepOp runs op i's warm sweep.
func sweepOp(ctx context.Context, c config, i int) (run.Spec, []run.Result, error) {
	base, err := run.ParseSpec(sweepBase(c, i))
	if err != nil {
		return base, nil, err
	}
	res, err := run.ExecuteSweep(ctx, run.SweepSpec{Base: base, Prefix: sweepPrefix, Seeds: forkSeeds(), Warm: true})
	return base, res, err
}

// sweepOutcome records a sweep: every variant must simulate the base's
// duration, and the digest covers the variants in seed order.
func sweepOutcome(base run.Spec, res []run.Result, err error) outcome {
	o := outcome{simulated: true, err: err}
	if err == nil && len(res) != sweepVariants {
		o.err = fmt.Errorf("%d of %d variants", len(res), sweepVariants)
	}
	h := sha256.New()
	for k, v := range res {
		if o.err == nil && v.Stats.SimTime != base.Dur {
			o.err = fmt.Errorf("variant %d simulated %v of %v", k, v.Stats.SimTime, base.Dur)
		}
		o.simsec += time.Duration(v.Stats.SimTime).Seconds()
		o.runWall += time.Duration(v.Stats.Wall)
		d := digestOf(v.Stats, hashes(v.Artifacts))
		h.Write(d[:])
	}
	h.Sum(o.digest[:0])
	return o
}

func setupSweep(ctx context.Context, c config, check int) (runner, error) {
	r := &simRunner{width: runtime.GOMAXPROCS(0), do: func(ctx context.Context, i int) outcome {
		return sweepOutcome(sweepOp(ctx, c, i))
	}}
	// The set-up op twice, as simRunner.reproduce does, keeping the first
	// sweep's variants for the cold-run gate.
	base, res, err := sweepOp(ctx, c, check)
	a := sweepOutcome(base, res, err)
	if a.err != nil {
		return nil, fmt.Errorf("op %d: %w", check, a.err)
	}
	switch b := r.do(ctx, check); {
	case b.err != nil:
		return nil, fmt.Errorf("op %d re-run: %w", check, b.err)
	case b.digest != a.digest:
		return nil, fmt.Errorf("op %d re-run produced different bytes", check)
	}
	r.check, r.want = check, a.digest
	// Variant 0 must equal a cold run of its checkpoint spec.
	cold, err := run.Execute(ctx, coldVariant(base, forkSeeds()[0]))
	if err != nil {
		return nil, fmt.Errorf("cold variant 0: %w", err)
	}
	if digestOf(cold.Stats, hashes(cold.Artifacts)) != digestOf(res[0].Stats, hashes(res[0].Artifacts)) {
		return nil, errors.New("sweep variant 0 differs from its cold run")
	}
	return r, nil
}

// --- serving workloads ---

// fleetRunner submits ops to a fleet; submit performs op i and applies the
// workload's gates.
type fleetRunner struct {
	f      *fleet
	submit func(ctx context.Context, i, tid int, tr *tracer) outcome
	check  int      // the op set-up re-ran through the façade
	want   [32]byte // its digest
}

func (r *fleetRunner) op(ctx context.Context, i, tid int, tr *tracer) outcome {
	o := r.submit(ctx, i, tid, tr)
	if o.err == nil && i == r.check && o.digest != r.want {
		o.err = fmt.Errorf("op %d through the fleet differs from its façade run", i)
	}
	return o
}

func (r *fleetRunner) workers() int  { return fleetShards * fleetWorkers }
func (r *fleetRunner) fleet() *fleet { return r.f }
func (r *fleetRunner) close()        { r.f.close() }

// reproduce runs op k's spec through the façade twice: both runs must
// produce the same bytes, and the fleet's op k must too.
func (r *fleetRunner) reproduce(ctx context.Context, k int, js []byte) error {
	var first [32]byte
	for n := 0; n < 2; n++ {
		_, res, err := execute(ctx, js)
		if err != nil {
			return fmt.Errorf("op %d: %w", k, err)
		}
		d := digestOf(res.Stats, hashes(res.Artifacts))
		if n == 1 && d != first {
			return fmt.Errorf("op %d re-run produced different bytes", k)
		}
		first = d
	}
	r.check, r.want = k, first
	return nil
}

func setupDedupe(ctx context.Context, c config, check int) (runner, error) {
	f := startFleet(c.spool)
	hot := make([][32]byte, hotSize(c))
	r := &fleetRunner{f: f, submit: func(ctx context.Context, i, tid int, tr *tracer) outcome {
		spec, k := dedupeSpec(c, i)
		j, err := f.submit(ctx, spec, "", []string{run.ArtifactSummary}, tr, tid, i)
		o := jobOutcome(j, err)
		o.id = j.view.ID
		if o.err == nil && k >= 0 && j.artifacts[run.ArtifactSummary] != hot[k] {
			o.err = fmt.Errorf("hot spec %d: summary.txt differs from its first copy", k)
		}
		return o
	}}
	// Pre-warm the hot set, keeping each spec's first summary.txt to gate
	// every later repeat against.
	err := forEach(ctx, len(hot), runtime.NumCPU(), func(k int) error {
		j, err := f.submit(ctx, chaosSpec(c.seed+hotSeedBase+uint64(k)), "", []string{run.ArtifactSummary}, nil, 0, k)
		hot[k] = j.artifacts[run.ArtifactSummary]
		return err
	})
	if err == nil {
		spec, _ := dedupeSpec(c, check)
		err = r.reproduce(ctx, check, spec)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return r, nil
}

// traceCheckEvery: every 16th streamed job is also downloaded buffered.
const traceCheckEvery = 16

func setupStream(ctx context.Context, c config, check int) (runner, error) {
	f := startFleet(c.spool)
	r := &fleetRunner{f: f, submit: func(ctx context.Context, i, tid int, tr *tracer) outcome {
		j, err := f.submit(ctx, streamSpec(c, i), run.ArtifactTrace, []string{run.ArtifactMetrics}, tr, tid, i)
		o := jobOutcome(j, err)
		o.id = j.view.ID
		if o.err == nil && i%traceCheckEvery == 0 {
			o.err = checkTrace(ctx, f, j)
		}
		return o
	}}
	if err := r.reproduce(ctx, check, streamSpec(c, check)); err != nil {
		f.close()
		return nil, err
	}
	return r, nil
}

// checkTrace gates a streamed job: the streamed trace must equal the
// buffered GET of the finished job and pass the Perfetto schema check.
func checkTrace(ctx context.Context, f *fleet, j job) error {
	b, err := f.c.Artifact(ctx, j.view.ID, run.ArtifactTrace)
	if err != nil {
		return fmt.Errorf("buffered trace: %w", err)
	}
	if sha256.Sum256(b) != j.artifacts[run.ArtifactTrace] {
		return fmt.Errorf("streamed trace differs from the buffered GET (%d bytes)", len(b))
	}
	_, err = trace.ValidatePerfetto(bytes.NewReader(b))
	return err
}

// forEach runs fn(0..n-1) on at most width goroutines and returns the
// first error.
func forEach(ctx context.Context, n, width int, fn func(int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n || ctx.Err() != nil {
					return
				}
				if err := fn(k); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if first == nil {
		first = ctx.Err()
	}
	return first
}
