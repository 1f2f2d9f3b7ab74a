package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median. Each set-up re-runs a different one of the first ops (the kept,
// last one op 0), so the median reflects the workload rather than the cost
// of one input, and one slow set-up does not read as a regression.
const setupReps = 9

// digestOps is how many leading ops the workload digest covers. Runs are
// time-bounded, so later ops exist only on fast enough commits.
const digestOps = 8

// Metric is one reported measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is one workload run: the fields the last output line carries plus
// the detail results.json keeps.
type Report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Samples states how each latency was computed: percentile and n.
	Samples map[string]string `json:"samples,omitempty"`
	// Digest hashes the deterministic content of the first DigestOps ops;
	// two commits that simulate identically agree on it for one seed.
	Digest    string `json:"digest"`
	DigestOps int    `json:"digest_ops"`
	// Counts are the traced run's per-layer counts that must repeat
	// exactly for one seed and one commit's simulated behaviour.
	Counts map[string]float64 `json:"counts,omitempty"`
	Errors []string           `json:"errors,omitempty"`
}

func (r *Report) fail(err error) {
	r.Correct = false
	r.Errors = append(r.Errors, err.Error())
}

// minNominal floors a loop's nominal wall time for the abort rule: a very
// short budget (the smoke test's) is still at least one op long.
const minNominal = 2 * time.Second

// loop runs closed-loop clients over ops from, from+1, ...: with n > 0
// exactly n ops, otherwise until budget has elapsed (every client finishes
// the op it is in). A loop past five times its nominal wall time (budget)
// is aborted: ops in flight or not yet started then fail.
func loop(ctx context.Context, r runner, clients int, budget time.Duration, from, n int, tr *tracer) ([]outcome, time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, 5*max(budget, minNominal))
	defer cancel()
	var (
		next atomic.Int64
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if (n > 0 && k >= n) || (n <= 0 && k >= clients && time.Since(start) >= budget) {
					return
				}
				i := from + k
				o := r.op(ctx, i, tid, tr)
				o.index = i
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(outs, func(a, b int) bool { return outs[a].index < outs[b].index })
	return outs, time.Since(start)
}

// tally counts attempted and failed ops and keeps each failure's message.
func tally(rep *Report, outs []outcome) {
	rep.Attempted += len(outs)
	for _, o := range outs {
		if o.err != nil {
			rep.Failed++
			if len(rep.Errors) < 10 {
				rep.Errors = append(rep.Errors, fmt.Sprintf("op %d: %v", o.index, o.err))
			}
		}
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
}

// digest hashes the leading ops' digests in op order.
func digest(outs []outcome) (string, int) {
	h := sha256.New()
	n := 0
	for _, o := range outs {
		if o.index != n || o.err != nil || n == digestOps {
			break
		}
		h.Write(o.digest[:])
		n++
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// endToEnd computes the untraced run's metrics. Failed ops count in the
// report's failed total and never in a latency.
func endToEnd(rep *Report, outs []outcome, wall time.Duration, setups []time.Duration) {
	var lats []time.Duration
	simsec := 0.0
	for _, o := range outs {
		if o.err == nil {
			lats = append(lats, o.lat)
			simsec += o.simsec
		}
	}
	ms := sortedMs(lats)
	setup := make([]float64, len(setups))
	for i, d := range setups {
		setup[i] = d.Seconds()
	}
	rep.put("simsec_per_s", simsec/wall.Seconds(), "simsec/s")
	rep.put("op_p50_ms", quantile(ms, 0.5), "ms")
	rep.put("setup_s", median(setup), "s")
	rep.put("peak_rss_mib", peakRSSMiB(), "MiB")
	rep.Samples["op_p50_ms"] = fmt.Sprintf("p50 n=%d", len(ms))
	rep.Samples["setup_s"] = fmt.Sprintf("median of %d", len(setup))
	rep.Samples["simsec_per_s"] = fmt.Sprintf("%.1f simsec in %.2fs", simsec, wall.Seconds())
}

// put records a metric. A value that cannot be computed — no successful
// op, or a ratio over a zero denominator — fails the run rather than
// reading as a perfect 0; the report keeps 0 in its place so it stays
// valid JSON.
func (r *Report) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Errorf("metric %s cannot be computed on this workload (%g)", name, v))
		v = 0
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// peakRSSMiB is the process's peak resident set (VmHWM); NaN, which fails
// the run, when the kernel does not report it.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// setupTimed sets the workload up reps times, re-running ops reps-1..0,
// and keeps the last set-up.
func setupTimed(ctx context.Context, w workload, c config, reps int) (runner, []time.Duration, error) {
	var times []time.Duration
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		r, err := w.setup(ctx, c, reps-1-k)
		times = append(times, time.Since(t0))
		if err != nil {
			return nil, times, fmt.Errorf("setup: %w", err)
		}
		if k == reps-1 {
			return r, times, nil
		}
		r.close()
	}
	return nil, times, nil
}

// runWorkload performs one run: the untraced measurement, or with traced
// the per-layer run (an untraced half, the same ops again traced, then the
// layer probes). Both time ops from the same index, after a fixed count of
// untimed warm-up ops.
func runWorkload(ctx context.Context, w workload, c config, seconds float64, traced bool, out string) *Report {
	rep := &Report{Workload: w.name, Seed: c.seed, Seconds: seconds, Trace: traced, Correct: true,
		Metrics: map[string]Metric{}, Samples: map[string]string{}}
	budget := time.Duration(seconds * float64(time.Second))
	nWarm := warmupOps(w, c)
	reps := setupReps
	if traced {
		reps = 1 // the traced run reports no setup_s
	}
	r, setups, err := setupTimed(ctx, w, c, reps)
	if err != nil {
		rep.Attempted, rep.Failed = 1, 1
		rep.fail(err)
		return rep
	}
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	// The warm-up's nominal wall time, for the abort rule, is the run's.
	warm, _ := loop(ctx, r, w.clients, budget, 0, nWarm, nil)
	if !traced {
		outs, wall := loop(ctx, r, w.clients, budget, nWarm, 0, nil)
		all := append(warm, outs...)
		tally(rep, all)
		endToEnd(rep, outs, wall, setups)
		rep.Digest, rep.DigestOps = digest(all)
		return rep
	}

	plain, plainWall := loop(ctx, r, w.clients, budget/2, nWarm, 0, nil)
	all := append(warm, plain...)
	tally(rep, all)
	rep.Digest, rep.DigestOps = digest(all)
	var lats []time.Duration
	for _, o := range plain {
		if o.err == nil {
			lats = append(lats, o.lat)
		}
	}
	tailMs, tailLabel := tail(sortedMs(lats))
	rep.put("bench.op_tail_ms", tailMs, "ms")
	rep.Samples["bench.op_tail_ms"] = tailLabel
	if r.fleet() != nil {
		// The traced half replays the same ops, so it needs the same
		// starting state: a fresh fleet, set up and warmed identically.
		r.close()
		if r, err = w.setup(ctx, c, 0); err != nil {
			rep.fail(err)
			return rep
		}
		warm, _ = loop(ctx, r, w.clients, budget, 0, nWarm, nil)
		tally(rep, warm)
	}

	tr := newTracer()
	cpu := filepath.Join(out, w.name+".cpu.pprof")
	stop, err := startProfile(cpu)
	if err != nil {
		rep.fail(err)
		return rep
	}
	outs, wall := loop(ctx, r, w.clients, plainWall, nWarm, len(plain), tr)
	if err := stop(); err != nil {
		rep.fail(err)
	}
	tally(rep, outs)
	rep.put("bench.trace_overhead", wall.Seconds()/plainWall.Seconds()-1, "ratio")
	rep.Samples["bench.trace_overhead"] = fmt.Sprintf("%d ops: %.3fs traced vs %.3fs untraced", len(outs),
		wall.Seconds(), plainWall.Seconds())

	shares, err := selfShares(ctx, cpu)
	if err != nil {
		rep.fail(err)
	}
	for _, m := range shareModules {
		rep.put(m+".self_share", shares[m], "%")
	}
	perLayer(ctx, rep, w, c, r, outs, wall, tr)

	spans := filepath.Join(out, w.name+".spans.json")
	if err := tr.write(spans, w.name); err != nil {
		rep.fail(fmt.Errorf("spans: %w", err))
	} else if err := validateSpans(spans); err != nil {
		rep.fail(err)
	}
	return rep
}

// validateSpans checks that the span file parses as trace-event JSON.
func validateSpans(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if _, err := trace.ValidatePerfetto(bytes.NewReader(b)); err != nil {
		return fmt.Errorf("spans.json: %w", err)
	}
	return nil
}
