// Command serveload load-tests the rtkserve fleet in-process and records
// the serving metrics that matter for capacity planning: sustained jobs/s,
// admission latency percentiles, and the result-cache hit ratio under a
// duplicate-heavy workload. It is also a correctness harness: every
// duplicate submission's artifacts must be byte-identical to the first
// copy's, and the fleet must simulate each distinct Spec exactly once —
// the content-addressed cache and singleflight dedupe doing their job.
// All HTTP goes through internal/client, the same package external
// tooling uses, so the harness exercises the public client surface too.
//
//	go run ./cmd/serveload -shards 2 -workers 2 -jobs 24 -dup 4 \
//	    -out BENCH_serve.json
//
// With -baseline, the run additionally guards jobs/s against a previous
// report within a tolerance band (CI's throughput floor).
//
// With -stream, the run appends a streaming benchmark: one long-trace
// synthetic job executed buffered and then streamed (?stream=1 + SSE
// events), recording stream-to-first-byte latency and the peak live heap
// of each mode. Its gates are structural, not timing-banded: streamed and
// buffered bytes must be identical, the first streamed byte must arrive
// before the job finishes, and the streamed run's peak live heap must sit
// at least half a trace below the buffered run's — the buffered server
// retains O(trace), the streaming server only the spill window.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/router"
	"repro/internal/server"
)

// Report is the schema of BENCH_serve.json.
type Report struct {
	Shards    int `json:"shards"`
	Workers   int `json:"workers"`
	Distinct  int `json:"distinct_specs"`
	Duplicate int `json:"duplicates_per_spec"`
	Submitted int `json:"submissions"`

	// JobsPerSec is sustained throughput: submissions completed per
	// second of wall clock, duplicates included (they complete from
	// cache or by coalescing, which is the point of the design).
	JobsPerSec float64 `json:"jobs_per_sec"`
	// Admission latency: time from first POST attempt to 202, including
	// any 429 backoff.
	AdmissionP50MS float64 `json:"admission_p50_ms"`
	AdmissionP99MS float64 `json:"admission_p99_ms"`
	// CacheHitRatio is the fraction of submissions served without a
	// fresh simulation (cache hits + coalesced followers).
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// Simulations actually executed; correctness requires exactly one
	// per distinct Spec.
	Simulations uint64 `json:"simulations"`

	// Stream is the -stream benchmark section (absent without the flag).
	Stream *StreamReport `json:"stream,omitempty"`
}

// StreamReport records the streamed-vs-buffered memory and latency shape
// of one long-trace job. The live-heap peaks are sampled after forced GC,
// so they measure retained bytes, not allocation churn: both legs carry
// the same constant simulator state, and on top of it buffered retains
// the whole trace while streamed retains only the spill window.
type StreamReport struct {
	TraceBytes        int64   `json:"trace_bytes"`
	StreamWindowBytes int     `json:"stream_window_bytes"`
	FirstByteMS       float64 `json:"stream_first_byte_ms"`
	StreamJobMS       float64 `json:"stream_job_wall_ms"`
	BufferedJobMS     float64 `json:"buffered_job_wall_ms"`
	StreamPeakLive    uint64  `json:"stream_peak_live_bytes"`
	BufferedPeakLive  uint64  `json:"buffered_peak_live_bytes"`
	ByteIdentical     bool    `json:"byte_identical"`
}

func main() {
	shards := flag.Int("shards", 2, "in-process fleet size (1 = single replica, no router)")
	workers := flag.Int("workers", 2, "simulation workers per shard")
	queue := flag.Int("queue", 64, "submission queue depth per shard")
	jobs := flag.Int("jobs", 24, "distinct Specs in the workload")
	dup := flag.Int("dup", 4, "submissions per distinct Spec")
	conc := flag.Int("conc", 16, "concurrent submitting clients")
	stream := flag.Bool("stream", false, "append the streaming benchmark (long-trace job, buffered vs streamed)")
	out := flag.String("out", "BENCH_serve.json", "output JSON report")
	baseline := flag.String("baseline", "", "baseline report to guard jobs/s against")
	tolerance := flag.Float64("tolerance", 30, "allowed jobs/s regression below baseline, in percent")
	flag.Parse()

	rep, err := run(*shards, *workers, *queue, *jobs, *dup, *conc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
	if *stream {
		sr, err := streamBench()
		if err != nil {
			fmt.Fprintln(os.Stderr, "serveload: stream:", err)
			os.Exit(1)
		}
		rep.Stream = sr
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
	fmt.Printf("serveload: %.1f jobs/s, admission p50 %.2fms p99 %.2fms, cache hit ratio %.2f (%d sims for %d submissions)\n",
		rep.JobsPerSec, rep.AdmissionP50MS, rep.AdmissionP99MS, rep.CacheHitRatio, rep.Simulations, rep.Submitted)
	if rep.Stream != nil {
		s := rep.Stream
		fmt.Printf("serveload: stream: %.1f MiB trace, first byte %.1fms into a %.0fms job, live heap %.2f MiB streamed vs %.2f MiB buffered\n",
			float64(s.TraceBytes)/(1<<20), s.FirstByteMS, s.StreamJobMS,
			float64(s.StreamPeakLive)/(1<<20), float64(s.BufferedPeakLive)/(1<<20))
	}
	fmt.Fprintf(os.Stderr, "serveload: wrote %s\n", *out)

	if *baseline != "" {
		if err := guard(rep, *baseline, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "serveload:", err)
			os.Exit(1)
		}
	}
}

func run(shards, workers, queue, jobs, dup, conc int) (Report, error) {
	ctx := context.Background()
	// Build the fleet: real servers, real executor, in-process listener.
	var handler http.Handler
	var replicas []*server.Server
	mkShard := func(name string) *server.Server {
		s := server.New(server.Config{Name: name, Workers: workers, Queue: queue})
		replicas = append(replicas, s)
		return s
	}
	if shards > 1 {
		var rs []router.Shard
		for i := 0; i < shards; i++ {
			name := fmt.Sprintf("s%d", i)
			rs = append(rs, router.Shard{Name: name, Handler: mkShard(name)})
		}
		handler = router.New(rs, 0)
	} else {
		handler = mkShard("")
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	c := client.New(ts.URL)
	c.HTTP = ts.Client()
	c.SubmitAttempts = 4000

	// Workload: light chaos campaigns — deterministic, cacheable, a few
	// milliseconds of simulation each — every distinct seed repeated dup
	// times, shuffled so duplicates interleave and exercise both the
	// cache (late duplicates) and singleflight (concurrent ones).
	type submission struct {
		spec string
		seed int
	}
	var work []submission
	for seed := 0; seed < jobs; seed++ {
		spec := fmt.Sprintf(`{"scenario":"chaos","dur":"40ms","seed":%d,`+
			`"chaos":{"seeds":2,"tasks":4,"faults":3},"artifacts":["summary.txt"]}`, seed)
		for d := 0; d < dup; d++ {
			work = append(work, submission{spec, seed})
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })

	var (
		mu         sync.Mutex
		admissions []time.Duration
		idsBySeed  = make(map[int][]string)
		firstErr   error
	)
	start := time.Now()
	ch := make(chan submission)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ch {
				t0 := time.Now()
				v, err := c.SubmitJSON(ctx, []byte(s.spec))
				lat := time.Since(t0)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				admissions = append(admissions, lat)
				idsBySeed[s.seed] = append(idsBySeed[s.seed], v.ID)
				mu.Unlock()
			}
		}()
	}
	for _, s := range work {
		ch <- s
	}
	close(ch)
	wg.Wait()
	if firstErr != nil {
		return Report{}, firstErr
	}

	// Wait for every job to finish, then stop the clock: throughput is
	// submissions completed per wall second.
	for _, ids := range idsBySeed {
		for _, id := range ids {
			v, err := c.Wait(ctx, id, time.Millisecond)
			if err != nil {
				return Report{}, err
			}
			if v.State != server.StateDone {
				return Report{}, fmt.Errorf("job %s: %s (%v)", id, v.State, v.Error)
			}
		}
	}
	wall := time.Since(start)

	// Correctness gate 1: duplicates are byte-identical to their first copy.
	for seed, ids := range idsBySeed {
		var first []byte
		for i, id := range ids {
			b, err := c.Artifact(ctx, id, "summary.txt")
			if err != nil {
				return Report{}, err
			}
			if i == 0 {
				first = b
			} else if !bytes.Equal(first, b) {
				return Report{}, fmt.Errorf("seed %d: duplicate %s differs from first copy (%d vs %d bytes)",
					seed, id, len(first), len(b))
			}
		}
	}

	// Aggregate counters: single replica exposes server varz; the fleet
	// exposes the router's totals.
	submitted, deduped, sims, err := counters(ts.Client(), ts.URL, shards > 1)
	if err != nil {
		return Report{}, err
	}
	total := jobs * dup
	if submitted != uint64(total) {
		return Report{}, fmt.Errorf("fleet accepted %d of %d submissions", submitted, total)
	}
	// Correctness gate 2: exactly one simulation per distinct Spec.
	if sims != uint64(jobs) {
		return Report{}, fmt.Errorf("fleet ran %d simulations for %d distinct specs — cache/dedupe broken", sims, jobs)
	}

	sort.Slice(admissions, func(i, j int) bool { return admissions[i] < admissions[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(admissions)-1))
		return float64(admissions[i].Microseconds()) / 1000
	}
	rep := Report{
		Shards:         shards,
		Workers:        workers,
		Distinct:       jobs,
		Duplicate:      dup,
		Submitted:      total,
		JobsPerSec:     float64(total) / wall.Seconds(),
		AdmissionP50MS: pct(0.50),
		AdmissionP99MS: pct(0.99),
		CacheHitRatio:  float64(deduped) / float64(total),
		Simulations:    sims,
	}
	return rep, nil
}

// streamWindow is the spill window of the benchmark server, deliberately
// tiny next to the ~5 MiB trace so O(window) and O(trace) are two orders
// of magnitude apart.
const streamWindow = 64 << 10

// streamSpec is the long-trace job: a 4s synthetic sim producing a
// multi-MiB Perfetto trace in under 100ms of wall clock.
const streamSpec = `{"scenario":"synthetic","dur":"8s","seed":5,` +
	`"synthetic":{"gen":{"tasks":10,"util":0.7,"interrupts":2}},` +
	`"artifacts":["trace.json","metrics.json"]%s}`

// streamBench runs the long-trace job streamed and then buffered against
// a single replica with caching off, so the buffered duplicate really
// simulates and the streamed trace stays ring-backed — the O(1)-memory
// path under test.
func streamBench() (*StreamReport, error) {
	ctx := context.Background()
	srv := server.New(server.Config{
		Workers:      1,
		DisableCache: true,
		StreamWindow: streamWindow,
	})
	defer srv.Shutdown(ctx)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL)
	c.HTTP = ts.Client()

	rep := &StreamReport{StreamWindowBytes: streamWindow}

	// Streamed leg: submit, consume the live trace feed hashing
	// incrementally (the client stays O(1) too), then drive the SSE event
	// feed to its terminal frame.
	stopSample, heap0 := sampleLiveHeap()
	t0 := time.Now()
	v, err := c.SubmitJSON(ctx, []byte(fmt.Sprintf(streamSpec, `,"stream":true`)))
	if err != nil {
		return nil, err
	}
	rc, err := c.StreamArtifact(ctx, v.ID, "trace.json")
	if err != nil {
		return nil, err
	}
	sh := sha256.New()
	var streamedLen int64
	buf := make([]byte, 32<<10)
	first := true
	for {
		n, err := rc.Read(buf)
		if n > 0 {
			if first {
				rep.FirstByteMS = float64(time.Since(t0).Microseconds()) / 1000
				first = false
			}
			sh.Write(buf[:n])
			streamedLen += int64(n)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			rc.Close()
			return nil, fmt.Errorf("streamed read: %w", err)
		}
	}
	rc.Close()
	es, err := c.Events(ctx, v.ID, 0)
	if err != nil {
		return nil, err
	}
	var last server.Event
	for {
		e, err := es.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			es.Close()
			return nil, err
		}
		last = e
	}
	es.Close()
	if !last.Terminal || last.State != server.StateDone {
		return nil, fmt.Errorf("streamed job ended %s (%v)", last.State, last.Error)
	}
	rep.StreamJobMS = float64(time.Since(t0).Microseconds()) / 1000
	rep.StreamPeakLive = stopSample() - heap0

	// Buffered leg: same Spec without the stream flag, artifact hashed
	// through a reader so only the server holds the full trace.
	stopSample, heap0 = sampleLiveHeap()
	t1 := time.Now()
	bv, err := c.SubmitJSON(ctx, []byte(fmt.Sprintf(streamSpec, "")))
	if err != nil {
		return nil, err
	}
	if bv, err = c.Wait(ctx, bv.ID, time.Millisecond); err != nil {
		return nil, err
	}
	if bv.State != server.StateDone {
		return nil, fmt.Errorf("buffered job ended %s (%v)", bv.State, bv.Error)
	}
	rep.BufferedJobMS = float64(time.Since(t1).Microseconds()) / 1000
	brc, err := c.ArtifactReader(ctx, bv.ID, "trace.json")
	if err != nil {
		return nil, err
	}
	bh := sha256.New()
	bufferedLen, err := io.Copy(bh, brc)
	brc.Close()
	if err != nil {
		return nil, err
	}
	rep.BufferedPeakLive = stopSample() - heap0
	rep.TraceBytes = bufferedLen

	// Gates — all structural. Byte identity first: streaming must not
	// change a single byte of the deterministic artifact.
	rep.ByteIdentical = streamedLen == bufferedLen && bytes.Equal(sh.Sum(nil), bh.Sum(nil))
	if !rep.ByteIdentical {
		return nil, fmt.Errorf("streamed trace (%d bytes) != buffered trace (%d bytes)", streamedLen, bufferedLen)
	}
	if rep.FirstByteMS >= rep.StreamJobMS {
		return nil, fmt.Errorf("first streamed byte at %.1fms, after the job finished (%.1fms) — nothing streamed live",
			rep.FirstByteMS, rep.StreamJobMS)
	}
	if rep.TraceBytes < 16*streamWindow {
		return nil, fmt.Errorf("trace %d bytes is too small next to the %d-byte window to demonstrate O(1) memory",
			rep.TraceBytes, streamWindow)
	}
	// Memory shape. Both legs carry the same constant simulator state (a
	// few MiB regardless of Dur — measured flat from 4s to 8s), so the
	// O(trace)-vs-O(window) claim is about the artifact on top of it: the
	// buffered leg must retain the whole trace (the Result held in the job
	// table — its peak is at least the trace), and the streamed leg must
	// not (its peak stays at least half a trace below the buffered one).
	// Both gates are structural with wide margins, not timing bands.
	if rep.BufferedPeakLive < uint64(rep.TraceBytes)*3/4 {
		return nil, fmt.Errorf("buffered live heap grew only %d bytes for a %d-byte trace — measurement broken",
			rep.BufferedPeakLive, rep.TraceBytes)
	}
	if rep.StreamPeakLive+uint64(rep.TraceBytes)/2 > rep.BufferedPeakLive {
		return nil, fmt.Errorf("streamed live heap %d vs buffered %d for a %d-byte trace — streaming retained the trace",
			rep.StreamPeakLive, rep.BufferedPeakLive, rep.TraceBytes)
	}
	return rep, nil
}

// sampleLiveHeap samples peak live heap (HeapAlloc after forced GC) in
// the background until the returned stop function is called; stop
// returns the peak, and the second return is the post-GC baseline to
// subtract. Forcing GC each sample makes the number retained bytes —
// exactly the O(trace)-vs-O(window) quantity — rather than churn.
func sampleLiveHeap() (stop func() uint64, baseline uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline = ms.HeapAlloc
	peak := baseline
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
	}()
	return func() uint64 {
		close(done)
		<-finished
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		return peak
	}, baseline
}

// counters pulls (accepted submissions, deduped submissions, simulations
// run) from the fleet's varz.
func counters(hc *http.Client, base string, fleet bool) (submitted, deduped, sims uint64, err error) {
	resp, err := hc.Get(base + "/varz")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("varz: %d: %s", resp.StatusCode, body)
	}
	if fleet {
		var v router.Varz
		if err := json.Unmarshal(body, &v); err != nil {
			return 0, 0, 0, err
		}
		t := v.Totals
		return t.JobsSubmitted, t.JobsFromCache + t.JobsCoalesced,
			t.JobsSubmitted - t.JobsFromCache - t.JobsCoalesced, nil
	}
	var v server.Varz
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, 0, 0, err
	}
	return v.JobsSubmitted, v.JobsFromCache + v.JobsCoalesced,
		v.JobsSubmitted - v.JobsFromCache - v.JobsCoalesced, nil
}

// guard enforces the tolerance-banded throughput floor against a previous
// report. Correctness gates (identical duplicates, one sim per Spec,
// stream byte identity and memory shape) are unconditional in run() and
// streamBench(); this only bands the wall-clock metric.
func guard(rep Report, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	floor := base.JobsPerSec * (1 - tolerance/100)
	if rep.JobsPerSec < floor {
		return fmt.Errorf("regression: %.1f jobs/s, baseline %.1f (floor %.1f at -tolerance %g%%)",
			rep.JobsPerSec, base.JobsPerSec, floor, tolerance)
	}
	fmt.Fprintf(os.Stderr, "serveload: %.1f jobs/s vs baseline %.1f ok (floor %.1f)\n",
		rep.JobsPerSec, base.JobsPerSec, floor)
	return nil
}
