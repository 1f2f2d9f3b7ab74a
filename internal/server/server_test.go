package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/run"
)

// postSpec submits a spec and returns the response status, body and
// headers.
func postSpec(t *testing.T, ts *httptest.Server, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header
}

// submit submits a spec expecting 202 and returns the job ID. A cache hit
// is born terminal, so both queued and done are acceptable on admission.
func submit(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	code, b, hdr := postSpec(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, b)
	}
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || (v.State != StateQueued && v.State != StateDone) {
		t.Fatalf("submit view: %+v", v)
	}
	if loc := hdr.Get("Location"); loc != "/api/v1/jobs/"+v.ID {
		t.Fatalf("Location header %q for job %s", loc, v.ID)
	}
	if v.SpecHash == "" {
		t.Fatalf("submit view missing spec_hash: %+v", v)
	}
	return v.ID
}

// errorCode decodes the structured error envelope of a non-2xx body.
func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an error envelope: %s", body)
	}
	if env.Error.Code == "" {
		t.Fatalf("envelope without code: %s", body)
	}
	return env.Error.Code
}

// getJob fetches a job's status view.
func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d: %s", id, resp.StatusCode, b)
	}
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitTerminal polls until the job leaves queued/running.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.State != StateQueued && v.State != StateRunning {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// fetchArtifact downloads one artifact of a finished job.
func fetchArtifact(t *testing.T, ts *httptest.Server, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s/%s: %d: %s", id, name, resp.StatusCode, b)
	}
	return b
}

// TestSubmitPollFetch is the happy path end to end with the real executor:
// submit a short videogame run, poll to completion, download artifacts.
func TestSubmitPollFetch(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submit(t, ts, `{"dur":"60ms","seed":7,"artifacts":["metrics.json","console.txt"]}`)
	v := waitTerminal(t, ts, id)
	if v.State != StateDone {
		t.Fatalf("state %s, err %v", v.State, v.Error)
	}
	if v.Stats == nil || v.Stats.Ticks == 0 {
		t.Fatalf("missing stats: %+v", v)
	}
	if len(v.Artifacts) != 2 {
		t.Fatalf("artifacts: %v", v.Artifacts)
	}
	m := fetchArtifact(t, ts, id, "metrics.json")
	if !json.Valid(m) {
		t.Fatalf("metrics not JSON: %.80s", m)
	}
	if c := fetchArtifact(t, ts, id, "console.txt"); !bytes.Contains(c, []byte("game:")) {
		t.Fatalf("console artifact: %.80s", c)
	}

	// Unknown artifact and unknown job.
	if resp, _ := http.Get(ts.URL + "/api/v1/jobs/" + id + "/artifacts/nope.txt"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown artifact: %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/api/v1/jobs/zzz"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

// TestSubmitValidation checks malformed and invalid specs fail with 400 at
// submission, before touching the pool.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, body := range []string{
		`{not json`,
		`{"bogus_field":1}`,
		`{"scenario":"warp"}`,
		`{"artifacts":["nope.bin"]}`,
		`{"scenario":"chaos","artifacts":["trace.json"]}`, // trace needs chaos.job
		`{"engine":"continuation"}`,                       // unknown field
	} {
		code, b, _ := postSpec(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("spec %s: status %d: %s", body, code, b)
			continue
		}
		if c := errorCode(t, b); c != CodeInvalidSpec {
			t.Errorf("spec %s: error code %q", body, c)
		}
	}
}

// blockingExec returns a fake executor that signals each start on started,
// then blocks until release is closed (or the job context ends).
func blockingExec(started chan<- string, release <-chan struct{}) func(context.Context, run.Spec) (run.Result, error) {
	return func(ctx context.Context, spec run.Spec) (run.Result, error) {
		if started != nil {
			started <- string(spec.Scenario)
		}
		select {
		case <-release:
			return run.Result{
				Stats:     run.Stats{Scenario: spec.Scenario, Jobs: 1},
				Artifacts: map[string][]byte{run.ArtifactSummary: []byte("ok\n")},
			}, nil
		case <-ctx.Done():
			return run.Result{}, context.Cause(ctx)
		}
	}
}

// TestBackpressure proves the acceptance scenario: 32 concurrent jobs on a
// 4-worker pool with a bounded queue are all accepted, the 33rd submission
// is rejected with 429 + Retry-After, and after the queue drains every
// accepted job completes.
func TestBackpressure(t *testing.T) {
	started := make(chan string, 64)
	release := make(chan struct{})
	s := New(Config{
		Workers: 4,
		Queue:   28, // 4 in flight + 28 queued = 32 concurrent jobs
		Execute: blockingExec(started, release),
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Distinct seeds keep every submission a distinct content hash — the
	// singleflight path is exercised by TestSingleflightDedupe, here we
	// want 32 genuinely independent jobs.
	spec := func(i int) string {
		return fmt.Sprintf(`{"scenario":"chaos","seed":%d,"artifacts":["summary.txt"]}`, i)
	}

	// Fill the workers first so the queue arithmetic below is exact.
	ids := make([]string, 0, 32)
	for i := 0; i < 4; i++ {
		ids = append(ids, submit(t, ts, spec(i)))
	}
	for i := 0; i < 4; i++ {
		<-started // all four workers are now busy
	}
	// Fill the bounded queue.
	for i := 0; i < 28; i++ {
		ids = append(ids, submit(t, ts, spec(4+i)))
	}

	// Past capacity: 429 with a Retry-After hint and a typed envelope.
	code, b, hdr := postSpec(t, ts, spec(99))
	if code != http.StatusTooManyRequests {
		t.Fatalf("33rd submission: status %d: %s", code, b)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if c := errorCode(t, b); c != CodeSaturated {
		t.Fatalf("429 error code %q", c)
	}

	// The rejection is visible in /varz.
	var v Varz
	resp, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.JobsSubmitted != 32 || v.JobsRejected != 1 || v.InFlight != 4 || v.QueueDepth != 28 {
		t.Fatalf("varz: %+v", v)
	}

	// Drain: every accepted job completes.
	close(release)
	for _, id := range ids {
		if v := waitTerminal(t, ts, id); v.State != StateDone {
			t.Fatalf("job %s: %s (%v)", id, v.State, v.Error)
		}
	}
}

// TestDeadlineExceeded submits a job whose Spec deadline is far shorter
// than its simulated duration: the run must stop at a quiescent point and
// the job must surface the deadline error.
func TestDeadlineExceeded(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submit(t, ts, `{"dur":"1h","deadline":"30ms"}`)
	v := waitTerminal(t, ts, id)
	if v.State != StateFailed {
		t.Fatalf("state %s", v.State)
	}
	if v.Error == nil || v.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("error %+v", v.Error)
	}
	if v.Stats == nil || v.Stats.SimTime.Std() >= time.Hour {
		t.Fatal("partial stats missing or not cut short")
	}
}

// TestCancelRunning cancels an in-flight job via DELETE.
func TestCancelRunning(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	s := New(Config{Workers: 1, Execute: blockingExec(started, release)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submit(t, ts, `{}`)
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := waitTerminal(t, ts, id); v.State != StateCancelled {
		t.Fatalf("state %s (%v)", v.State, v.Error)
	}
}

// TestGracefulShutdown proves the drain contract: Shutdown stops admission
// (503 for new submissions) while queued and in-flight jobs run to
// completion.
func TestGracefulShutdown(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := New(Config{Workers: 2, Queue: 2, Execute: blockingExec(started, release)})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := func(i int) string {
		return fmt.Sprintf(`{"scenario":"chaos","seed":%d,"artifacts":["summary.txt"]}`, i)
	}
	ids := []string{submit(t, ts, spec(0)), submit(t, ts, spec(1))}
	<-started
	<-started
	ids = append(ids, submit(t, ts, spec(2)), submit(t, ts, spec(3))) // queued

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	// Admission is closed while the drain is in progress, and the 503
	// carries a Retry-After hint plus the typed draining envelope — the
	// satellite fix: saturation is not the only backpressure that says
	// when to come back.
	waitClosed := time.Now().Add(5 * time.Second)
	for i := 100; ; i++ {
		code, b, hdr := postSpec(t, ts, spec(i))
		if code == http.StatusServiceUnavailable {
			if hdr.Get("Retry-After") == "" {
				t.Fatal("drain 503 without Retry-After")
			}
			if c := errorCode(t, b); c != CodeDraining {
				t.Fatalf("drain 503 error code %q", c)
			}
			break
		}
		if time.Now().After(waitClosed) {
			t.Fatalf("admission never closed: last status %d", code)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("shutdown returned before drain: %v", err)
	default:
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Every accepted job completed; records are still queryable.
	for _, id := range ids {
		if v := getJob(t, ts, id); v.State != StateDone {
			t.Fatalf("job %s: %s (%v)", id, v.State, v.Error)
		}
	}
}

// TestShutdownDeadlineForcesCancel: a drain whose context expires cancels
// the stragglers instead of hanging.
func TestShutdownDeadlineForcesCancel(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{}) // never closed: the job only ends via ctx
	s := New(Config{Workers: 1, Execute: blockingExec(started, release)})
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submit(t, ts, `{}`)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("expired drain reported success")
	}
	if v := getJob(t, ts, id); v.State != StateFailed {
		t.Fatalf("straggler state %s", v.State)
	}
}

// TestDeterminismHTTPvsCLI is the façade's cross-transport contract: a
// fixed-seed Spec produces byte-identical trace and metrics artifacts
// whether executed directly (the CLI path) or through the job server.
func TestDeterminismHTTPvsCLI(t *testing.T) {
	spec := run.Spec{
		Dur:       run.Duration(100 * time.Millisecond),
		Seed:      42,
		Artifacts: []string{run.ArtifactTrace, run.ArtifactMetrics, run.ArtifactGantt},
	}
	direct, err := run.Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, _ := json.Marshal(spec)
	id := submit(t, ts, string(body))
	v := waitTerminal(t, ts, id)
	if v.State != StateDone {
		t.Fatalf("state %s (%v)", v.State, v.Error)
	}
	for _, name := range spec.Artifacts {
		got := fetchArtifact(t, ts, id, name)
		want := direct.Artifacts[name]
		if len(want) == 0 {
			t.Fatalf("%s: empty direct artifact", name)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: HTTP and direct bytes differ (%d vs %d)", name, len(got), len(want))
		}
	}
	// The deterministic stats digest matches too.
	if v.Stats.Frames != direct.Stats.Frames || v.Stats.CtxSwitches != direct.Stats.CtxSwitches {
		t.Fatalf("stats digest differs: %+v vs %+v", v.Stats, direct.Stats)
	}
}

// TestHealthzVarz smoke-tests the introspection endpoints.
func TestHealthzVarz(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}

	var v Varz
	resp, err = http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.Workers != 1 || v.QueueCap != 2 {
		t.Fatalf("varz: %+v", v)
	}
}

// TestJobEviction checks the record table stays bounded: terminal jobs are
// evicted oldest-first once MaxJobs is exceeded.
func TestJobEviction(t *testing.T) {
	release := make(chan struct{})
	close(release) // jobs complete immediately
	s := New(Config{Workers: 1, MaxJobs: 4, Execute: blockingExec(nil, release)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	var last string
	for i := 0; i < 8; i++ {
		last = submit(t, ts, `{}`)
		waitTerminal(t, ts, last)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) > 4 {
		t.Fatalf("retained %d records", len(list.Jobs))
	}
	found := false
	for _, j := range list.Jobs {
		if j.ID == last {
			found = true
		}
	}
	if !found {
		t.Fatalf("newest job evicted: %v", list.Jobs)
	}
	// The first job is gone.
	if resp, _ := http.Get(ts.URL + "/api/v1/jobs/j1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest job survived eviction: %d", resp.StatusCode)
	}
}
