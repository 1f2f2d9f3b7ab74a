package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/run"
)

func getVarz(t *testing.T, ts *httptest.Server) Varz {
	t.Helper()
	resp, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v Varz
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCacheHitByteIdentical is the acceptance criterion: resubmitting an
// identical Spec — even spelled with its defaults materialized — is
// served from cache without simulating, and every artifact is
// byte-identical to the cold run's.
func TestCacheHitByteIdentical(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := `{"dur":"60ms","seed":11,"artifacts":["metrics.json","gantt.txt","console.txt"]}`
	cold := submit(t, ts, spec)
	cv := waitTerminal(t, ts, cold)
	if cv.State != StateDone || cv.Cached {
		t.Fatalf("cold run: %+v", cv)
	}

	// Same job, defaults spelled out and artifacts reordered: canonical
	// encoding must land it on the same hash.
	respelled := `{"scenario":"videogame","dur":"60ms","seed":11,"gui":true,"tickless":true,
		"frame":"10ms","tick":"1ms",
		"artifacts":["console.txt","gantt.txt","metrics.json"]}`
	warm := submit(t, ts, respelled)
	wv := waitTerminal(t, ts, warm)
	if wv.State != StateDone || !wv.Cached {
		t.Fatalf("warm run not served from cache: %+v", wv)
	}
	if wv.SpecHash != cv.SpecHash {
		t.Fatalf("canonical hash mismatch: %s vs %s", wv.SpecHash, cv.SpecHash)
	}

	for _, name := range []string{"metrics.json", "gantt.txt", "console.txt"} {
		a := fetchArtifact(t, ts, cold, name)
		b := fetchArtifact(t, ts, warm, name)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Fatalf("%s: cache hit differs from cold run (%d vs %d bytes)", name, len(a), len(b))
		}
	}
	// The deterministic stats digest rides along with the cached result.
	if wv.Stats == nil || cv.Stats == nil || wv.Stats.CtxSwitches != cv.Stats.CtxSwitches {
		t.Fatalf("stats digest differs: %+v vs %+v", wv.Stats, cv.Stats)
	}

	v := getVarz(t, ts)
	if v.JobsFromCache != 1 || v.Cache == nil || v.Cache.Hits != 1 {
		t.Fatalf("varz cache accounting: %+v cache=%+v", v, v.Cache)
	}
}

// blockingExecCounting builds a fake executor that counts invocations and
// blocks until release closes. Singleflight correctness is measured by the
// counter: N identical submissions must cost exactly one call.
func blockingExecCounting(calls *atomic.Int64, release <-chan struct{}) func(context.Context, run.Spec) (run.Result, error) {
	return func(ctx context.Context, spec run.Spec) (run.Result, error) {
		calls.Add(1)
		select {
		case <-release:
			return run.Result{
				Stats:     run.Stats{Scenario: spec.Scenario},
				Artifacts: map[string][]byte{"summary.txt": []byte("ok\n")},
			}, nil
		case <-ctx.Done():
			return run.Result{}, context.Cause(ctx)
		}
	}
}

// TestSingleflightDedupe is the acceptance criterion: 32 concurrent
// submissions of one identical Spec perform exactly one simulation — one
// leader on the pool, 31 followers parked off-pool — and every job ends
// done with the leader's result.
func TestSingleflightDedupe(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	s := New(Config{
		Workers: 1,
		Queue:   1, // deliberately tiny: followers must not consume queue slots
		Execute: blockingExecCounting(&calls, release),
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := `{"scenario":"chaos","seed":5,"artifacts":["summary.txt"]}`
	const n = 32
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, b, _ := postSpec(t, ts, spec)
			if code != http.StatusAccepted {
				errs <- fmt.Errorf("submission %d: status %d: %s", i, code, b)
				return
			}
			var v JobView
			if err := json.Unmarshal(b, &v); err != nil {
				errs <- err
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	close(release)
	coalesced := 0
	for _, id := range ids {
		v := waitTerminal(t, ts, id)
		if v.State != StateDone {
			t.Fatalf("job %s: %s (%v)", id, v.State, v.Error)
		}
		if v.Coalesced {
			coalesced++
		}
		if a := fetchArtifact(t, ts, id, "summary.txt"); string(a) != "ok\n" {
			t.Fatalf("job %s artifact: %q", id, a)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("executed %d simulations for %d identical submissions", got, n)
	}
	// Everyone but the leader (and any late cache hits) coalesced.
	v := getVarz(t, ts)
	if v.JobsCoalesced+v.JobsFromCache != n-1 {
		t.Fatalf("dedupe accounting: coalesced=%d from_cache=%d want %d total",
			v.JobsCoalesced, v.JobsFromCache, n-1)
	}
	if coalesced != int(v.JobsCoalesced) {
		t.Fatalf("job docs report %d coalesced, varz %d", coalesced, v.JobsCoalesced)
	}
}

// TestExperimentsNeverCached: the experiments scenario embeds wall-clock
// measurements, so identical submissions must each simulate.
func TestExperimentsNeverCached(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	s := New(Config{Workers: 1, Execute: blockingExecCounting(&calls, release)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := `{"scenario":"experiments","experiments":{"sections":["table1"]},"artifacts":["report.txt"]}`
	for i := 0; i < 3; i++ {
		waitTerminal(t, ts, submit(t, ts, spec))
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("experiments deduped: %d executions for 3 submissions", got)
	}
}

// TestCacheDisabled: DisableCache restores run-everything behavior.
func TestCacheDisabled(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	s := New(Config{Workers: 1, DisableCache: true, Execute: blockingExecCounting(&calls, release)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := `{"seed":3,"artifacts":[]}`
	for i := 0; i < 2; i++ {
		waitTerminal(t, ts, submit(t, ts, spec))
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("cache not disabled: %d executions", got)
	}
	if v := getVarz(t, ts); v.Cache != nil {
		t.Fatalf("varz reports a cache while disabled: %+v", v.Cache)
	}
}

// TestArtifactETag: artifact responses carry a strong content-hash ETag
// and honor If-None-Match with 304.
func TestArtifactETag(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submit(t, ts, `{"dur":"40ms","seed":2,"artifacts":["console.txt"]}`)
	waitTerminal(t, ts, id)

	url := ts.URL + "/api/v1/jobs/" + id + "/artifacts/console.txt"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("artifact GET: %d etag=%q", resp.StatusCode, etag)
	}
	if want := etagOf(body); etag != want {
		t.Fatalf("etag %q is not the content hash %q", etag, want)
	}

	// Conditional refetch: headers only.
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	nb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(nb) != 0 {
		t.Fatalf("If-None-Match: %d body=%d bytes", resp.StatusCode, len(nb))
	}
	// A stale tag still gets the body.
	req.Header.Set("If-None-Match", `"deadbeef"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(rb, body) {
		t.Fatalf("stale tag: %d, %d bytes", resp.StatusCode, len(rb))
	}
}

// TestListPagination: ?limit= pages with cursors, ?state= filters, and
// bad parameters get typed envelopes.
func TestListPagination(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	s := New(Config{Workers: 1, Execute: blockingExecCounting(&calls, release)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// 7 distinct jobs (distinct seeds), all terminal.
	for i := 0; i < 7; i++ {
		waitTerminal(t, ts, submit(t, ts, fmt.Sprintf(`{"seed":%d}`, i)))
	}

	page := func(query string) JobList {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %s: %d: %s", query, resp.StatusCode, b)
		}
		var l JobList
		if err := json.Unmarshal(b, &l); err != nil {
			t.Fatal(err)
		}
		return l
	}

	var all []string
	cursor := ""
	pages := 0
	for {
		q := "?limit=3"
		if cursor != "" {
			q += "&cursor=" + cursor
		}
		l := page(q)
		if len(l.Jobs) > 3 {
			t.Fatalf("page over limit: %d jobs", len(l.Jobs))
		}
		for _, j := range l.Jobs {
			all = append(all, j.ID)
		}
		pages++
		if l.NextCursor == "" {
			break
		}
		cursor = l.NextCursor
	}
	if len(all) != 7 || pages != 3 {
		t.Fatalf("walked %d jobs in %d pages: %v", len(all), pages, all)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] && len(all[i-1]) >= len(all[i]) {
			t.Fatalf("page order broken: %v", all)
		}
	}

	// State filter: everything is done.
	if l := page("?state=done"); len(l.Jobs) != 7 {
		t.Fatalf("state=done: %d jobs", len(l.Jobs))
	}
	if l := page("?state=running"); len(l.Jobs) != 0 {
		t.Fatalf("state=running: %d jobs", len(l.Jobs))
	}

	// Bad parameters: typed envelope.
	for _, q := range []string{"?state=warp", "?limit=0", "?limit=x", "?cursor=x"} {
		resp, err := http.Get(ts.URL + "/api/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("list %s: %d", q, resp.StatusCode)
		}
		if c := errorCode(t, b); c != CodeInvalidArgument {
			t.Fatalf("list %s: code %q", q, c)
		}
	}
}
