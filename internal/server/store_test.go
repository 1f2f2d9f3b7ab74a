package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/run"
)

const (
	traceOnlyStream   = `{"dur":"60ms","artifacts":["trace.json"],"stream":true}`
	traceOnlyBuffered = `{"dur":"60ms","artifacts":["trace.json"]}`
)

// fetchWithETag downloads one artifact and returns its bytes and ETag.
func fetchWithETag(t *testing.T, ts *httptest.Server, id, name string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s/%s: %d %v: %s", id, name, resp.StatusCode, err, b)
	}
	return b, resp.Header.Get("ETag")
}

// storeFiles lists the hash-named files of the ephemeral stores under
// spool.
func storeFiles(t *testing.T, spool string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(spool, "rtk-store-*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStreamLargerThanWindowCached streams an artifact sixteen times the
// window. It finishes cleanly, a buffered duplicate is answered from cache
// byte-identical under the same ETag, the store holds the blob named by
// that ETag's digest, and Shutdown removes the ephemeral store.
func TestStreamLargerThanWindowCached(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB
	done := make(chan struct{})
	close(done)
	spool := t.TempDir()
	s := New(Config{
		Workers:       1,
		SpoolDir:      spool,
		StreamWindow:  256,
		ExecuteStream: streamingExec([][]byte{payload}, nil, done),
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	strID := submit(t, ts, traceOnlyStream)
	if v := waitTerminal(t, ts, strID); v.State != StateDone {
		t.Fatalf("streamed job: %s %v", v.State, v.Error)
	}
	streamed, etag := fetchWithETag(t, ts, strID, run.ArtifactTrace)
	if !bytes.Equal(streamed, payload) {
		t.Fatalf("streamed %d bytes, want %d", len(streamed), len(payload))
	}

	bufID := submit(t, ts, traceOnlyBuffered)
	if v := waitTerminal(t, ts, bufID); v.State != StateDone || !v.Cached {
		t.Fatalf("buffered duplicate not served from cache: %+v", v)
	}
	cached, cachedTag := fetchWithETag(t, ts, bufID, run.ArtifactTrace)
	if !bytes.Equal(cached, payload) || cachedTag != etag || etag == "" {
		t.Fatalf("cached copy: %d bytes, ETag %s, want %d bytes under %s", len(cached), cachedTag, len(payload), etag)
	}
	files := storeFiles(t, spool)
	if len(files) != 1 || filepath.Base(files[0]) != strings.Trim(etag, `"`) {
		t.Fatalf("store holds %v, want one blob named by %s", files, etag)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(spool, "*")); len(left) != 0 {
		t.Fatalf("shutdown left %v", left)
	}
}

// TestMissingBlobResimulates deletes the blob behind a live cache entry:
// the buffered duplicate is a counted miss that simulates afresh, never a
// partial serve.
func TestMissingBlobResimulates(t *testing.T) {
	payload := bytes.Repeat([]byte("z"), 2048)
	done := make(chan struct{})
	close(done)
	var sims atomic.Int64
	spool := t.TempDir()
	s := New(Config{
		Workers:       1,
		SpoolDir:      spool,
		StreamWindow:  256,
		ExecuteStream: streamingExec([][]byte{payload}, nil, done),
		Execute: func(context.Context, run.Spec) (run.Result, error) {
			sims.Add(1)
			return run.Result{Artifacts: map[string][]byte{run.ArtifactTrace: payload}}, nil
		},
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	if v := waitTerminal(t, ts, submit(t, ts, traceOnlyStream)); v.State != StateDone {
		t.Fatalf("streamed job: %s %v", v.State, v.Error)
	}
	files := storeFiles(t, spool)
	if len(files) != 1 {
		t.Fatalf("store holds %v", files)
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}

	id := submit(t, ts, traceOnlyBuffered)
	if v := waitTerminal(t, ts, id); v.State != StateDone || v.Cached {
		t.Fatalf("duplicate over a lost blob: %+v", v)
	}
	if got := fetchArtifact(t, ts, id, run.ArtifactTrace); !bytes.Equal(got, payload) {
		t.Fatalf("re-simulated artifact: %d bytes", len(got))
	}
	if sims.Load() != 1 {
		t.Fatalf("%d simulations, want 1", sims.Load())
	}
	if v := getVarz(t, ts); v.Cache.DiskErrors != 1 {
		t.Fatalf("disk_errors = %d", v.Cache.DiskErrors)
	}
}

// TestUnusableStore points Cache.Dir at a regular file. Buffered jobs
// still complete, their evictions counted in disk_errors; a streamed job
// that must spill fails as execution_failed without hanging, its live
// reader getting the X-Stream-Error trailer and its SSE feed a terminal
// event.
func TestUnusableStore(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s := New(Config{
		Workers:      1,
		Cache:        cache.Config{MaxEntries: 1, Dir: file},
		StreamWindow: 256,
		Execute: func(_ context.Context, spec run.Spec) (run.Result, error) {
			return run.Result{Artifacts: map[string][]byte{run.ArtifactConsole: []byte(fmt.Sprint(spec.Seed))}}, nil
		},
		ExecuteStream: streamingExec([][]byte{[]byte("head"), bytes.Repeat([]byte("x"), 4096)}, gate, nil),
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, seed := range []string{"1", "2"} {
		if v := waitTerminal(t, ts, submit(t, ts, `{"seed":`+seed+`,"artifacts":["console.txt"]}`)); v.State != StateDone {
			t.Fatalf("buffered job on an unusable store: %s %v", v.State, v.Error)
		}
	}
	if v := getVarz(t, ts); v.Cache.DiskErrors == 0 || v.Cache.Evictions == 0 {
		t.Fatalf("eviction into an unusable store not counted: %+v", v.Cache)
	}

	id := submit(t, ts, traceOnlyStream)
	live, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/artifacts/trace.json?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Body.Close()
	ev := openEvents(t, ts, id, 0)
	defer ev.Body.Close()
	gate <- struct{}{} // "head" fits the window
	gate <- struct{}{} // the 4 KiB chunk must spill, and cannot

	got, _ := io.ReadAll(live.Body)
	if string(got) != "head" {
		t.Fatalf("live reader got %q", got)
	}
	if tr := live.Trailer.Get(TrailerStreamError); !strings.HasPrefix(tr, CodeExecutionFailed) {
		t.Fatalf("stream error trailer %q", tr)
	}
	frames := readSSE(t, ev.Body, 0)
	if len(frames) == 0 || !frames[len(frames)-1].Data.Terminal {
		t.Fatalf("SSE feed ended without a terminal event: %+v", frames)
	}
	v := waitTerminal(t, ts, id)
	if v.State != StateFailed || v.Error == nil || v.Error.Code != CodeExecutionFailed {
		t.Fatalf("streamed job on an unusable store: %+v", v)
	}
}

// openFDs counts this process's open descriptors (Linux only).
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// settles polls until f() <= want, failing after a few seconds.
func settles(t *testing.T, what string, want int, f func() int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d, baseline %d", what, f(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBlobDownloadDisconnect drops a client mid-download of a blob-backed
// cached artifact. Goroutines settle back to baseline, and once the job
// is evicted its blob's descriptor is closed too.
func TestBlobDownloadDisconnect(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<18) // 4 MiB
	done := make(chan struct{})
	close(done)
	s := New(Config{
		Workers:       1,
		MaxJobs:       1,
		SpoolDir:      t.TempDir(),
		ExecuteStream: streamingExec([][]byte{payload}, nil, done),
		Execute: func(context.Context, run.Spec) (run.Result, error) {
			return run.Result{Artifacts: map[string][]byte{run.ArtifactConsole: []byte("ok")}}, nil
		},
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	idle := func() {
		http.DefaultClient.CloseIdleConnections()
		ts.Client().CloseIdleConnections()
	}

	idle()
	goroutines := runtime.NumGoroutine()
	fds := -1
	if runtime.GOOS == "linux" {
		fds = openFDs(t)
	}

	if v := waitTerminal(t, ts, submit(t, ts, traceOnlyStream)); v.State != StateDone {
		t.Fatalf("streamed job: %s %v", v.State, v.Error)
	}
	id := submit(t, ts, traceOnlyBuffered) // evicts the streamed job
	if v := getJob(t, ts, id); !v.Cached {
		t.Fatalf("duplicate not cached: %+v", v)
	}

	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Get(ts.URL + "/api/v1/jobs/" + id + "/artifacts/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // mid-download: the connection drops
	tr.CloseIdleConnections()

	// A later job evicts the cached one, releasing its blob ring.
	waitTerminal(t, ts, submit(t, ts, `{"artifacts":["console.txt"]}`))
	idle()
	settles(t, "goroutines", goroutines, runtime.NumGoroutine)
	if fds >= 0 {
		settles(t, "open descriptors", fds, func() int { return openFDs(t) })
	}
}

// TestEventsDisconnectMidFeed drops a client that follows a running job's
// event feed after its first event. The feed's handler must notice the
// disconnect and return while the job still runs (no later event would
// wake it), and goroutines settle back to baseline once the job ends.
func TestEventsDisconnectMidFeed(t *testing.T) {
	done := make(chan struct{})
	s := New(Config{
		Workers:       1,
		DisableCache:  true,
		ExecuteStream: streamingExec(nil, nil, done),
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	release := sync.OnceFunc(func() { close(done) })
	defer release() // a failed check must not leave the job running
	// quiet drops idle client connections and waits for the goroutine
	// count to stop moving, so a baseline does not count connections that
	// are still winding down.
	quiet := func() int {
		http.DefaultClient.CloseIdleConnections()
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(20 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}

	baseline := quiet()
	id := submit(t, ts, traceOnlyStream)
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, ts, id).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	running := quiet()

	tr := &http.Transport{}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/jobs/"+id+"/events", nil)
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if frames := readSSE(t, resp.Body, 1); len(frames) != 1 {
		t.Fatalf("read %d events before disconnecting, want 1", len(frames))
	}
	resp.Body.Close() // mid-feed: the connection drops
	tr.CloseIdleConnections()
	settles(t, "goroutines after the disconnect, job still running", running, runtime.NumGoroutine)
	if v := getJob(t, ts, id); v.State != StateRunning {
		t.Fatalf("job %s before release; the feed must have been live", v.State)
	}

	release()
	if v := waitTerminal(t, ts, id); v.State != StateDone {
		t.Fatalf("job: %s %v", v.State, v.Error)
	}
	http.DefaultClient.CloseIdleConnections()
	settles(t, "goroutines", baseline, runtime.NumGoroutine)
}

// TestRestartServesKeptBlob streams a job into a persistent store, evicts
// it to disk, and restarts the server on the same directory: a buffered
// duplicate is answered from the predecessor's blobs, byte-identical and
// under the same ETags.
func TestRestartServesKeptBlob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Cache: cache.Config{MaxEntries: 1, Dir: dir}}
	names := []string{run.ArtifactTrace, run.ArtifactMetrics, run.ArtifactConsole}

	s1 := New(cfg)
	ts1 := httptest.NewServer(s1)
	strID := submit(t, ts1, streamSpecBody)
	if v := waitTerminal(t, ts1, strID); v.State != StateDone {
		t.Fatalf("streamed job: %s %v", v.State, v.Error)
	}
	want := map[string][]byte{}
	tags := map[string]string{}
	for _, name := range names {
		want[name], tags[name] = fetchWithETag(t, ts1, strID, name)
	}
	// A second spec evicts the streamed entry into an index on disk.
	if v := waitTerminal(t, ts1, submit(t, ts1, `{"dur":"20ms","artifacts":["console.txt"]}`)); v.State != StateDone {
		t.Fatalf("evicting job: %s %v", v.State, v.Error)
	}
	if v := getVarz(t, ts1); v.Cache.Spills != 1 {
		t.Fatalf("streamed entry not spilled: %+v", v.Cache)
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := New(cfg)
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	id := submit(t, ts2, bufferedSpecBody)
	if v := waitTerminal(t, ts2, id); v.State != StateDone || !v.Cached {
		t.Fatalf("duplicate after restart not cached: %+v", v)
	}
	for _, name := range names {
		got, tag := fetchWithETag(t, ts2, id, name)
		if !bytes.Equal(got, want[name]) || tag != tags[name] {
			t.Errorf("%s after restart: %d bytes under %s, want %d under %s",
				name, len(got), tag, len(want[name]), tags[name])
		}
	}
}

// TestUnusableSpoolDir points SpoolDir at a regular file, so the
// ephemeral store cannot be made: a streamed submission is refused with
// a 500 envelope, and buffered jobs, which never need the store, still
// complete.
func TestUnusableSpoolDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, SpoolDir: file, Execute: func(context.Context, run.Spec) (run.Result, error) {
		return run.Result{Artifacts: map[string][]byte{run.ArtifactConsole: []byte("ok")}}, nil
	}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, b, _ := postSpec(t, ts, traceOnlyStream); code != http.StatusInternalServerError || errorCode(t, b) != CodeInternal {
		t.Fatalf("streamed submission without a store: %d %s", code, b)
	}
	if v := waitTerminal(t, ts, submit(t, ts, `{"artifacts":["console.txt"]}`)); v.State != StateDone {
		t.Fatalf("buffered job: %s %v", v.State, v.Error)
	}
}
