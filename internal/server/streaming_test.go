package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/run"
)

// --- SSE wire helpers ---

// sseFrame is one decoded server-sent event.
type sseFrame struct {
	ID    uint64
	Event string
	Data  Event
}

// readSSE decodes frames from an open SSE body until limit frames have
// been read (0 = until EOF). It returns the decoded frames.
func readSSE(t *testing.T, body io.Reader, limit int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" {
				frames = append(frames, cur)
				if limit > 0 && len(frames) == limit {
					return frames
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseUint(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q", line)
			}
			cur.ID = n
		case strings.HasPrefix(line, "event: "):
			cur.Event = line[7:]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &cur.Data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	return frames
}

// openEvents opens the SSE feed for a job, optionally resuming.
func openEvents(t *testing.T, ts *httptest.Server, id string, lastEventID uint64) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/jobs/"+id+"/events", nil)
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("events feed: %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	return resp
}

// streamingExec is a controllable fake streaming executor: it writes the
// given chunks to the trace sink, pausing on gate between chunks when
// gate is non-nil, emits one progress snapshot per chunk, and returns
// when done is closed (or the context ends, returning its cause).
func streamingExec(chunks [][]byte, gate <-chan struct{}, done <-chan struct{}) func(context.Context, run.Spec, run.StreamOptions) (run.Result, error) {
	return func(ctx context.Context, spec run.Spec, o run.StreamOptions) (run.Result, error) {
		sink := o.Sinks[run.ArtifactTrace]
		for _, c := range chunks {
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return run.Result{}, context.Cause(ctx)
				}
			}
			if _, err := sink.Write(c); err != nil {
				return run.Result{}, err
			}
			if o.Progress != nil {
				o.Progress(run.Stats{Scenario: spec.Scenario, Jobs: 1})
			}
		}
		select {
		case <-done:
		case <-ctx.Done():
			return run.Result{}, context.Cause(ctx)
		}
		return run.Result{Stats: run.Stats{Scenario: spec.Scenario}, Artifacts: map[string][]byte{}}, nil
	}
}

const streamSpecBody = `{"dur":"60ms","seed":7,"artifacts":["trace.json","metrics.json","console.txt"],"stream":true}`
const bufferedSpecBody = `{"dur":"60ms","seed":7,"artifacts":["trace.json","metrics.json","console.txt"]}`

// TestStreamByteIdenticalOverHTTP runs the same spec buffered and
// streamed through the real executor and asserts every artifact crosses
// the wire byte-identical, with matching strong ETags.
func TestStreamByteIdenticalOverHTTP(t *testing.T) {
	s := New(Config{Workers: 2, DisableCache: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	bufID := submit(t, ts, bufferedSpecBody)
	if v := waitTerminal(t, ts, bufID); v.State != StateDone {
		t.Fatalf("buffered job: %s %v", v.State, v.Error)
	}

	strID := submit(t, ts, streamSpecBody)
	v := waitTerminal(t, ts, strID)
	if v.State != StateDone {
		t.Fatalf("streamed job: %s %v", v.State, v.Error)
	}
	if !v.Stream {
		t.Fatal("job view lost the stream flag")
	}
	if len(v.Artifacts) != 3 {
		t.Fatalf("streamed artifact listing: %v", v.Artifacts)
	}

	for _, name := range []string{run.ArtifactTrace, run.ArtifactMetrics, run.ArtifactConsole} {
		want := fetchArtifact(t, ts, bufID, name)
		got := fetchArtifact(t, ts, strID, name)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: streamed %d bytes != buffered %d bytes", name, len(got), len(want))
		}
		// ?stream=1 on a finished artifact serves the same bytes.
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + strID + "/artifacts/" + name + "?stream=1")
		if err != nil {
			t.Fatal(err)
		}
		live, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(live, want) {
			t.Errorf("%s: ?stream=1 served %d bytes, want %d", name, len(live), len(want))
		}
		if name == run.ArtifactConsole {
			continue // buffered artifact: ETag computed per request, same path
		}
		if et := resp.Header.Get("ETag"); et != etagOf(want) {
			t.Errorf("%s: ring ETag %s != buffered %s", name, et, etagOf(want))
		}
	}

	// Conditional revalidation against the ring's incremental ETag.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/jobs/"+strID+"/artifacts/trace.json", nil)
	req.Header.Set("If-None-Match", etagOf(fetchArtifact(t, ts, bufID, run.ArtifactTrace)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match on ring artifact: %d", resp.StatusCode)
	}
}

// TestStreamLiveChunked drives the live path with a controllable
// executor: the client receives the first chunk while the job is still
// running (streaming, not buffering), a plain GET still answers 409, and
// the finished stream carries no error trailer.
func TestStreamLiveChunked(t *testing.T) {
	gate := make(chan struct{})
	done := make(chan struct{})
	chunks := [][]byte{[]byte("alpha-"), []byte("beta-"), []byte("gamma")}
	s := New(Config{Workers: 1, ExecuteStream: streamingExec(chunks, gate, done)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submit(t, ts, `{"dur":"60ms","artifacts":["trace.json"],"stream":true}`)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/artifacts/trace.json?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live stream: %d", resp.StatusCode)
	}

	// First chunk arrives while the producer still runs.
	gate <- struct{}{}
	buf := make([]byte, 64)
	n, err := io.ReadAtLeast(resp.Body, buf, len(chunks[0]))
	if err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	if string(buf[:n]) != "alpha-" {
		t.Fatalf("first chunk %q", buf[:n])
	}

	// The job is verifiably still running — and a plain GET conflicts.
	if v := getJob(t, ts, id); v.State != StateRunning {
		t.Fatalf("state %s after first chunk", v.State)
	}
	pr, _ := http.Get(ts.URL + "/api/v1/jobs/" + id + "/artifacts/trace.json")
	pb, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	if pr.StatusCode != http.StatusConflict || errorCode(t, pb) != CodeConflict {
		t.Fatalf("plain GET mid-stream: %d %s", pr.StatusCode, pb)
	}

	// Release the rest and drain to EOF: full content, clean trailer.
	gate <- struct{}{}
	gate <- struct{}{}
	close(done)
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := string(buf[:n]) + string(rest); got != "alpha-beta-gamma" {
		t.Fatalf("full stream %q", got)
	}
	if tr := resp.Trailer.Get(TrailerStreamError); tr != "" {
		t.Fatalf("clean stream set error trailer %q", tr)
	}

	if v := waitTerminal(t, ts, id); v.State != StateDone {
		t.Fatalf("final state %s", v.State)
	}
}

// TestStreamCancelMidStream cancels a running streamed job and checks
// both feeds observe the same terminal: the artifact stream ends with the
// X-Stream-Error trailer and the SSE feed with a terminal cancelled
// state event.
func TestStreamCancelMidStream(t *testing.T) {
	gate := make(chan struct{})
	done := make(chan struct{}) // never closed: job ends only by cancel
	s := New(Config{Workers: 1, ExecuteStream: streamingExec([][]byte{[]byte("partial")}, gate, done)})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submit(t, ts, `{"dur":"60ms","artifacts":["trace.json"],"stream":true}`)
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/artifacts/trace.json?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ev := openEvents(t, ts, id, 0)
	defer ev.Body.Close()

	gate <- struct{}{}
	first := make([]byte, 16)
	n, err := io.ReadAtLeast(resp.Body, first, len("partial"))
	if err != nil {
		t.Fatalf("first bytes: %v", err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+id, nil)
	if dresp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		dresp.Body.Close()
	}

	rest, _ := io.ReadAll(resp.Body)
	if got := string(first[:n]) + string(rest); got != "partial" {
		t.Fatalf("cancelled stream content %q", got)
	}
	tr := resp.Trailer.Get(TrailerStreamError)
	if !strings.Contains(tr, CodeCancelled) {
		t.Fatalf("cancel trailer %q, want code %s", tr, CodeCancelled)
	}

	frames := readSSE(t, ev.Body, 0) // server closes the feed at terminal
	if len(frames) == 0 {
		t.Fatal("no SSE frames")
	}
	last := frames[len(frames)-1]
	if last.Event != EventState || !last.Data.Terminal || last.Data.State != StateCancelled {
		t.Fatalf("terminal frame %+v", last)
	}
	if v := getJob(t, ts, id); v.State != StateCancelled {
		t.Fatalf("job state %s", v.State)
	}
}

// TestSSEReconnectResume breaks an SSE feed mid-history and resumes with
// Last-Event-ID: the union of both connections is exactly the event
// sequence 1..N — no gaps, no duplicates.
func TestSSEReconnectResume(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submit(t, ts, streamSpecBody)
	if v := waitTerminal(t, ts, id); v.State != StateDone {
		t.Fatalf("job: %s %v", v.State, v.Error)
	}

	// First connection: read a prefix, then drop it.
	ev1 := openEvents(t, ts, id, 0)
	prefix := readSSE(t, ev1.Body, 3)
	ev1.Body.Close()
	if len(prefix) != 3 {
		t.Fatalf("prefix frames: %d", len(prefix))
	}

	// Resume from the last seen ID.
	ev2 := openEvents(t, ts, id, prefix[len(prefix)-1].ID)
	suffix := readSSE(t, ev2.Body, 0)
	ev2.Body.Close()

	all := append(prefix, suffix...)
	for i, f := range all {
		if f.ID != uint64(i)+1 {
			t.Fatalf("event %d has ID %d (gap or duplicate): %+v", i, f.ID, f)
		}
		if f.Data.JobID != id {
			t.Fatalf("event for wrong job: %+v", f)
		}
	}
	if first := all[0]; first.Event != EventState || first.Data.State != StateQueued {
		t.Fatalf("first event %+v", first)
	}
	last := all[len(all)-1]
	if last.Event != EventState || !last.Data.Terminal || last.Data.State != StateDone {
		t.Fatalf("terminal event %+v", last)
	}
	// The feed carried progress and artifact-ready events in between.
	kinds := map[string]int{}
	for _, f := range all {
		kinds[f.Event]++
	}
	if kinds[EventProgress] == 0 {
		t.Errorf("no progress events: %v", kinds)
	}
	if kinds[EventArtifact] != 3 {
		t.Errorf("artifact events: %v", kinds)
	}
}

// TestStreamCacheLanding checks a finished streamed run still feeds the
// content-addressed cache: an identical buffered submission afterwards is
// answered from cache with byte-identical artifacts.
func TestStreamCacheLanding(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	strID := submit(t, ts, streamSpecBody)
	if v := waitTerminal(t, ts, strID); v.State != StateDone {
		t.Fatalf("streamed job: %s %v", v.State, v.Error)
	}

	bufID := submit(t, ts, bufferedSpecBody)
	v := waitTerminal(t, ts, bufID)
	if v.State != StateDone || !v.Cached {
		t.Fatalf("buffered duplicate not served from cache: %+v", v)
	}
	for _, name := range []string{run.ArtifactTrace, run.ArtifactMetrics, run.ArtifactConsole} {
		if !bytes.Equal(fetchArtifact(t, ts, bufID, name), fetchArtifact(t, ts, strID, name)) {
			t.Errorf("%s: cached copy differs from streamed original", name)
		}
	}

	var vz Varz
	vresp, err := http.Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(vresp.Body).Decode(&vz); err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vz.StreamJobs != 1 || vz.JobsFromCache != 1 {
		t.Fatalf("varz: stream_jobs=%d from_cache=%d", vz.StreamJobs, vz.JobsFromCache)
	}

	// And the mirror image: a streamed duplicate of a cached spec answers
	// from cache, born terminal.
	str2 := submit(t, ts, streamSpecBody)
	v2 := getJob(t, ts, str2)
	if v2.State != StateDone || !v2.Cached {
		t.Fatalf("streamed duplicate not served from cache: %+v", v2)
	}
}

// TestStreamSubmitValidation covers the v3 rejection surface.
func TestStreamSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, body := range []string{
		// No streamable artifact requested.
		`{"dur":"50ms","artifacts":["console.txt"],"stream":true}`,
		// Scenario that cannot stream.
		`{"dur":"50ms","scenario":"experiments","artifacts":["report.txt"],"stream":true}`,
		// Stream and checkpoint are exclusive (run.Validate).
		`{"dur":"50ms","artifacts":["trace.json"],"stream":true,"checkpoint":{"at":"10ms"}}`,
	} {
		code, b, _ := postSpec(t, ts, body)
		if code != http.StatusBadRequest || errorCode(t, b) != CodeInvalidSpec {
			t.Errorf("spec %s: %d %s", body, code, b)
		}
	}

	// Events feed of an unknown job.
	resp, _ := http.Get(ts.URL + "/api/v1/jobs/zzz/events")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events of unknown job: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed Last-Event-ID.
	id := submit(t, ts, `{"dur":"50ms","artifacts":["console.txt"]}`)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", "abc")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed Last-Event-ID: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestEventsBufferedJob checks non-streaming jobs carry a coherent feed
// too: queued, running, artifact-ready, terminal done.
func TestEventsBufferedJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := submit(t, ts, `{"dur":"50ms","artifacts":["console.txt"]}`)
	ev := openEvents(t, ts, id, 0)
	frames := readSSE(t, ev.Body, 0)
	ev.Body.Close()

	var states []State
	for _, f := range frames {
		if f.Event == EventState {
			states = append(states, f.Data.State)
		}
	}
	want := []State{StateQueued, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("states %v", states)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states %v, want %v", states, want)
		}
	}
	if last := frames[len(frames)-1]; !last.Data.Terminal || last.Data.Stats == nil {
		t.Fatalf("terminal frame %+v", last)
	}
	// Late subscriber on a long-gone terminal job: full replay, instant close.
	start := time.Now()
	ev2 := openEvents(t, ts, id, 0)
	replay := readSSE(t, ev2.Body, 0)
	ev2.Body.Close()
	if len(replay) != len(frames) {
		t.Fatalf("replay %d frames, want %d", len(replay), len(frames))
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("terminal replay blocked")
	}
}
