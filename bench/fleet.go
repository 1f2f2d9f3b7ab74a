package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/router"
	"repro/internal/server"
)

// Fleet topology: two shards of two workers behind the consistent-hash
// router. Two workers per shard rather than one: with one, hash collisions
// queue jobs behind each other and first-byte latency turns bimodal.
const (
	fleetShards  = 2
	fleetWorkers = 2
	// fleetMaxJobs bounds retained job records per shard. A closed-loop
	// client downloads its artifacts right after the terminal event, so a
	// small table suffices, and it bounds the memory held by finished
	// streamed jobs' rings.
	fleetMaxJobs = 32
)

// fleetCache keeps the result cache's entry bound at its default but caps
// its bytes, so the write-heavy workload evicts instead of growing the
// process by hundreds of MiB on a machine shared with other jobs.
var fleetCache = cache.Config{MaxEntries: cache.DefaultMaxEntries, MaxBytes: 16 << 20}

// fleet is an in-process rtkserve fleet reached over real HTTP through
// internal/client. Load comes from at most nproc client goroutines sharing
// a transport capped at nproc connections.
type fleet struct {
	shards []*server.Server
	rt     *router.Router
	ts     *httptest.Server
	tr     *http.Transport
	c      *client.Client
}

func startFleet(spool string) *fleet {
	f := &fleet{}
	var rs []router.Shard
	for i := 0; i < fleetShards; i++ {
		name := fmt.Sprintf("s%d", i)
		s := server.New(server.Config{
			Name: name, Workers: fleetWorkers, MaxJobs: fleetMaxJobs,
			Cache: fleetCache, SpoolDir: spool,
		})
		f.shards = append(f.shards, s)
		rs = append(rs, router.Shard{Name: name, Handler: s})
	}
	f.rt = router.New(rs, 0)
	f.ts = httptest.NewServer(f.rt)
	n := runtime.NumCPU()
	f.tr = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	f.c = client.New(f.ts.URL)
	f.c.HTTP = &http.Client{Transport: f.tr}
	// One attempt: a refusal (429/503) is a failed op, not a retry.
	f.c.SubmitAttempts = 1
	return f
}

func (f *fleet) close() {
	f.tr.CloseIdleConnections()
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range f.shards {
		_ = s.Shutdown(ctx) // a drain past the timeout cancels the leftovers; nothing to report
	}
}

// shard returns the replica that owns a job ID ("s1-j7" -> shard 1).
func (f *fleet) shard(id string) *server.Server {
	for i, s := range f.shards {
		if strings.HasPrefix(id, fmt.Sprintf("s%d-", i)) {
			return s
		}
	}
	return nil
}

// varz fetches the router's aggregate counters page.
func (f *fleet) varz(ctx context.Context) (router.Varz, error) {
	var v router.Varz
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.ts.URL+"/varz", nil)
	if err != nil {
		return v, err
	}
	resp, err := f.c.HTTP.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("varz: %s", resp.Status)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// job is one closed-loop submission as the client saw it.
type job struct {
	view      server.JobView      // the 202 document
	final     server.Event        // the terminal SSE event
	artifacts map[string][32]byte // SHA-256 of each downloaded artifact
	admit     time.Duration       // POST -> 202
	firstByte time.Duration       // POST -> first byte of the first artifact read
	done      time.Duration       // POST -> terminal SSE event
}

// submit runs one job the way a closed-loop caller does: POST, then (for a
// streamed spec) the live download of stream, then the SSE feed to its
// terminal event, then plain GETs of the remaining artifacts. Each request
// finishes before the next starts, so a client never holds two
// connections.
func (f *fleet) submit(ctx context.Context, spec []byte, stream string, get []string,
	tr *tracer, tid, op int) (job, error) {
	var j job
	t0 := time.Now()
	v, err := f.c.SubmitJSON(ctx, spec)
	t1 := time.Now()
	j.admit = t1.Sub(t0)
	tr.add("submit", "job", tid, op, t0, t1)
	if err != nil {
		return j, err
	}
	j.view = v
	j.artifacts = map[string][32]byte{}
	if stream != "" {
		rc, err := f.c.StreamArtifact(ctx, v.ID, stream)
		if err != nil {
			return j, fmt.Errorf("stream %s: %w", stream, err)
		}
		sum, first, err := hashTimed(rc)
		rc.Close()
		if err != nil {
			return j, fmt.Errorf("stream %s: %w", stream, err)
		}
		j.firstByte = first.Sub(t0)
		j.artifacts[stream] = sum
		tr.add("first_byte", "job", tid, op, t1, first)
		tr.add("stream", "job", tid, op, first, time.Now())
	}
	tw := time.Now()
	es, err := f.c.Events(ctx, v.ID, 0)
	if err != nil {
		return j, fmt.Errorf("events: %w", err)
	}
	for !j.final.Terminal {
		if j.final, err = es.Next(); err != nil {
			es.Close()
			return j, fmt.Errorf("events: %w", err)
		}
	}
	es.Close()
	td := time.Now()
	j.done = td.Sub(t0)
	tr.add("wait", "job", tid, op, tw, td)
	if j.final.State != server.StateDone {
		return j, fmt.Errorf("job %s ended %s (%v)", v.ID, j.final.State, j.final.Error)
	}
	for _, name := range get {
		rc, err := f.c.ArtifactReader(ctx, v.ID, name)
		if err != nil {
			return j, fmt.Errorf("get %s: %w", name, err)
		}
		sum, first, err := hashTimed(rc)
		rc.Close()
		if err != nil {
			return j, fmt.Errorf("get %s: %w", name, err)
		}
		if j.firstByte == 0 {
			j.firstByte = first.Sub(t0)
		}
		j.artifacts[name] = sum
	}
	tr.add("download", "job", tid, op, td, time.Now())
	tr.add("job", "op", tid, op, t0, time.Now())
	return j, nil
}

// hashTimed hashes r to EOF as the bytes arrive, holding none of them, and
// reports when the first byte came.
func hashTimed(r io.Reader) ([32]byte, time.Time, error) {
	var sum [32]byte
	var first time.Time
	h := sha256.New()
	buf := make([]byte, 32<<10)
	for {
		n, err := r.Read(buf)
		if n > 0 && first.IsZero() {
			first = time.Now()
		}
		h.Write(buf[:n])
		if errors.Is(err, io.EOF) {
			if first.IsZero() {
				first = time.Now()
			}
			h.Sum(sum[:0])
			return sum, first, nil
		}
		if err != nil {
			return sum, first, err
		}
	}
}

// jobOutcome turns a finished job into the loop's record: the job latency
// is POST -> terminal event, and the digest covers the terminal Stats and
// every downloaded artifact.
func jobOutcome(j job, err error) outcome {
	o := outcome{lat: j.done, admit: j.admit, firstByte: j.firstByte, err: err}
	if err != nil || j.final.Stats == nil {
		if o.err == nil {
			o.err = errors.New("terminal event without stats")
		}
		return o
	}
	st := *j.final.Stats
	o.simsec = time.Duration(st.SimTime).Seconds()
	if !j.view.Cached && !j.view.Coalesced {
		o.simulated = true
		o.runWall = time.Duration(st.Wall)
	}
	o.digest = digestOf(st, j.artifacts)
	return o
}
