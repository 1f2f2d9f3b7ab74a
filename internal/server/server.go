// Package server is the simulation-as-a-service layer: a bounded HTTP/JSON
// job service over the run façade. Clients POST a run.Spec, poll the job,
// and download the artifacts the run produced; the server executes every
// job through run.Execute on a persistent sweep.Pool, so a Spec submitted
// over HTTP is built by exactly the code path the CLIs use and yields
// byte-identical artifacts.
//
// Determinism is exploited for scale: every spec is canonicalized to a
// content hash (run.Hash), completed results live in a bounded
// content-addressed cache, and identical in-flight submissions coalesce
// onto one simulation (singleflight) — N duplicate submissions cost one
// worker. A fleet of these servers behind internal/router behaves as one
// service, with the hash doubling as the shard-routing key.
//
// Capacity is explicit: a fixed worker count, a bounded submission queue,
// and a 429 + Retry-After rejection once the queue is full — the service
// never buffers unbounded work. Jobs are cancellable (DELETE) and
// deadline-bounded (Spec.Deadline, capped by Config.MaxJobTime), and
// Shutdown drains in-flight jobs before returning. All errors cross the
// wire as the structured envelope defined in api.go.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/run"
	"repro/internal/stream"
	"repro/internal/sweep"
)

// State is a job's lifecycle phase.
type State string

// Job states. A job is terminal in StateDone, StateFailed or
// StateCancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Retry hints: how long a rejected client should back off before
// resubmitting.
const (
	saturatedRetryAfter = 1 * time.Second
	drainingRetryAfter  = 5 * time.Second
)

// Config parameterizes the service.
type Config struct {
	// Name identifies this replica in a sharded fleet; when non-empty it
	// prefixes every job ID ("s0" -> "s0-j1") so the router can map an ID
	// back to its shard, and it is reported in /varz.
	Name string
	// Workers is the simulation pool size (default 1). Each worker runs one
	// job at a time.
	Workers int
	// Queue bounds the number of accepted-but-not-started jobs (default
	// 2*Workers). A full queue rejects submissions with 429.
	Queue int
	// MaxJobTime caps every job's wall-clock time; a Spec deadline may only
	// tighten it (0 = no cap).
	MaxJobTime time.Duration
	// MaxJobs bounds the number of retained job records; once exceeded the
	// oldest terminal jobs are evicted (default 1024).
	MaxJobs int
	// Cache bounds the content-addressed result cache (zero value: package
	// cache defaults).
	Cache cache.Config
	// DisableCache turns the result cache and singleflight dedupe off:
	// every submission simulates.
	DisableCache bool
	// StreamWindow bounds the in-memory bytes each streamed artifact keeps
	// (default stream.DefaultWindow); older bytes spill to disk.
	StreamWindow int
	// SpoolDir is where the artifact store streamed artifacts spill into
	// is made when Cache.Dir is empty (default: the OS temp dir). That
	// store is created on first use and removed by Shutdown.
	SpoolDir string
	// Execute overrides the run executor. Tests use it to substitute
	// controllable fakes; nil means run.Execute.
	Execute func(context.Context, run.Spec) (run.Result, error)
	// ExecuteStream overrides the streaming executor (nil: run.ExecuteStream).
	ExecuteStream func(context.Context, run.Spec, run.StreamOptions) (run.Result, error)
}

// Job is one submitted run and its outcome.
type Job struct {
	ID        string
	Spec      run.Spec
	Hash      string // canonical content hash of Spec ("" if unhashable)
	State     State
	Cached    bool   // served from the result cache
	Coalesced bool   // deduplicated onto an identical in-flight run
	Stream    bool   // streaming submission (Spec.Stream)
	ErrCode   string // terminal error code (failed/cancelled)
	Err       string // terminal error message
	Stats     run.Stats
	Artifacts map[string][]byte

	// streams holds the live (and, after completion, disk-backed) rings of
	// a streaming job's streamable artifacts; these names never appear in
	// Artifacts. events is the job's SSE feed.
	streams map[string]*stream.Ring
	events  *eventLog

	cancel context.CancelCauseFunc
	seq    uint64
}

// Server is the job service. Create with New, mount as an http.Handler,
// stop with Shutdown.
type Server struct {
	cfg   Config
	pool  *sweep.Pool
	cache *cache.Cache // nil when disabled
	mux   *http.ServeMux

	ctx        context.Context // base context of every job; cancelled by Shutdown(force)
	stop       context.CancelCauseFunc
	exec       func(context.Context, run.Spec) (run.Result, error)
	execStream func(context.Context, run.Spec, run.StreamOptions) (run.Result, error)

	mu       sync.Mutex
	jobs     map[string]*Job
	seq      uint64
	draining bool
	spool    string // the ephemeral artifact store, once made

	n Counters // varz counters
}

// New builds and starts the service: the worker pool is live and the
// handler ready to mount.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	s := &Server{
		cfg:        cfg,
		pool:       sweep.NewPool(cfg.Workers, cfg.Queue),
		jobs:       make(map[string]*Job),
		exec:       cfg.Execute,
		execStream: cfg.ExecuteStream,
	}
	if !cfg.DisableCache {
		s.cache = cache.New(cfg.Cache)
	}
	if s.exec == nil {
		s.exec = run.Execute
	}
	if s.execStream == nil {
		s.execStream = run.ExecuteStream
	}
	s.ctx, s.stop = context.WithCancelCause(context.Background())

	m := http.NewServeMux()
	m.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	m.HandleFunc("GET /api/v1/jobs", s.handleList)
	m.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	m.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	m.HandleFunc("GET /api/v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	m.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	m.HandleFunc("GET /healthz", s.handleHealthz)
	m.HandleFunc("GET /varz", s.handleVarz)
	s.mux = m
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown gracefully stops the service: admission closes immediately
// (submissions get 503 + Retry-After), queued and in-flight jobs run to
// completion, and Shutdown returns once the pool is idle. If ctx expires
// first, remaining jobs are cancelled at their next quiescent point and
// their completion is awaited before returning ctx's cause.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	err := s.pool.Drain(ctx)
	if err != nil {
		// Deadline hit: force-cancel whatever is still running, then wait
		// for the workers to wind down (cancellation lands at the next
		// quiescent point, so this is prompt).
		s.stop(fmt.Errorf("server: shutdown: %w", err))
		_ = s.pool.Drain(context.Background())
	}
	s.mu.Lock()
	if s.spool != "" {
		_ = os.RemoveAll(s.spool)
	}
	s.mu.Unlock()
	return err
}

// storeDirLocked returns the artifact store: Cache.Dir, or this server's
// ephemeral store under SpoolDir. Caller holds s.mu.
func (s *Server) storeDirLocked() (string, error) {
	if s.cfg.Cache.Dir != "" {
		return s.cfg.Cache.Dir, nil
	}
	var err error
	if s.spool == "" {
		s.spool, err = os.MkdirTemp(s.cfg.SpoolDir, "rtk-store-*")
	}
	return s.spool, err
}

// --- job lifecycle ---

// maxSubmitBody bounds a submission body. Sized for specs carrying a
// checkpoint resume_from payload (a base64 snapshot of a full task set's
// kernel state), not just hand-written JSON.
const maxSubmitBody = 4 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec run.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Sprintf("bad spec: %v", err), 0)
		return
	}
	if err := run.Validate(spec); err != nil {
		WriteError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error(), 0)
		return
	}
	hash, err := run.Hash(spec)
	if err != nil {
		// Validate passed, so this is a marshalling fault on our side; run
		// the job uncached rather than reject it.
		hash = ""
	}

	// A streaming submission needs something to stream; its rings are
	// built before the job record becomes visible, so that it is complete.
	streamable := run.StreamableArtifacts(spec)
	if spec.Stream && len(streamable) == 0 {
		WriteError(w, http.StatusBadRequest, CodeInvalidSpec,
			"stream: spec requests no streamable artifact (trace, metrics)", 0)
		return
	}

	s.mu.Lock()
	if s.draining {
		// Admission is closed outright during a drain — even for specs the
		// cache could answer — so a fleet router sees one consistent signal.
		s.n.JobsRejected++
		s.mu.Unlock()
		WriteError(w, http.StatusServiceUnavailable, CodeDraining, "server shutting down", drainingRetryAfter)
		return
	}
	var rings map[string]*stream.Ring
	if spec.Stream {
		dir, err := s.storeDirLocked()
		if err != nil {
			s.mu.Unlock()
			WriteError(w, http.StatusInternalServerError, CodeInternal, "artifact store: "+err.Error(), 0)
			return
		}
		rings = make(map[string]*stream.Ring, len(streamable))
		for _, name := range streamable {
			rings[name] = stream.NewRing(dir, s.cfg.StreamWindow)
		}
	}
	s.seq++
	job := &Job{
		ID:      s.jobID(s.seq),
		Spec:    spec,
		Hash:    hash,
		State:   StateQueued,
		Stream:  spec.Stream,
		streams: rings,
		events:  newEventLog(),
		seq:     s.seq,
	}
	jctx, cancel := context.WithCancelCause(s.ctx)
	job.cancel = cancel
	s.jobs[job.ID] = job
	s.evictLocked()
	s.mu.Unlock()

	if spec.Stream {
		s.submitStream(w, job, jctx)
		return
	}

	// Content-addressed serving: a completed identical spec answers from
	// cache, an in-flight identical spec absorbs this job as a follower
	// (singleflight), and only a genuinely new spec claims a worker.
	var flight *cache.Flight
	if s.cache != nil && hash != "" && run.Cacheable(spec) {
		hit, f, leader := s.cache.Begin(hash)
		switch {
		case f == nil: // hit
			s.finishFromCache(job, hit)
			s.respondAccepted(w, job)
			return
		case !leader: // follower: wait out the leader's run, off-pool
			s.mu.Lock()
			job.Coalesced = true
			s.n.JobsSubmitted++
			s.n.JobsCoalesced++
			view := viewOf(job)
			s.mu.Unlock()
			s.event(job, Event{Type: EventState, State: StateQueued})
			go s.waitCoalesced(job, jctx, f)
			s.respondAcceptedView(w, view)
			return
		default: // leader: simulate, then publish through the flight
			flight = f
		}
	}

	view, err := s.enqueue(job, func(int) { s.runJob(job, jctx, flight) })
	if err != nil {
		cancel(nil)
		if flight != nil {
			// Followers that joined between Begin and this failure must not
			// hang on a flight whose leader never ran.
			flight.Complete(run.Result{}, fmt.Errorf("leader admission failed: %w", err))
		}
		writeAdmissionError(w, err)
		return
	}
	s.respondAcceptedView(w, view)
}

// enqueue hands an admitted job to the pool and returns the view its 202
// reports. The view and the queued event are taken before TrySubmit: once
// the pool holds the job a worker may already have moved it to running, so
// only a view taken first is reliably the admission-time one. On rejection
// the job is dropped and counted.
func (s *Server) enqueue(job *Job, fn func(int)) (JobView, error) {
	s.mu.Lock()
	view := viewOf(job)
	s.mu.Unlock()
	s.event(job, Event{Type: EventState, State: StateQueued})
	err := s.pool.TrySubmit(fn)
	s.mu.Lock()
	if err != nil {
		delete(s.jobs, job.ID)
		s.n.JobsRejected++
	} else {
		s.n.JobsSubmitted++
		if job.Stream {
			s.n.StreamJobs++
		}
	}
	s.mu.Unlock()
	return view, err
}

// writeAdmissionError answers a submission the pool refused.
func writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, sweep.ErrSaturated):
		WriteError(w, http.StatusTooManyRequests, CodeSaturated, "queue full, retry later", saturatedRetryAfter)
	case errors.Is(err, sweep.ErrClosed):
		WriteError(w, http.StatusServiceUnavailable, CodeDraining, "server shutting down", drainingRetryAfter)
	default:
		WriteError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
	}
}

// submitStream admits a streaming job. It bypasses singleflight — every
// live feed needs its own run — but not the cache: a completed identical
// spec answers immediately (the hit's rings replace its unused ones), and a
// successful streamed run lands back in the cache as blobs, so streamed
// and buffered submissions of one spec stay one cache entry (Spec.Stream
// is erased by canonicalization).
func (s *Server) submitStream(w http.ResponseWriter, job *Job, jctx context.Context) {
	if s.cache != nil && job.Hash != "" && run.Cacheable(job.Spec) {
		if hit, ok := s.cache.Lookup(job.Hash); ok {
			s.finishFromCache(job, hit)
			s.respondAccepted(w, job)
			return
		}
	}
	view, err := s.enqueue(job, func(int) { s.runJob(job, jctx, nil) })
	if err != nil {
		job.cancel(nil)
		for _, ring := range job.streams {
			ring.Release()
		}
		writeAdmissionError(w, err)
		return
	}
	s.respondAcceptedView(w, view)
}

// jobID renders a sequence number as a wire ID, prefixed with the shard
// name when this replica is part of a fleet.
func (s *Server) jobID(seq uint64) string {
	id := "j" + strconv.FormatUint(seq, 10)
	if s.cfg.Name != "" {
		id = s.cfg.Name + "-" + id
	}
	return id
}

// finishFromCache completes a job synchronously from a cached result.
func (s *Server) finishFromCache(job *Job, hit cache.Hit) {
	job.cancel(nil)
	s.mu.Lock()
	job.State = StateDone
	job.Cached = true
	job.Stats = hit.Stats
	job.Artifacts = hit.Artifacts
	job.streams = hit.Rings
	s.n.JobsSubmitted++
	s.n.JobsCompleted++
	s.n.JobsFromCache++
	s.mu.Unlock()
	s.event(job, Event{Type: EventState, State: StateQueued})
	s.finishEvents(job)
}

// respondAccepted snapshots the job under the mutex and answers 202.
func (s *Server) respondAccepted(w http.ResponseWriter, job *Job) {
	s.mu.Lock()
	view := viewOf(job)
	s.mu.Unlock()
	s.respondAcceptedView(w, view)
}

func (s *Server) respondAcceptedView(w http.ResponseWriter, view JobView) {
	w.Header().Set("Location", "/api/v1/jobs/"+view.ID)
	WriteJSON(w, http.StatusAccepted, view)
}

// runJob executes one job on a pool worker. A non-nil flight makes this
// job the singleflight leader for its hash: the outcome is published to
// every coalesced follower, and a successful result enters the cache.
func (s *Server) runJob(job *Job, jctx context.Context, flight *cache.Flight) {
	defer job.cancel(nil)

	s.mu.Lock()
	if job.State == StateCancelled {
		// Cancelled while queued: never run.
		s.mu.Unlock()
		if flight != nil {
			flight.Complete(run.Result{}, errors.New("leader cancelled before start"))
		}
		return
	}
	job.State = StateRunning
	s.mu.Unlock()
	s.event(job, Event{Type: EventState, State: StateRunning})

	ctx := jctx
	if s.cfg.MaxJobTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.MaxJobTime)
		defer cancel()
	}
	var res run.Result
	var err error
	if job.Stream && len(job.streams) > 0 {
		res, err = s.runStreamed(ctx, job)
	} else {
		res, err = s.exec(ctx, job.Spec)
	}

	s.mu.Lock()
	job.Stats = res.Stats
	job.Artifacts = res.Artifacts
	switch {
	case err == nil:
		job.State = StateDone
		s.n.JobsCompleted++
	case jctx.Err() != nil && s.ctx.Err() == nil && !errors.Is(context.Cause(jctx), context.DeadlineExceeded):
		// Client-initiated cancel (DELETE).
		job.State = StateCancelled
		job.ErrCode = CodeCancelled
		job.Err = err.Error()
		s.n.JobsCancelled++
	default:
		job.State = StateFailed
		job.ErrCode = errorCodeOf(err.Error())
		job.Err = err.Error()
		s.n.JobsFailed++
	}
	s.mu.Unlock()
	if flight != nil {
		flight.Complete(res, err)
	}
	s.finishEvents(job)
}

// waitCoalesced parks a follower job on its leader's flight — no pool
// worker is consumed. The follower still honors its own deadline and
// cancellation while waiting; on success it shares the leader's result
// byte-for-byte (the determinism contract makes that indistinguishable
// from a fresh run).
func (s *Server) waitCoalesced(job *Job, jctx context.Context, flight *cache.Flight) {
	defer job.cancel(nil)
	ctx := jctx
	if s.cfg.MaxJobTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.MaxJobTime)
		defer cancel()
	}
	if d := job.Spec.Deadline; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.Std())
		defer cancel()
	}

	terminal := false
	select {
	case <-flight.Done():
		res, err := flight.Result()
		s.mu.Lock()
		if job.State == StateQueued {
			terminal = true
			job.Stats = res.Stats
			job.Artifacts = res.Artifacts
			if err == nil {
				job.State = StateDone
				s.n.JobsCompleted++
			} else {
				job.State = StateFailed
				job.ErrCode = errorCodeOf(err.Error())
				job.Err = "coalesced run: " + err.Error()
				s.n.JobsFailed++
			}
		}
		s.mu.Unlock()
	case <-ctx.Done():
		cause := context.Cause(ctx)
		s.mu.Lock()
		if job.State == StateQueued {
			terminal = true
			if jctx.Err() != nil && s.ctx.Err() == nil && !errors.Is(context.Cause(jctx), context.DeadlineExceeded) {
				job.State = StateCancelled
				job.ErrCode = CodeCancelled
				job.Err = cause.Error()
				s.n.JobsCancelled++
			} else {
				job.State = StateFailed
				job.ErrCode = errorCodeOf(cause.Error())
				job.Err = cause.Error()
				s.n.JobsFailed++
			}
		}
		s.mu.Unlock()
	}
	if terminal {
		s.finishEvents(job)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var view JobView
	if ok {
		view = viewOf(job)
	}
	s.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such job", 0)
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

// handleList serves the paginated job listing: ?state= filters, ?limit=
// bounds the page (default 100, max 1000), and ?cursor= resumes after the
// page whose next_cursor it came from. Jobs are ordered by submission.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q, apiErr := parseListQuery(r)
	if apiErr != nil {
		WriteError(w, http.StatusBadRequest, apiErr.Code, apiErr.Message, 0)
		return
	}

	s.mu.Lock()
	matching := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.seq > q.after && (q.state == "" || j.State == q.state) {
			matching = append(matching, j)
		}
	}
	sort.Slice(matching, func(i, k int) bool { return matching[i].seq < matching[k].seq })
	list := JobList{Jobs: make([]JobView, 0, min(len(matching), q.limit))}
	for i, j := range matching {
		if i == q.limit {
			list.NextCursor = strconv.FormatUint(matching[i-1].seq, 10)
			break
		}
		list.Jobs = append(list.Jobs, viewOf(j))
	}
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, list)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	finished := false
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	if ok {
		switch {
		case job.Coalesced && job.State == StateQueued:
			// The waiter goroutine owns the terminal transition.
			job.cancel(context.Canceled)
		case job.State == StateQueued:
			// The queued closure will observe the state and skip execution.
			job.State = StateCancelled
			job.ErrCode = CodeCancelled
			job.Err = "cancelled before start"
			s.n.JobsCancelled++
			finished = true
		case job.State == StateRunning:
			job.cancel(context.Canceled)
		}
	}
	var view JobView
	if ok {
		view = viewOf(job)
	}
	s.mu.Unlock()
	if finished {
		// Never-started rings would park live readers forever; end them.
		for _, ring := range job.streams {
			ring.Close(context.Canceled)
		}
		s.finishEvents(job)
	}
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such job", 0)
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

// handleArtifact serves one artifact with a strong ETag (the SHA-256 of
// the content) and honors If-None-Match with 304 — a polling client
// re-downloading a cached fleet's artifacts pays headers, not bodies.
// Ring-backed artifacts (streaming jobs) serve from their ring instead:
// finished ones identically to buffered bytes but with O(window) memory,
// live ones as a chunked stream when ?stream=1 is passed.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	live := r.URL.Query().Get("stream") != ""
	s.mu.Lock()
	job, ok := s.jobs[id]
	var state State
	var body []byte
	var have bool
	var ring *stream.Ring
	if ok {
		state = job.State
		body, have = job.Artifacts[name]
		ring = job.streams[name]
	}
	s.mu.Unlock()
	switch {
	case !ok:
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such job", 0)
	case ring != nil:
		s.serveRing(w, r, name, ring, live)
	case state == StateQueued || state == StateRunning:
		WriteError(w, http.StatusConflict, CodeConflict, "job not finished", 0)
	case !have:
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such artifact", 0)
	default:
		etag := etagOf(body)
		w.Header().Set("ETag", etag)
		if etagMatches(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", contentType(name))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	}
}

// evictLocked drops the oldest terminal jobs once the record table exceeds
// MaxJobs. Live (queued/running) jobs are never evicted.
func (s *Server) evictLocked() {
	over := len(s.jobs) - s.cfg.MaxJobs
	if over <= 0 {
		return
	}
	terminal := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		switch j.State {
		case StateDone, StateFailed, StateCancelled:
			terminal = append(terminal, j)
		}
	}
	sort.Slice(terminal, func(i, k int) bool { return terminal[i].seq < terminal[k].seq })
	for i := 0; i < len(terminal) && i < over; i++ {
		delete(s.jobs, terminal[i].ID)
		for _, ring := range terminal[i].streams {
			ring.Release()
		}
	}
}

// --- introspection ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Counters are the job and stream counters a shard's /varz reports and
// the router's totals sum.
type Counters struct {
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsRejected  uint64 `json:"jobs_rejected"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCancelled uint64 `json:"jobs_cancelled"`
	JobsFromCache uint64 `json:"jobs_from_cache"`
	JobsCoalesced uint64 `json:"jobs_coalesced"`
	// StreamJobs counts streaming submissions.
	StreamJobs uint64 `json:"stream_jobs"`
	// ArtifactStreamsServed counts live chunked artifact downloads
	// (?stream=1 feeds opened while the producing run was in flight).
	ArtifactStreamsServed uint64 `json:"artifact_streams_served"`
	// EventStreamsServed counts SSE feeds opened on /events.
	EventStreamsServed uint64 `json:"event_streams_served"`
}

// Add adds o's counts to c.
func (c *Counters) Add(o Counters) {
	c.JobsSubmitted += o.JobsSubmitted
	c.JobsRejected += o.JobsRejected
	c.JobsCompleted += o.JobsCompleted
	c.JobsFailed += o.JobsFailed
	c.JobsCancelled += o.JobsCancelled
	c.JobsFromCache += o.JobsFromCache
	c.JobsCoalesced += o.JobsCoalesced
	c.StreamJobs += o.StreamJobs
	c.ArtifactStreamsServed += o.ArtifactStreamsServed
	c.EventStreamsServed += o.EventStreamsServed
}

// Varz is the self-metrics document served at /varz.
type Varz struct {
	Name     string `json:"name,omitempty"`
	Workers  int    `json:"workers"`
	QueueCap int    `json:"queue_cap"`
	// QueueDepth is the number of accepted-but-not-started jobs — the
	// admission headroom signal that accompanies Retry-After.
	QueueDepth int  `json:"queue_depth"`
	InFlight   int  `json:"in_flight"`
	Draining   bool `json:"draining,omitempty"`

	Counters
	JobsRetained int `json:"jobs_retained"`

	Pool  sweep.PoolStats `json:"pool"`
	Cache *cache.Stats    `json:"cache,omitempty"`
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	v := Varz{
		Name:         s.cfg.Name,
		Workers:      s.cfg.Workers,
		QueueCap:     s.pool.Cap(),
		QueueDepth:   s.pool.Queued(),
		InFlight:     s.pool.InFlight(),
		Draining:     s.draining,
		Counters:     s.n,
		JobsRetained: len(s.jobs),
		Pool:         s.pool.Stats(),
	}
	s.mu.Unlock()
	if s.cache != nil {
		cs := s.cache.Stats()
		v.Cache = &cs
	}
	WriteJSON(w, http.StatusOK, v)
}

// --- helpers ---

// viewOf snapshots a job for the wire. Caller holds s.mu.
func viewOf(j *Job) JobView {
	v := JobView{
		ID:        j.ID,
		SpecHash:  j.Hash,
		State:     j.State,
		Cached:    j.Cached,
		Coalesced: j.Coalesced,
		Stream:    j.Stream,
		Spec:      j.Spec,
	}
	if j.Err != "" || j.ErrCode != "" {
		v.Error = &APIError{Code: j.ErrCode, Message: j.Err}
	}
	if j.State == StateDone || j.State == StateFailed {
		stats := j.Stats
		v.Stats = &stats
		v.Artifacts = artifactNames(j)
	}
	return v
}

// artifactNames lists a job's available artifacts — the buffered map plus
// the ring-backed streams. Caller holds s.mu.
func artifactNames(j *Job) []string {
	names := make([]string, 0, len(j.Artifacts)+len(j.streams))
	for name := range j.Artifacts {
		names = append(names, name)
	}
	for name := range j.streams {
		if _, dup := j.Artifacts[name]; !dup {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
