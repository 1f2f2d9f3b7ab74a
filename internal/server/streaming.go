package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"

	"repro/internal/run"
	"repro/internal/stream"
)

// This file is the bounded-memory artifact pipeline of the v3 jobs API. A
// submission with "stream": true runs through run.ExecuteStream with each
// streamable artifact (trace, metrics) attached to a stream.Ring: the
// exporters write into the ring from their bus subscribers as the
// simulation emits events, the ring keeps only a fixed window in memory
// (older bytes spill to a file in the artifact store), and GET
// .../artifacts/{name}?stream=1 serves the ring over chunked transfer
// while the job still runs. Server memory per streamed artifact is
// O(window), never O(trace).
//
// The determinism contract is preserved end to end: a streamed artifact
// is byte-identical to its buffered twin (same exporter, different
// io.Writer), Spec.Stream is erased by canonicalization so both
// submissions share one content hash, and a finished streamed result of
// any size lands in the result cache, its rings kept as content-addressed
// blobs — streaming changes transport, never content or identity.

// TrailerStreamError is the HTTP trailer a live artifact stream sets when
// the producing run fails mid-stream. Error envelopes need headers, and
// headers are gone once chunks flow — the trailer ("code: message") is
// the post-header error channel; a clean stream omits it.
const TrailerStreamError = "X-Stream-Error"

// runStreamed executes a streaming job: every pre-built ring becomes the
// sink for its artifact, progress snapshots feed the job's event log, and
// the rings end with the run's terminal status so every live reader
// observes the same end the job did. A successful, cacheable run's rings
// are kept as the blobs of its cache entry; any other ending unlinks them.
func (s *Server) runStreamed(ctx context.Context, job *Job) (run.Result, error) {
	sinks := make(run.Sinks, len(job.streams))
	for name, ring := range job.streams {
		sinks[name] = ring
	}
	res, err := s.execStream(ctx, job.Spec, run.StreamOptions{
		Sinks: sinks,
		Progress: func(st run.Stats) {
			stc := st
			s.event(job, Event{Type: EventProgress, Stats: &stc})
		},
	})
	if err == nil && s.cache != nil && job.Hash != "" && run.Cacheable(job.Spec) {
		s.cache.Keep(job.Hash, res, job.streams)
	} else {
		for _, ring := range job.streams {
			ring.Close(err)
		}
	}
	return res, err
}

// serveRing serves a ring-backed artifact. Finished rings serve like any
// buffered artifact — strong ETag (computed incrementally during the
// run), If-None-Match, Content-Length — except the bytes come from the
// window + spill file, so even the finished path is O(window) memory. A
// live ring requires ?stream=1 (a plain GET keeps the v2 "job not
// finished" conflict) and serves chunked with a flush per read, declaring
// the X-Stream-Error trailer for mid-stream failures.
func (s *Server) serveRing(w http.ResponseWriter, r *http.Request, name string, ring *stream.Ring, live bool) {
	if ring.Closed() {
		etag := ring.ETag()
		w.Header().Set("ETag", etag)
		if etagMatches(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", contentType(name))
		w.Header().Set("Content-Length", strconv.FormatInt(ring.Size(), 10))
		w.WriteHeader(http.StatusOK)
		_, _ = io.Copy(w, ring.Reader(r.Context()))
		return
	}
	if !live {
		WriteError(w, http.StatusConflict, CodeConflict, "job not finished; pass ?stream=1 to stream it live", 0)
		return
	}

	s.mu.Lock()
	s.n.ArtifactStreamsServed++
	s.mu.Unlock()

	w.Header().Set("Content-Type", contentType(name))
	w.Header().Set("Trailer", TrailerStreamError)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush()

	rd := ring.Reader(r.Context())
	buf := make([]byte, 32<<10)
	for {
		n, err := rd.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if rc.Flush() != nil {
				return
			}
		}
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			return // clean end: no trailer
		case r.Context().Err() != nil:
			return // client went away
		default:
			w.Header().Set(TrailerStreamError, errorCodeOf(err.Error())+": "+err.Error())
			return
		}
	}
}
