package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/run"
)

// This file is the live half of the v3 jobs API: every job carries an
// append-only event log — state transitions, periodic Stats progress,
// artifact-ready marks — and GET /api/v1/jobs/{id}/events serves it as
// Server-Sent Events. Event IDs are monotonic per job starting at 1, so a
// client that reconnects with Last-Event-ID resumes exactly where its
// previous feed broke: no gaps, no duplicates. The log is bounded by
// construction (a handful of state events, at most one progress event per
// grid slot, one artifact event per artifact), so retaining it costs a few
// hundred bytes per job, never O(run length).

// Event types, carried both as the SSE "event:" field and in the JSON body.
const (
	// EventState records a lifecycle transition. The terminal transition
	// (done/failed/cancelled) sets Terminal and closes every feed.
	EventState = "state"
	// EventProgress carries a mid-run Stats snapshot, taken at a quiescent
	// point of the simulation (streamed jobs only).
	EventProgress = "progress"
	// EventArtifact announces one completed artifact, ready to download.
	EventArtifact = "artifact"
)

// Event is one record on a job's event feed.
type Event struct {
	ID       uint64     `json:"id"`
	Type     string     `json:"type"`
	JobID    string     `json:"job_id"`
	State    State      `json:"state,omitempty"`
	Terminal bool       `json:"terminal,omitempty"`
	Stats    *run.Stats `json:"stats,omitempty"`
	Artifact string     `json:"artifact,omitempty"`
	Error    *APIError  `json:"error,omitempty"`
}

// eventLog is one job's append-only event history plus the wake channel
// its live feeds park on. IDs are assigned on append; nothing is ever
// dropped or reordered, which is what makes Last-Event-ID resume exact.
type eventLog struct {
	mu       sync.Mutex
	events   []Event
	terminal bool
	wake     chan struct{}
}

func newEventLog() *eventLog { return &eventLog{wake: make(chan struct{})} }

// append stamps the next ID onto e and wakes every parked feed. Appends
// after the terminal state event are dropped — the feed contract is that
// the terminal event is last.
func (l *eventLog) append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.terminal {
		return
	}
	e.ID = uint64(len(l.events)) + 1
	l.events = append(l.events, e)
	if e.Type == EventState && e.Terminal {
		l.terminal = true
	}
	close(l.wake)
	l.wake = make(chan struct{})
}

// since returns the events with ID > after, whether the log is terminal,
// and the channel to park on when caught up.
func (l *eventLog) since(after uint64) ([]Event, bool, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	if after < uint64(len(l.events)) {
		out = append(out, l.events[after:]...)
	}
	return out, l.terminal, l.wake
}

// event appends to a job's feed, stamping the job ID.
func (s *Server) event(job *Job, e Event) {
	if job.events == nil {
		return
	}
	e.JobID = job.ID
	job.events.append(e)
}

// finishEvents publishes the terminal tail of a job's feed: one
// artifact-ready event per completed artifact (successful jobs only — a
// failed run's partial artifacts are inspectable but never announced
// ready), then the terminal state event carrying the final Stats and, on
// failure, the same typed error the job document shows.
func (s *Server) finishEvents(job *Job) {
	s.mu.Lock()
	state := job.State
	stats := job.Stats
	var apiErr *APIError
	if job.Err != "" || job.ErrCode != "" {
		apiErr = &APIError{Code: job.ErrCode, Message: job.Err}
	}
	names := artifactNames(job)
	s.mu.Unlock()

	if state == StateDone {
		for _, name := range names {
			s.event(job, Event{Type: EventArtifact, Artifact: name})
		}
	}
	s.event(job, Event{Type: EventState, State: state, Terminal: true, Stats: &stats, Error: apiErr})
}

// handleEvents serves GET /api/v1/jobs/{id}/events: the job's event feed
// as Server-Sent Events. The feed replays history from the start — or
// from the Last-Event-ID header (or ?after= parameter) on reconnect —
// then follows live until the terminal event, after which it closes. A
// feed opened on an already-terminal job replays everything and closes
// immediately, so polling clients and streaming clients converge on the
// same final history.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	if ok {
		s.n.EventStreamsServed++
	}
	s.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such job", 0)
		return
	}

	after := uint64(0)
	resume := r.Header.Get("Last-Event-ID")
	if v := r.URL.Query().Get("after"); v != "" {
		resume = v
	}
	if resume != "" {
		n, err := strconv.ParseUint(resume, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, CodeInvalidArgument, "malformed event ID "+strconv.Quote(resume), 0)
			return
		}
		after = n
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush()

	for {
		events, terminal, wake := job.events.since(after)
		if len(events) > 0 {
			for _, e := range events {
				data, err := json.Marshal(e)
				if err != nil {
					return
				}
				if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, data); err != nil {
					return
				}
				after = e.ID
			}
			if rc.Flush() != nil {
				return
			}
			continue // drain anything appended while writing
		}
		if terminal {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
