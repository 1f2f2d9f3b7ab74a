// Package client is the Go client of the rtkserve jobs API (v3): submit,
// poll, cancel, download — and the streaming surface, live chunked
// artifact downloads and the SSE job-event feed with Last-Event-ID
// resume. It speaks exactly the server package's wire types (JobView,
// Event, the error envelope), so a client-side document is the server's
// document, not a translation; cmd/serveload and external tooling build
// on it instead of hand-rolling HTTP.
//
// Errors cross as *client.Error carrying the HTTP status and the typed
// envelope code, so callers switch on codes (server.CodeSaturated, ...)
// rather than parsing messages. Submit retries saturation (429) and drain
// (503) rejections with the server's own Retry-After hint.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/run"
	"repro/internal/server"
)

// Client talks to one rtkserve replica or router.
type Client struct {
	// BaseURL is the service root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
	// SubmitAttempts bounds Submit's retry loop on 429/503 (default 100).
	SubmitAttempts int
	// MaxRetryAfter caps how long one Retry-After hint is honored
	// (default 2s) — a load generator should not sleep a full server
	// drain hint.
	MaxRetryAfter time.Duration
}

// New builds a client for the service at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// Error is a non-2xx API response: the HTTP status plus the server's
// structured envelope.
type Error struct {
	Status int
	server.APIError
}

func (e *Error) Error() string {
	return fmt.Sprintf("api: %d %s: %s", e.Status, e.Code, e.Message)
}

// IsCode reports whether err is an API error with the given envelope code.
func IsCode(err error, code string) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.Code == code
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError decodes a non-2xx body into *Error; body is consumed. The
// envelope's retry_after_ms wins over the coarser Retry-After header
// (whole seconds), which non-envelope intermediaries may still set.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	e := &Error{Status: resp.StatusCode}
	var env server.ErrorEnvelope
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		e.APIError = env.Error
	} else {
		e.Code = server.CodeInternal
		e.Message = strings.TrimSpace(string(body))
	}
	if e.RetryAfterMS == 0 {
		if secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); err == nil {
			e.RetryAfterMS = secs * 1000
		}
	}
	return e
}

// do runs one request and decodes a 2xx JSON body into out.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit submits a Spec and returns the accepted job document (which may
// already be terminal: a cache hit is born done). Saturation (429) and
// drain (503) rejections are retried with the server's Retry-After hint,
// capped by MaxRetryAfter, up to SubmitAttempts times.
func (c *Client) Submit(ctx context.Context, spec run.Spec) (server.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return server.JobView{}, err
	}
	return c.SubmitJSON(ctx, body)
}

// SubmitJSON is Submit for a raw Spec document.
func (c *Client) SubmitJSON(ctx context.Context, spec []byte) (server.JobView, error) {
	attempts := c.SubmitAttempts
	if attempts <= 0 {
		attempts = 100
	}
	capWait := c.MaxRetryAfter
	if capWait <= 0 {
		capWait = 2 * time.Second
	}
	var last error
	for i := 0; i < attempts; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+"/api/v1/jobs", bytes.NewReader(spec))
		if err != nil {
			return server.JobView{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		var v server.JobView
		err = c.do(req, &v)
		if err == nil {
			return v, nil
		}
		var ae *Error
		if !errors.As(err, &ae) ||
			(ae.Status != http.StatusTooManyRequests && ae.Status != http.StatusServiceUnavailable) {
			return server.JobView{}, err
		}
		last = err
		wait := time.Duration(ae.RetryAfterMS) * time.Millisecond
		if wait <= 0 {
			wait = 10 * time.Millisecond
		}
		if wait > capWait {
			wait = capWait
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return server.JobView{}, context.Cause(ctx)
		}
	}
	return server.JobView{}, fmt.Errorf("submit: retries exhausted: %w", last)
}

// Job fetches a job's current document.
func (c *Client) Job(ctx context.Context, id string) (server.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/api/v1/jobs/"+id, nil)
	if err != nil {
		return server.JobView{}, err
	}
	var v server.JobView
	return v, c.do(req, &v)
}

// Cancel requests cancellation and returns the (possibly already
// terminal) job document.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.BaseURL+"/api/v1/jobs/"+id, nil)
	if err != nil {
		return server.JobView{}, err
	}
	var v server.JobView
	return v, c.do(req, &v)
}

// terminal reports whether a state is final.
func terminal(st server.State) bool {
	return st == server.StateDone || st == server.StateFailed || st == server.StateCancelled
}

// Wait polls the job until it is terminal (poll <= 0: 2ms). The terminal
// document is returned even for failed/cancelled jobs; the error is
// non-nil only when polling itself fails.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (server.JobView, error) {
	if poll <= 0 {
		poll = 2 * time.Millisecond
	}
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return server.JobView{}, err
		}
		if terminal(v.State) {
			return v, nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return server.JobView{}, context.Cause(ctx)
		}
	}
}

// Artifact downloads one artifact of a finished job, whole.
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	rc, err := c.ArtifactReader(ctx, id, name)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// ArtifactReader opens a finished job's artifact for incremental
// consumption — hashing or piping without holding the whole body.
func (c *Client) ArtifactReader(ctx context.Context, id, name string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/api/v1/jobs/"+id+"/artifacts/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return resp.Body, nil
}

// StreamArtifact opens a live chunked download (?stream=1) of an
// artifact: bytes arrive as the running simulation produces them. The
// reader yields exactly the artifact's byte sequence; if the producing
// run fails mid-stream, the final Read (after the payload) returns the
// server's X-Stream-Error trailer as an *Error instead of io.EOF. Close
// the reader when done.
func (c *Client) StreamArtifact(ctx context.Context, id, name string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/api/v1/jobs/"+id+"/artifacts/"+name+"?stream=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return &streamReader{resp: resp}, nil
}

// streamReader surfaces the X-Stream-Error trailer as the terminal read
// error. Trailers are only populated once the body is fully consumed.
type streamReader struct {
	resp *http.Response
}

func (r *streamReader) Read(p []byte) (int, error) {
	n, err := r.resp.Body.Read(p)
	if errors.Is(err, io.EOF) {
		if tr := r.resp.Trailer.Get(server.TrailerStreamError); tr != "" {
			code, msg, _ := strings.Cut(tr, ": ")
			return n, &Error{Status: http.StatusOK, APIError: server.APIError{Code: code, Message: msg}}
		}
	}
	return n, err
}

func (r *streamReader) Close() error { return r.resp.Body.Close() }

// Events opens the job's SSE feed, resuming after lastEventID (0 = from
// the start). The server closes the feed after the terminal event;
// EventStream.Next then returns io.EOF.
func (c *Client) Events(ctx context.Context, id string, lastEventID uint64) (*EventStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return &EventStream{body: resp.Body, lastID: lastEventID}, nil
}

// EventStream decodes an SSE job-event feed.
type EventStream struct {
	body   io.ReadCloser
	buf    []byte
	off    int
	lastID uint64
}

// LastID returns the ID of the last event decoded — the resume point for
// a reconnect (pass it back to Events after a broken feed).
func (es *EventStream) LastID() uint64 { return es.lastID }

// Close releases the feed.
func (es *EventStream) Close() error { return es.body.Close() }

// MaxEventLine caps one line of an SSE feed, in bytes before its line
// ending. The server writes one small JSON event per data line, far below
// the cap; a feed that sends more without a newline is broken or hostile.
const MaxEventLine = 1 << 20

// ErrLineTooLong reports an SSE line longer than MaxEventLine.
var ErrLineTooLong = errors.New("events: line exceeds 1 MiB")

// eventReadChunk is how much the feed reader asks the body for per read.
const eventReadChunk = 4096

// readLine returns the next line of the feed without its LF or CRLF
// ending. A line past MaxEventLine fails with ErrLineTooLong before the
// buffer grows further, so a feed that never sends a newline holds at most
// MaxEventLine+1+eventReadChunk bytes.
func (es *EventStream) readLine() (string, error) {
	for {
		pending := es.buf[es.off:]
		if i := bytes.IndexByte(pending, '\n'); i >= 0 {
			line := bytes.TrimSuffix(pending[:i], []byte{'\r'})
			if len(line) > MaxEventLine {
				return "", ErrLineTooLong
			}
			es.off += i + 1
			return string(line), nil
		}
		if len(pending) > MaxEventLine+1 { // +1: a CR may precede the LF
			return "", ErrLineTooLong
		}
		es.buf = append(es.buf[:copy(es.buf, pending)], make([]byte, eventReadChunk)...)
		rest := len(es.buf) - eventReadChunk
		es.off = 0
		n, err := es.body.Read(es.buf[rest:])
		es.buf = es.buf[:rest+n]
		if n == 0 && err != nil {
			return "", err
		}
	}
}

// Next decodes the next event. io.EOF marks the orderly end of the feed
// (the server closes it after the terminal event).
func (es *EventStream) Next() (server.Event, error) {
	var e server.Event
	var sawData bool
	for {
		line, err := es.readLine()
		if err != nil {
			return server.Event{}, err
		}
		switch {
		case line == "":
			if sawData {
				es.lastID = e.ID
				return e, nil
			}
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &e); err != nil {
				return server.Event{}, fmt.Errorf("events: bad frame: %w", err)
			}
			sawData = true
			// id: and event: lines duplicate fields of the JSON body.
		}
	}
}
