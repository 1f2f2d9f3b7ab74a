// Package router fronts a fleet of rtkserve shards with a single jobs
// API. Submissions are routed by the Spec's canonical content hash over a
// consistent-hash ring, so identical Specs always land on the same shard
// — which is what lets each shard's result cache and singleflight dedupe
// work fleet-wide without any shared state. Job IDs carry their shard's
// name as a prefix ("s0-j17"), so status, cancel, and artifact requests
// route by simple prefix parse. List, healthz, and varz fan out.
//
// The router speaks exactly the shard's wire surface (the server
// package's envelopes and documents), so clients cannot tell a router
// from a single replica — except that list pagination is per-shard:
// the router rejects ?cursor= rather than invent a global ordering.
package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/run"
	"repro/internal/server"
)

// maxSubmitBody bounds a submission body. Sized for specs carrying a
// checkpoint resume_from payload (a base64 snapshot of a full task set's
// kernel state), not just hand-written JSON.
const maxSubmitBody = 4 << 20

// Shard is one rtkserve replica: a routable name and its handler. The
// handler is either an in-process *server.Server or a reverse proxy to a
// remote replica; the router does not care which. The name must match the
// replica's configured server.Config.Name, because job-ID prefix routing
// depends on it.
type Shard struct {
	Name    string
	Handler http.Handler
}

// Router is the fleet front. It implements http.Handler.
type Router struct {
	shards []Shard
	byName map[string]http.Handler
	ring   *Ring
	mux    *http.ServeMux

	mu        sync.Mutex
	unhealthy map[string]bool // shards whose last submission attempt failed with 5xx
	failovers uint64          // submissions served by a non-primary replica
}

// New builds a router over the given shards. Vnodes <= 0 uses the ring
// default.
func New(shards []Shard, vnodes int) *Router {
	rt := &Router{
		shards:    shards,
		byName:    make(map[string]http.Handler, len(shards)),
		unhealthy: make(map[string]bool),
	}
	names := make([]string, 0, len(shards))
	for _, s := range shards {
		names = append(names, s.Name)
		rt.byName[s.Name] = s.Handler
	}
	rt.ring = NewRing(names, vnodes)

	m := http.NewServeMux()
	m.HandleFunc("POST /api/v1/jobs", rt.handleSubmit)
	m.HandleFunc("GET /api/v1/jobs", rt.handleList)
	m.HandleFunc("GET /api/v1/jobs/{id}", rt.forwardByID)
	m.HandleFunc("DELETE /api/v1/jobs/{id}", rt.forwardByID)
	m.HandleFunc("GET /api/v1/jobs/{id}/artifacts/{name}", rt.forwardByID)
	m.HandleFunc("GET /api/v1/jobs/{id}/events", rt.forwardByID)
	m.HandleFunc("GET /healthz", rt.handleHealthz)
	m.HandleFunc("GET /varz", rt.handleVarz)
	rt.mux = m
	return rt
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// RouteSpec returns the shard that owns the given canonical Spec hash.
func (rt *Router) RouteSpec(hash string) string { return rt.ring.Pick(hash) }

// handleSubmit routes a submission by the Spec's canonical content hash.
// A body that fails to canonicalize still routes (by its raw bytes) so
// the owning shard renders the invalid_spec envelope — the router never
// duplicates the shard's validation logic.
//
// Availability over affinity: if the owning shard answers 5xx (crashed
// replica behind a reverse proxy surfaces as a 502 connection error,
// a draining one as 503), the submission retries on the next distinct
// replica clockwise on the ring. The job then runs without that shard's
// cache — a duplicate simulation at worst, never a lost submission. The
// failed shard is marked unhealthy (visible in /varz) until a later
// attempt on it succeeds. Client errors (4xx) never fail over: the next
// shard would reject the same spec the same way.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, server.CodeInvalidSpec,
			"reading body: "+err.Error(), 0)
		return
	}
	key := ""
	var spec run.Spec
	if err := json.Unmarshal(body, &spec); err == nil {
		if h, herr := run.Hash(spec); herr == nil {
			key = h
		}
	}
	if key == "" {
		key = string(body)
	}
	order := rt.ring.Successors(key, len(rt.shards))
	if len(order) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeInternal,
			"no shards configured", 0)
		return
	}
	var last *bufferedResponse
	for i, name := range order {
		h, ok := rt.byName[name]
		if !ok {
			continue
		}
		req := r.Clone(r.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
		resp := newBufferedResponse()
		h.ServeHTTP(resp, req)
		if resp.Code < http.StatusInternalServerError {
			rt.setHealth(name, true)
			if i > 0 {
				rt.mu.Lock()
				rt.failovers++
				rt.mu.Unlock()
			}
			copyResponse(w, resp, resp.body.Bytes())
			return
		}
		rt.setHealth(name, false)
		last = resp
	}
	// Every replica failed; relay the last 5xx verbatim.
	copyResponse(w, last, last.body.Bytes())
}

func (rt *Router) setHealth(name string, healthy bool) {
	rt.mu.Lock()
	if healthy {
		delete(rt.unhealthy, name)
	} else {
		rt.unhealthy[name] = true
	}
	rt.mu.Unlock()
}

// unhealthyNames returns the currently-marked shards, sorted.
func (rt *Router) unhealthyNames() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]string, 0, len(rt.unhealthy))
	for name := range rt.unhealthy {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// forwardByID routes status/cancel/artifact/events requests by the job
// ID's shard prefix ("s0-j17" -> shard "s0"). The response writer is
// handed to the shard handler directly — never buffered — so chunked
// artifact streams and SSE event feeds flow through the router with the
// shard's own flushing; a proxy shard (cmd/rtkserve) sets FlushInterval
// on its ReverseProxy for the same reason.
func (rt *Router) forwardByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	i := strings.LastIndex(id, "-")
	if i <= 0 {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound,
			"job ID "+id+" carries no shard prefix", 0)
		return
	}
	h, ok := rt.byName[id[:i]]
	if !ok {
		server.WriteError(w, http.StatusNotFound, server.CodeNotFound,
			"no shard named "+id[:i], 0)
		return
	}
	h.ServeHTTP(w, r)
}

// handleList fans the query out to every shard and concatenates the
// pages in shard order. state= and limit= pass through; the merged
// result is re-capped at limit. Cursors are per-shard sequence numbers,
// so the router cannot honor them globally and says so.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("cursor") != "" {
		server.WriteError(w, http.StatusBadRequest, server.CodeInvalidArgument,
			"cursor pagination is per-shard; list shards individually to paginate", 0)
		return
	}
	limit := 0
	merged := server.JobList{Jobs: []server.JobView{}}
	for _, s := range rt.shards {
		resp, body := rt.call(s.Handler, http.MethodGet, "/api/v1/jobs?"+q.Encode())
		if resp.Code != http.StatusOK {
			// A shard rejected the query (bad state/limit); relay verbatim.
			copyResponse(w, resp, body)
			return
		}
		var l server.JobList
		if err := json.Unmarshal(body, &l); err != nil {
			server.WriteError(w, http.StatusBadGateway, server.CodeInternal,
				"shard "+s.Name+": "+err.Error(), 0)
			return
		}
		merged.Jobs = append(merged.Jobs, l.Jobs...)
	}
	if l := q.Get("limit"); l != "" {
		// The shards validated it already.
		if n, err := parsePositive(l); err == nil {
			limit = n
		}
	}
	if limit > 0 && len(merged.Jobs) > limit {
		merged.Jobs = merged.Jobs[:limit]
	}
	server.WriteJSON(w, http.StatusOK, merged)
}

// handleHealthz is healthy only when every shard is.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var down []string
	for _, s := range rt.shards {
		resp, _ := rt.call(s.Handler, http.MethodGet, "/healthz")
		if resp.Code != http.StatusOK {
			down = append(down, s.Name)
		}
	}
	if len(down) > 0 {
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeInternal,
			"shards down: "+strings.Join(down, ","), 0)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// Varz is the router's aggregate counters page: the fleet totals plus
// each shard's own varz.
type Varz struct {
	Role   string        `json:"role"`
	Shards []server.Varz `json:"shards"`
	// Unhealthy lists shards whose last submission attempt failed with a
	// 5xx (failover marked them) or that did not answer this varz fan-out.
	Unhealthy []string `json:"unhealthy,omitempty"`
	Totals    Totals   `json:"totals"`
}

// Totals sums the fleet-meaningful counters across shards.
type Totals struct {
	Shards     int `json:"shards"`
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
	server.Counters
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Failovers counts submissions served by a non-primary replica after
	// their owning shard answered 5xx.
	Failovers uint64 `json:"failovers"`
}

func (rt *Router) handleVarz(w http.ResponseWriter, r *http.Request) {
	v := Varz{Role: "router", Shards: []server.Varz{}}
	down := map[string]bool{}
	for _, name := range rt.unhealthyNames() {
		down[name] = true
	}
	for _, s := range rt.shards {
		resp, body := rt.call(s.Handler, http.MethodGet, "/varz")
		var sv server.Varz
		if resp.Code != http.StatusOK || json.Unmarshal(body, &sv) != nil {
			// A shard that cannot render varz is down; report it rather
			// than fail the whole fleet page.
			down[s.Name] = true
			continue
		}
		v.Shards = append(v.Shards, sv)
		v.Totals.Shards++
		v.Totals.QueueDepth += sv.QueueDepth
		v.Totals.InFlight += sv.InFlight
		v.Totals.Add(sv.Counters)
		if sv.Cache != nil {
			v.Totals.CacheHits += sv.Cache.Hits
			v.Totals.CacheMisses += sv.Cache.Misses
		}
	}
	for name := range down {
		v.Unhealthy = append(v.Unhealthy, name)
	}
	sort.Strings(v.Unhealthy)
	rt.mu.Lock()
	v.Totals.Failovers = rt.failovers
	rt.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, v)
}

// call runs an in-process subrequest against a shard handler and buffers
// the response.
func (rt *Router) call(h http.Handler, method, target string) (*bufferedResponse, []byte) {
	req, _ := http.NewRequest(method, target, nil)
	resp := newBufferedResponse()
	h.ServeHTTP(resp, req)
	return resp, resp.body.Bytes()
}

func copyResponse(w http.ResponseWriter, resp *bufferedResponse, body []byte) {
	for k, vv := range resp.header {
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.Code)
	_, _ = w.Write(body)
}

// bufferedResponse is a minimal in-memory http.ResponseWriter for
// fan-out subrequests.
type bufferedResponse struct {
	Code   int
	header http.Header
	body   bytes.Buffer
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{Code: http.StatusOK, header: make(http.Header)}
}

func (b *bufferedResponse) Header() http.Header         { return b.header }
func (b *bufferedResponse) WriteHeader(code int)        { b.Code = code }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

func parsePositive(s string) (int, error) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, io.ErrUnexpectedEOF
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}
