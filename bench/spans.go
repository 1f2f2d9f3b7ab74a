package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; later spans are
// dropped, so a fast workload cannot grow the trace file without limit.
const maxSpans = 50000

// Span rows (Chrome trace-event tids): closed-loop clients use their own
// index, replicas and probes get fixed rows below them.
const (
	tidReplica = 100
	tidProbe   = 101
)

// span is one Chrome trace-event "X" record: a named interval on a row,
// tagged with the op (or job) it belongs to so every span of one op shares
// an identifier.
type span struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// tracer collects client-side spans around the calls into each layer. A
// nil *tracer records nothing, which is how the untraced run stays
// untraced.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records [start, end) as span name of op on row tid.
func (t *tracer) add(name, cat string, tid, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Cat: cat, Ph: "X",
		Ts:  float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		Dur: float64(end.Sub(start).Nanoseconds()) / 1e3,
		Pid: 1, Tid: tid,
		Args: map[string]any{"op": op},
	})
}

// write stores the spans as a trace-event JSON array (ui.perfetto.dev and
// chrome://tracing load it), preceded by row-name metadata.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	meta := func(name string, tid int, label string) error {
		return enc.Encode(map[string]any{"name": name, "ph": "M", "pid": 1, "tid": tid,
			"args": map[string]any{"name": label}})
	}
	w.WriteString("[\n")
	err = meta("process_name", 0, "bench "+workload)
	rows := map[int]bool{}
	t.mu.Lock()
	for _, s := range t.spans {
		rows[s.Tid] = true
	}
	for tid := range rows {
		label := fmt.Sprintf("client %d", tid)
		switch tid {
		case tidReplica:
			label = "replicas"
		case tidProbe:
			label = "probes"
		}
		if err == nil {
			w.WriteString(",")
			err = meta("thread_name", tid, label)
		}
	}
	for _, s := range t.spans {
		if err != nil {
			break
		}
		w.WriteString(",")
		err = enc.Encode(s)
	}
	t.mu.Unlock()
	w.WriteString("]\n")
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
