// Package metrics derives per-task scheduling and accounting statistics from
// the kernel event bus: dispatch latency (ready -> running), wait time
// (blocked -> released), preemption/dispatch counts, and CET/CEE rollups per
// task and per execution context. The collector is a pure bus subscriber — it
// never touches kernel internals — and its report is machine-readable JSON
// with deterministic field and row order, suitable for regression diffing
// next to the Figure 7 time/energy distribution.
package metrics

import (
	"io"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/event"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// histBuckets is the number of log2 histogram buckets. Bucket i counts
// samples whose value in microseconds has bit length i, so bucket 0 is
// sub-microsecond, bucket 1 is [1us,2us), bucket 20 is [0.5s,1s), and the
// last bucket absorbs everything longer.
const histBuckets = 24

// Histogram is a log2-bucketed latency histogram over simulated time.
type Histogram struct {
	Count   uint64              `json:"count"`
	SumUs   float64             `json:"sum_us"`
	MaxUs   float64             `json:"max_us"`
	Buckets [histBuckets]uint64 `json:"log2_us_buckets"`
}

// observe records one duration sample.
func (h *Histogram) observe(d sysc.Time) {
	if d < 0 {
		return
	}
	us := float64(d) / 1e6
	h.Count++
	h.SumUs += us
	if us > h.MaxUs {
		h.MaxUs = us
	}
	i := bits.Len64(uint64(d / 1e6))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.Buckets[i]++
}

// TaskMetrics aggregates one task's scheduling behaviour over a run.
type TaskMetrics struct {
	Thread          string    `json:"thread"`
	Dispatches      uint64    `json:"dispatches"`
	Preemptions     uint64    `json:"preemptions"`
	CETUs           float64   `json:"cet_us"`
	CEEJoules       float64   `json:"cee_j"`
	DispatchLatency Histogram `json:"dispatch_latency"`
	WaitTime        Histogram `json:"wait_time"`
}

// ContextMetrics rolls consumed time and energy up by execution context
// (task, service, handler, bfm, idle...), mirroring the Figure 7 breakdown.
type ContextMetrics struct {
	Context string  `json:"context"`
	TimeUs  float64 `json:"time_us"`
	Joules  float64 `json:"joules"`
	Slices  uint64  `json:"slices"`
}

// Report is the full machine-readable metrics dump for one run.
type Report struct {
	SimTimeUs float64          `json:"sim_time_us"`
	Tasks     []TaskMetrics    `json:"tasks"`
	Contexts  []ContextMetrics `json:"contexts"`
}

// Collector subscribes to the bus and accumulates metrics as events stream
// by. It keeps O(tasks) state; event volume does not grow its footprint.
type Collector struct {
	sub *event.Subscription

	// tasks is keyed by thread name, so a task deleted and re-created
	// under the same name keeps one row; bySubject caches it per subject.
	tasks     map[string]*taskState
	bySubject event.SubjectCache[*taskState]
	// ctxs is indexed by the event's context byte (a trace.Context); nil
	// marks a context not seen yet.
	ctxs [256]*ContextMetrics

	end sysc.Time
}

type taskState struct {
	m TaskMetrics

	readyAt   sysc.Time
	ready     bool
	blockedAt sysc.Time
	blocked   bool
}

// collectorKinds is the event subset the collector consumes.
var collectorKinds = []event.Kind{
	event.KindRunSlice,
	event.KindDispatch, event.KindPreempt,
	event.KindBlock, event.KindRelease,
	event.KindActivate,
}

// Attach subscribes a new collector to the bus.
func Attach(b *event.Bus) *Collector {
	c := &Collector{tasks: map[string]*taskState{}}
	c.sub = b.Subscribe(c.handle, collectorKinds...)
	return c
}

// Close detaches the collector from the bus.
func (c *Collector) Close() { c.sub.Close() }

// task returns (creating on first sight) the state for e's thread.
func (c *Collector) task(e *event.Event) *taskState {
	if t, ok := c.bySubject.Get(e.Thread); ok {
		return t
	}
	name := e.ThreadName()
	t, ok := c.tasks[name]
	if !ok {
		t = &taskState{m: TaskMetrics{Thread: name}}
		c.tasks[name] = t
	}
	c.bySubject.Put(e.Thread, t)
	return t
}

func (c *Collector) handle(e event.Event) {
	if e.Time > c.end {
		c.end = e.Time
	}
	t := c.task(&e) // every collector kind is about a thread
	switch e.Kind {
	case event.KindRunSlice:
		dur := e.Time - e.Start
		t.m.CETUs += float64(dur) / 1e6
		t.m.CEEJoules += e.Energy.Joules()
		ctx := c.ctxs[e.Ctx]
		if ctx == nil {
			ctx = &ContextMetrics{Context: trace.Context(e.Ctx).String()}
			c.ctxs[e.Ctx] = ctx
		}
		ctx.TimeUs += float64(dur) / 1e6
		ctx.Joules += e.Energy.Joules()
		ctx.Slices++
	case event.KindActivate:
		t.readyAt, t.ready = e.Time, true
	case event.KindRelease:
		if t.blocked {
			t.m.WaitTime.observe(e.Time - t.blockedAt)
			t.blocked = false
		}
		t.readyAt, t.ready = e.Time, true
	case event.KindPreempt:
		// The preempted thread goes back to READY and will be re-dispatched.
		t.m.Preemptions++
		t.readyAt, t.ready = e.Time, true
	case event.KindDispatch:
		t.m.Dispatches++
		if t.ready {
			t.m.DispatchLatency.observe(e.Time - t.readyAt)
			t.ready = false
		}
	case event.KindBlock:
		t.blockedAt, t.blocked = e.Time, true
	}
}

// Report snapshots the accumulated metrics, task rows and context rows
// sorted by name for deterministic output.
func (c *Collector) Report() Report {
	r := Report{SimTimeUs: float64(c.end) / 1e6}
	if len(c.tasks) > 0 {
		r.Tasks = make([]TaskMetrics, 0, len(c.tasks))
	}
	for _, t := range c.tasks {
		r.Tasks = append(r.Tasks, t.m)
	}
	slices.SortFunc(r.Tasks, func(a, b TaskMetrics) int { return strings.Compare(a.Thread, b.Thread) })
	nctx := 0
	for _, x := range c.ctxs {
		if x != nil {
			nctx++
		}
	}
	if nctx > 0 {
		r.Contexts = make([]ContextMetrics, 0, nctx)
	}
	for _, x := range c.ctxs {
		if x != nil {
			r.Contexts = append(r.Contexts, *x)
		}
	}
	slices.SortFunc(r.Contexts, func(a, b ContextMetrics) int { return strings.Compare(a.Context, b.Context) })
	return r
}

// WriteJSON writes the report as indented JSON (Report.AppendJSON) in one
// write.
func (c *Collector) WriteJSON(w io.Writer) error {
	r := c.Report()
	b, err := r.AppendJSON(make([]byte, 0, r.jsonSize()))
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
