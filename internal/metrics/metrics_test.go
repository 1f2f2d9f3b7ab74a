package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/sysc"
)

func ev(k event.Kind, thread string, at sysc.Time) event.Event {
	return event.Event{Kind: k, Thread: thread, Time: at}
}

func TestDispatchLatencyAndWaitTime(t *testing.T) {
	b := event.NewBus()
	c := Attach(b)

	// a activates at 0, dispatches at 2ms -> latency 2ms.
	b.Publish(ev(event.KindActivate, "a", 0))
	b.Publish(ev(event.KindDispatch, "a", 2*sysc.Ms))
	// a blocks at 5ms, releases at 9ms -> wait 4ms, redispatch at 10ms -> 1ms.
	b.Publish(ev(event.KindBlock, "a", 5*sysc.Ms))
	b.Publish(ev(event.KindRelease, "a", 9*sysc.Ms))
	b.Publish(ev(event.KindDispatch, "a", 10*sysc.Ms))
	// a preempted at 12ms, back at 12ms -> zero latency.
	b.Publish(ev(event.KindPreempt, "a", 12*sysc.Ms))
	b.Publish(ev(event.KindDispatch, "a", 12*sysc.Ms))

	r := c.Report()
	if len(r.Tasks) != 1 {
		t.Fatalf("tasks = %d", len(r.Tasks))
	}
	a := r.Tasks[0]
	if a.Thread != "a" || a.Dispatches != 3 || a.Preemptions != 1 {
		t.Fatalf("counters: %+v", a)
	}
	if a.DispatchLatency.Count != 3 || a.DispatchLatency.SumUs != 3000 {
		t.Fatalf("dispatch latency: %+v", a.DispatchLatency)
	}
	if a.DispatchLatency.MaxUs != 2000 {
		t.Fatalf("max latency: %v", a.DispatchLatency.MaxUs)
	}
	if a.WaitTime.Count != 1 || a.WaitTime.SumUs != 4000 {
		t.Fatalf("wait time: %+v", a.WaitTime)
	}
}

func TestRunSliceRollups(t *testing.T) {
	b := event.NewBus()
	c := Attach(b)

	b.Publish(event.Event{Kind: event.KindRunSlice, Thread: "a", Ctx: 1,
		Start: 0, Time: 3 * sysc.Ms, Energy: 2 * petri.MilliJ})
	b.Publish(event.Event{Kind: event.KindRunSlice, Thread: "a", Ctx: 2,
		Start: 3 * sysc.Ms, Time: 4 * sysc.Ms, Energy: 1 * petri.MilliJ})
	b.Publish(event.Event{Kind: event.KindRunSlice, Thread: "b", Ctx: 1,
		Start: 4 * sysc.Ms, Time: 6 * sysc.Ms, Energy: 4 * petri.MilliJ})

	r := c.Report()
	if len(r.Tasks) != 2 || len(r.Contexts) != 2 {
		t.Fatalf("rows: %d tasks, %d contexts", len(r.Tasks), len(r.Contexts))
	}
	a := r.Tasks[0]
	if a.CETUs != 4000 || a.CEEJoules != 0.003 {
		t.Fatalf("a rollup: %+v", a)
	}
	// Context rows are name-sorted: "service" < "task" (Ctx 1 = task, 2 = service).
	var taskCtx ContextMetrics
	for _, x := range r.Contexts {
		if x.Context == "task" {
			taskCtx = x
		}
	}
	if taskCtx.Slices != 2 || taskCtx.TimeUs != 5000 {
		t.Fatalf("task ctx rollup: %+v", taskCtx)
	}
	if r.SimTimeUs != 6000 {
		t.Fatalf("sim time: %v", r.SimTimeUs)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.observe(0)                  // bucket 0
	h.observe(1 * sysc.Us)        // bucket 1
	h.observe(3 * sysc.Us)        // bucket 2
	h.observe(1000000 * sysc.Sec) // clamped to last bucket
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[2] != 1 || h.Buckets[histBuckets-1] != 1 {
		t.Fatalf("buckets: %v", h.Buckets)
	}
	if h.Count != 4 {
		t.Fatalf("count: %d", h.Count)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	run := func() []byte {
		b := event.NewBus()
		c := Attach(b)
		b.Publish(ev(event.KindActivate, "z", 0))
		b.Publish(ev(event.KindDispatch, "z", sysc.Ms))
		b.Publish(ev(event.KindActivate, "a", 0))
		b.Publish(ev(event.KindDispatch, "a", 2*sysc.Ms))
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, two := run(), run()
	if !bytes.Equal(one, two) {
		t.Fatal("reports differ across identical runs")
	}
	var r Report
	if err := json.Unmarshal(one, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Tasks) != 2 || r.Tasks[0].Thread != "a" {
		t.Fatalf("rows not name-sorted: %+v", r.Tasks)
	}
}
