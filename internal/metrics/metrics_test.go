package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/sysc"
)

// subjects hands out one Subject per thread name, numbered densely from 1
// as a SIM_API numbers its threads.
var subjects = map[string]*event.Subject{}

func subject(name string) *event.Subject {
	s, ok := subjects[name]
	if !ok {
		s = &event.Subject{Index: len(subjects) + 1, Name: name}
		subjects[name] = s
	}
	return s
}

func ev(k event.Kind, thread string, at sysc.Time) event.Event {
	return event.Event{Kind: k, Thread: subject(thread), Time: at}
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

	b.Publish(event.Event{Kind: event.KindRunSlice, Thread: subject("a"), Ctx: 1,
		Start: 0, Time: 3 * sysc.Ms, Energy: 2 * petri.MilliJ})
	b.Publish(event.Event{Kind: event.KindRunSlice, Thread: subject("a"), Ctx: 2,
		Start: 3 * sysc.Ms, Time: 4 * sysc.Ms, Energy: 1 * petri.MilliJ})
	b.Publish(event.Event{Kind: event.KindRunSlice, Thread: subject("b"), Ctx: 1,
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

// handleStream is a steady-state slice of collector traffic: eight threads
// taking turns on the CPU, each dispatched, charged a few task and service
// run slices, and then preempted or blocked and released.
func handleStream() []event.Event {
	names := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	var evs []event.Event
	at := sysc.Time(0)
	slice := func(th string, ctx uint8) {
		evs = append(evs, event.Event{Kind: event.KindRunSlice, Thread: subject(th), Ctx: ctx,
			Start: at, Time: at + 10*sysc.Us, Energy: petri.MilliJ})
		at += 10 * sysc.Us
	}
	for i, th := range names {
		evs = append(evs, ev(event.KindDispatch, th, at))
		slice(th, 1)
		slice(th, 2)
		slice(th, 1)
		slice(th, 4)
		slice(th, 1)
		if i%2 == 0 {
			evs = append(evs, ev(event.KindPreempt, th, at))
		} else {
			evs = append(evs, ev(event.KindBlock, th, at),
				ev(event.KindRelease, names[(i+3)%len(names)], at))
		}
	}
	return evs
}

func BenchmarkCollectorHandle(b *testing.B) {
	c := Attach(event.NewBus())
	evs := handleStream()
	for _, e := range evs {
		c.handle(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.handle(evs[i%len(evs)])
	}
}

// TestLoadStateResetsIndexCache rewinds a collector whose subject-index
// cache points at a row the restore replaces: later events must land in
// the restored row.
func TestLoadStateResetsIndexCache(t *testing.T) {
	b := event.NewBus()
	c := Attach(b)
	b.Publish(ev(event.KindDispatch, "a", 0))
	st := c.SaveState()
	b.Publish(ev(event.KindDispatch, "a", sysc.Ms))
	c.LoadState(st)
	b.Publish(ev(event.KindDispatch, "a", 2*sysc.Ms))
	b.Publish(event.Event{Kind: event.KindRunSlice, Thread: subject("a"), Ctx: 1,
		Start: 2 * sysc.Ms, Time: 3 * sysc.Ms})
	r := c.Report()
	if len(r.Tasks) != 1 || r.Tasks[0].Dispatches != 2 || r.Tasks[0].CETUs != 1000 {
		t.Fatalf("tasks after restore: %+v", r.Tasks)
	}
	if len(r.Contexts) != 1 || r.Contexts[0].Context != "task" || r.Contexts[0].Slices != 1 {
		t.Fatalf("contexts after restore: %+v", r.Contexts)
	}
}

// TestSameNameSubjectsShareRow: a thread re-created under a name already
// seen has a new subject (a fresh index), and a kernel-global event has none;
// rows stay keyed by name, so each name keeps exactly one row.
func TestSameNameSubjectsShareRow(t *testing.T) {
	b := event.NewBus()
	c := Attach(b)
	first := &event.Subject{Index: 1, Name: "a"}
	again := &event.Subject{Index: 2, Name: "a"}
	b.Publish(event.Event{Kind: event.KindDispatch, Thread: first})
	b.Publish(event.Event{Kind: event.KindDispatch, Thread: again, Time: sysc.Ms})
	b.Publish(event.Event{Kind: event.KindDispatch, Thread: first, Time: 2 * sysc.Ms})
	b.Publish(event.Event{Kind: event.KindDispatch, Time: 3 * sysc.Ms})
	r := c.Report()
	if len(r.Tasks) != 2 || r.Tasks[0].Thread != "" || r.Tasks[1].Thread != "a" || r.Tasks[1].Dispatches != 3 {
		t.Fatalf("tasks: %+v", r.Tasks)
	}
}
