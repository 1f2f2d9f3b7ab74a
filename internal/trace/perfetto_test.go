package trace_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/petri"
	"repro/internal/run/opts"
	"repro/internal/sysc"
	"repro/internal/tkernel"
	"repro/internal/trace"
)

// golden covers one record of every phase the exporter emits, from a
// synthetic event sequence with hand-checkable timestamps.
func TestPerfettoGolden(t *testing.T) {
	b := event.NewBus()
	var buf bytes.Buffer
	p := trace.AttachPerfetto(b, &buf)

	worker := &event.Subject{Index: 1, Name: "worker"}
	b.Publish(event.Event{Kind: event.KindDispatch, Thread: worker, Time: 1 * sysc.Ms})
	b.Publish(event.Event{Kind: event.KindRunSlice, Thread: worker, Ctx: 1,
		Start: 1 * sysc.Ms, Time: 4 * sysc.Ms, Energy: 2 * petri.MilliJ, Obj: "step"})
	b.Publish(event.Event{Kind: event.KindSvcExit, Thread: worker, Time: 4 * sysc.Ms,
		Obj: "tk_sig_sem", Code: int32(tkernel.ENOEXS)})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	want := strings.TrimLeft(fmt.Sprintf(`[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"rtk-spec-tron"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"kernel"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"worker"}},
{"name":"dispatch","cat":"dispatch","ph":"i","ts":1000,"pid":1,"tid":1,"s":"t"},
{"name":"step","cat":"task","ph":"X","ts":1000,"dur":3000,"pid":1,"tid":1,"args":{"energy_j":0.002}},
{"name":"tk_sig_sem","cat":"svc-exit","ph":"i","ts":4000,"pid":1,"tid":1,"s":"t","args":{"er":%d}}
]
`, int(tkernel.ENOEXS)), "\n")
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}
	if n, err := trace.ValidatePerfetto(bytes.NewReader(buf.Bytes())); err != nil || n != 6 {
		t.Fatalf("validate: n=%d err=%v", n, err)
	}
}

// traceRun boots a seeded two-task kernel scenario with a Perfetto exporter
// attached and returns the trace bytes.
func traceRun(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	bus := event.NewBus()
	p := trace.AttachPerfetto(bus, &buf)
	k := tkernel.New(sim, tkernel.Config{CommonOptions: opts.CommonOptions{Bus: bus}, Costs: tkernel.ZeroCosts()})
	k.Boot(func(k *tkernel.Kernel) {
		work := core.Cost{Time: 10 * sysc.Ms, Energy: 1 * petri.MilliJ}
		sem, _ := k.CreSem("gate", tkernel.TaTFIFO, 0, 1)
		hi, _ := k.CreTsk("hi", 5, func(task *tkernel.Task) {
			_ = k.WaiSem(sem, 1, tkernel.TmoFevr)
			k.Work(work, "hi-work")
		})
		lo, _ := k.CreTsk("lo", 20, func(task *tkernel.Task) {
			k.Work(work, "lo-work")
			_ = k.SigSem(sem, 1)
			k.Work(work, "lo-tail")
		})
		_ = k.StaTsk(hi)
		_ = k.StaTsk(lo)
	})
	if err := sim.Start(200 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p.Events() == 0 {
		t.Fatal("no events recorded")
	}
	return buf.Bytes()
}

// TestPerfettoKernelTraceValidates runs a real kernel scenario and
// schema-checks the result.
func TestPerfettoKernelTraceValidates(t *testing.T) {
	out := traceRun(t)
	n, err := trace.ValidatePerfetto(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("record %d: %v", n, err)
	}
	if n < 10 {
		t.Fatalf("suspiciously small trace: %d records", n)
	}
}

// TestPerfettoDeterministic asserts byte-identical traces across two runs of
// the same scenario.
func TestPerfettoDeterministic(t *testing.T) {
	one, two := traceRun(t), traceRun(t)
	if !bytes.Equal(one, two) {
		t.Fatal("traces differ across identical runs")
	}
}

// TestRecreatedTaskKeepsOneRow deletes a task and creates a new one under
// the same name. The new T-THREAD carries a new subject, yet rows stay keyed
// by name: the metrics report has one row for it and the trace names it
// once.
func TestRecreatedTaskKeepsOneRow(t *testing.T) {
	var buf bytes.Buffer
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	bus := event.NewBus()
	p := trace.AttachPerfetto(bus, &buf)
	c := metrics.Attach(bus)
	k := tkernel.New(sim, tkernel.Config{CommonOptions: opts.CommonOptions{Bus: bus}, Costs: tkernel.ZeroCosts()})
	work := func(*tkernel.Task) { k.Work(core.Cost{Time: sysc.Ms}, "a-work") }
	var subjects []*event.Subject
	bus.Subscribe(func(e event.Event) { subjects = append(subjects, e.Thread) }, event.KindActivate)
	k.Boot(func(k *tkernel.Kernel) {
		a, _ := k.CreTsk("a", 5, work)
		ctl, _ := k.CreTsk("ctl", 20, func(*tkernel.Task) {
			if er := k.DelTsk(a); er != tkernel.EOK {
				t.Errorf("DelTsk = %v", er)
			}
			again, _ := k.CreTsk("a", 5, work)
			_ = k.StaTsk(again)
		})
		_ = k.StaTsk(a)
		_ = k.StaTsk(ctl)
	})
	if err := sim.Start(10 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var as []*event.Subject
	for _, s := range subjects {
		if s.Name == "a" {
			as = append(as, s)
		}
	}
	if len(as) != 2 || as[0] == as[1] || as[0].Index == as[1].Index {
		t.Fatalf("activations of a carried subjects %+v, want two distinct", as)
	}
	var rows []metrics.TaskMetrics
	for _, r := range c.Report().Tasks {
		if r.Thread == "a" {
			rows = append(rows, r)
		}
	}
	if len(rows) != 1 || rows[0].Dispatches != 2 || rows[0].CETUs != 2000 {
		t.Fatalf("metrics rows for a: %+v", rows)
	}
	if n := strings.Count(buf.String(), `"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"a"}`); n != 1 ||
		strings.Count(buf.String(), `"args":{"name":"a"}`) != 1 {
		t.Fatalf("want one thread_name record for a, on row 2:\n%s", buf.String())
	}
}
