package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/sysc"
)

// oraclePerfetto is the exporter's former encoder, kept here as the
// reference for the hand-written one: each record is built as a struct
// with a per-record arg map and encoded by encoding/json.
type oraclePerfetto struct {
	w       *bufio.Writer
	sub     *event.Subscription
	tids    map[string]int
	nextTid int
	n       int
	err     error
}

type pfMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type pfComplete struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type pfInstant struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s"`
	Args map[string]any `json:"args,omitempty"`
}

func attachOracle(b *event.Bus, w io.Writer) *oraclePerfetto {
	p := &oraclePerfetto{w: bufio.NewWriter(w), tids: map[string]int{}, nextTid: tidKernel + 1}
	p.w.WriteString("[")
	p.meta("process_name", pfPid, tidKernel, map[string]any{"name": "rtk-spec-tron"})
	p.meta("thread_name", pfPid, tidKernel, map[string]any{"name": "kernel"})
	p.sub = b.Subscribe(p.handle, pfKinds...)
	return p
}

func (p *oraclePerfetto) Close() error {
	p.sub.Close()
	p.w.WriteString("\n]\n")
	if err := p.w.Flush(); err != nil && p.err == nil {
		p.err = err
	}
	return p.err
}

func (p *oraclePerfetto) tid(thread string) int {
	if thread == "" {
		return tidKernel
	}
	if id, ok := p.tids[thread]; ok {
		return id
	}
	id := p.nextTid
	p.nextTid++
	p.tids[thread] = id
	p.meta("thread_name", pfPid, id, map[string]any{"name": thread})
	return id
}

func (p *oraclePerfetto) handle(e event.Event) {
	switch e.Kind {
	case event.KindRunSlice:
		name := e.Obj
		if name == "" {
			name = Context(e.Ctx).String()
		}
		p.emit(pfComplete{
			Name: name, Cat: Context(e.Ctx).String(), Ph: "X",
			Ts: us(e.Start), Dur: us(e.Time - e.Start),
			Pid: pfPid, Tid: p.tid(e.ThreadName()),
			Args: map[string]any{"energy_j": float64(e.Energy)},
		})
	case event.KindSvcExit:
		p.instant(e, e.Obj, map[string]any{"er": e.Code})
	case event.KindSvcEnter:
		p.instant(e, e.Obj, nil)
	case event.KindPreempt, event.KindBlock, event.KindRelease:
		var args map[string]any
		if e.Obj != "" {
			args = map[string]any{"detail": e.Obj}
		}
		p.instant(e, e.Kind.String(), args)
	case event.KindIntEnter:
		p.instant(e, e.Kind.String(), map[string]any{"depth": e.Seq})
	case event.KindTimerFire:
		p.instant(e, e.Kind.String(), map[string]any{"armed_us": us(e.Start), "seq": e.Seq})
	default:
		p.instant(e, e.Kind.String(), nil)
	}
}

func (p *oraclePerfetto) instant(e event.Event, name string, args map[string]any) {
	p.emit(pfInstant{
		Name: name, Cat: e.Kind.String(), Ph: "i",
		Ts: us(e.Time), Pid: pfPid, Tid: p.tid(e.ThreadName()), S: "t",
		Args: args,
	})
}

func (p *oraclePerfetto) meta(name string, pid, tid int, args map[string]any) {
	p.emit(pfMeta{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args})
}

func (p *oraclePerfetto) emit(rec any) {
	if p.err != nil {
		return
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		p.err = err
		return
	}
	if p.n > 0 {
		p.w.WriteString(",\n")
	} else {
		p.w.WriteString("\n")
	}
	if _, err := p.w.Write(buf); err != nil {
		p.err = err
		return
	}
	p.n++
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzPerfettoRecord publishes one fuzzed event, followed by a kernel-row
// twin and a repeat on its (by then known) thread, to the exporter and to
// the encoding/json oracle on the same bus. The traces, record counts and
// Close errors must be identical; a NaN or infinite energy must surface as
// the same Close error, never a panic.
func FuzzPerfettoRecord(f *testing.F) {
	kindIndex := func(k event.Kind) uint8 {
		for i, pk := range pfKinds {
			if pk == k {
				return uint8(i)
			}
		}
		panic("kind not exported")
	}
	ms := int64(sysc.Ms)
	// TestPerfettoGolden's events.
	f.Add(kindIndex(event.KindDispatch), uint8(0), 0, 1*ms, int64(0), uint64(0), 0.0, "worker", "")
	f.Add(kindIndex(event.KindRunSlice), uint8(1), 0, 4*ms, 1*ms, uint64(0), 0.002, "worker", "step")
	f.Add(kindIndex(event.KindSvcExit), uint8(0), -42, 4*ms, int64(0), uint64(0), 0.0, "worker", "tk_sig_sem")
	// Float formatting edges: zero, sub-1e-6, 1e21 and beyond, negatives.
	f.Add(kindIndex(event.KindRunSlice), uint8(2), 0, int64(0), int64(0), uint64(0), 5e-7, "t", "")
	f.Add(kindIndex(event.KindRunSlice), uint8(3), 0, int64(1), int64(3), uint64(0), 1e21, "t", "x")
	f.Add(kindIndex(event.KindRunSlice), uint8(9), 0, int64(7), int64(1), uint64(0), -1.5e-300, "", "")
	f.Add(kindIndex(event.KindTimerFire), uint8(0), 0, int64(math.MaxInt64), int64(math.MinInt64), uint64(math.MaxUint64), 0.0, "", "")
	f.Add(kindIndex(event.KindIntEnter), uint8(0), 0, int64(123456789), int64(0), uint64(3), 0.0, "isr", "")
	// Times around the integer fast path's 1e15 ps bound.
	f.Add(kindIndex(event.KindTimerFire), uint8(0), 0, int64(999_999_999_999_999), int64(-999_999_999_999_999), uint64(1), 0.0, "", "")
	f.Add(kindIndex(event.KindRunSlice), uint8(1), 0, int64(1_000_000_000_000_000), int64(1), uint64(0), 1.0, "w", "")
	f.Add(kindIndex(event.KindDispatch), uint8(0), 0, int64(-1_000_000_000_000_001), int64(0), uint64(0), 0.0, "w", "")
	f.Add(kindIndex(event.KindDispatch), uint8(0), 0, int64(-1), int64(0), uint64(0), 0.0, "", "")
	// Non-finite energy: the same Close error, no panic.
	f.Add(kindIndex(event.KindRunSlice), uint8(1), 0, 4*ms, 1*ms, uint64(0), math.NaN(), "worker", "step")
	f.Add(kindIndex(event.KindRunSlice), uint8(1), 0, 4*ms, 1*ms, uint64(0), math.Inf(1), "", "")
	f.Add(kindIndex(event.KindRunSlice), uint8(1), 0, 4*ms, 1*ms, uint64(0), math.Inf(-1), "w", "")
	// Strings encoding/json escapes.
	f.Add(kindIndex(event.KindPreempt), uint8(0), 0, int64(5), int64(0), uint64(0), 0.0, "tâche", "<a&b>")
	f.Add(kindIndex(event.KindBlock), uint8(0), 0, int64(5), int64(0), uint64(0), 0.0, "ctl\x00\x1f\x7f", "q\"uote\\")
	f.Add(kindIndex(event.KindRelease), uint8(0), 0, int64(5), int64(0), uint64(0), 0.0, "bad\xff\xfe", "line\u2028sep\u2029")
	f.Add(kindIndex(event.KindSvcEnter), uint8(0), math.MinInt, int64(5), int64(0), uint64(0), 0.0, "\t\n\r\b\f", "")

	f.Fuzz(func(t *testing.T, kind, ctx uint8, code int, tm, start int64, seq uint64, energy float64, thread, obj string) {
		e := event.Event{
			Kind: pfKinds[int(kind)%len(pfKinds)], Ctx: ctx, Code: int32(code),
			Time: sysc.Time(tm), Start: sysc.Time(start), Seq: seq,
			Energy: petri.Energy(energy), Thread: &event.Subject{Index: 1, Name: thread}, Obj: obj,
		}
		b := event.NewBus()
		var got, want bytes.Buffer
		p := AttachPerfetto(b, &got)
		o := attachOracle(b, &want)
		kernel := e
		kernel.Thread = nil
		for _, ev := range []event.Event{e, kernel, e} {
			b.Publish(ev)
		}
		gotErr, wantErr := p.Close(), o.Close()
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("Close error %q, oracle %q", errText(gotErr), errText(wantErr))
		}
		if p.Events() != o.n {
			t.Fatalf("%d records, oracle %d", p.Events(), o.n)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trace differs from the encoding/json oracle\n got: %q\nwant: %q", got.Bytes(), want.Bytes())
		}
	})
}

var steadySubject = &event.Subject{Index: 1, Name: "worker"}

// steadyEvent is a kind's event on an already-named thread, with every
// field the encoder reads set.
func steadyEvent(k event.Kind) event.Event {
	return event.Event{Kind: k, Ctx: uint8(CtxTask), Code: -18, Time: 5 * sysc.Ms, Start: 2 * sysc.Ms,
		Seq: 3, Energy: 1e-3, Thread: steadySubject, Obj: "tk_wai_sem"}
}

// TestPerfettoSteadyStateAllocs pins the encoder's allocation budget: once
// a thread has its row and the record buffer has grown, encoding an event
// of any exported kind allocates nothing.
func TestPerfettoSteadyStateAllocs(t *testing.T) {
	p := AttachPerfetto(event.NewBus(), io.Discard)
	for _, k := range pfKinds {
		e := steadyEvent(k)
		p.handle(e) // first sight of the thread, buffer growth
		if n := testing.AllocsPerRun(100, func() { p.handle(e) }); n != 0 {
			t.Errorf("%v: %v allocs per event, want 0", k, n)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPerfettoHandle is the per-event Perfetto encode cost: one event
// of each exported kind in turn, on a known thread, into io.Discard.
func BenchmarkPerfettoHandle(b *testing.B) {
	p := AttachPerfetto(event.NewBus(), io.Discard)
	events := make([]event.Event, len(pfKinds))
	for i, k := range pfKinds {
		events[i] = steadyEvent(k)
		p.handle(events[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.handle(events[i%len(events)])
	}
	b.StopTimer()
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestPerfettoMicros checks the integer microsecond formatter against
// encoding/json on us(t) at the edges of its range and on random times
// across it.
func TestPerfettoMicros(t *testing.T) {
	times := []sysc.Time{0, 1, -1, 999_999, 1_000_000, 1_000_001, 120_000_000,
		999_999_999_999_999, -999_999_999_999_999, 1_000_000_000_000_000,
		-1_000_000_000_000_000, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		mag := int64(1) << rng.Intn(51)
		times = append(times, sysc.Time(rng.Int63n(2*mag)-mag))
	}
	p := &Perfetto{}
	for _, tm := range times {
		p.buf = p.buf[:0]
		p.micros(tm)
		want, err := json.Marshal(us(tm))
		if err != nil {
			t.Fatal(err)
		}
		if string(p.buf) != string(want) {
			t.Fatalf("micros(%d) = %s, encoding/json %s", tm, p.buf, want)
		}
	}
}

// writeSizes records the length of every write it takes.
type writeSizes struct {
	bytes.Buffer
	sizes []int
}

func (w *writeSizes) Write(b []byte) (int, error) {
	w.sizes = append(w.sizes, len(b))
	return w.Buffer.Write(b)
}

// TestPerfettoWritesChunks: the exporter hands its writer pfChunk bytes at
// a time while the run goes on, Close writes the rest, and the bytes equal
// one buffered write of the whole trace.
func TestPerfettoWritesChunks(t *testing.T) {
	var w writeSizes
	var whole bytes.Buffer
	b := event.NewBus()
	p := AttachPerfetto(b, &w)
	o := attachOracle(b, &whole)
	for i := 0; i < 3000; i++ {
		e := steadyEvent(pfKinds[i%len(pfKinds)])
		e.Time += sysc.Time(i) * sysc.Us
		b.Publish(e)
	}
	if len(w.sizes) < 3 {
		t.Fatalf("%d writes before Close for %d bytes of records", len(w.sizes), w.Len())
	}
	for i, n := range w.sizes {
		if n != pfChunk {
			t.Fatalf("write %d took %d bytes, want %d", i, n, pfChunk)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if last := w.sizes[len(w.sizes)-1]; last == 0 || last > pfChunk {
		t.Fatalf("Close wrote %d bytes", last)
	}
	if !bytes.Equal(w.Bytes(), whole.Bytes()) {
		t.Fatal("chunked trace differs from the encoding/json oracle's")
	}
}
