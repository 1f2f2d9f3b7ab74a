package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/event"
	"repro/internal/jsonenc"
	"repro/internal/sysc"
)

// Perfetto streams kernel events into the Chrome trace-event JSON format
// (the "JSON Array Format"), which ui.perfetto.dev and chrome://tracing load
// directly. Charged run slices become complete ("X") events with durations;
// kernel dynamics (dispatch, preemption, interrupts, service calls, timer
// fires...) become instant ("i") events on the owning thread's row, or on a
// synthetic "kernel" row when no thread is involved.
//
// The exporter writes incrementally — each event is encoded as it is
// published and handed to the underlying writer in pfChunk-sized chunks, so
// arbitrarily long runs never buffer the whole trace in memory. Output is
// deterministic: records are emitted in publish order with fixed field
// order, so two runs of the same seeded model produce byte-identical files.
// Records are appended into one reused buffer, so a steady-state event
// costs no allocation.
type Perfetto struct {
	w         io.Writer
	sub       *event.Subscription
	tids      map[string]int // row per thread name, in first-sight order
	bySubject event.SubjectCache[int]
	nextTid   int
	n         int    // records written
	buf       []byte // records not yet written to w, the last one maybe still being encoded
	rec       int    // offset in buf of the record being encoded
	failed    bool   // a write to w failed
	err       error
}

// pfChunk is the size of the writes to the underlying writer: the size the
// job server's streaming reader takes from the spill ring at a time.
const pfChunk = 32 << 10

// tidKernel is the synthetic row carrying events without a subject thread.
const tidKernel = 0

// pfPid is the single process ID used for the whole simulation.
const pfPid = 1

// picosecond -> microsecond (the trace-event ts/dur unit).
const psPerUs = 1e6

// pfKinds is the event subset the exporter records. Quiescent points and
// time advances are deliberately excluded: they occur at every timed-phase
// boundary and would dominate the file without adding visual information.
var pfKinds = []event.Kind{
	event.KindRunSlice,
	event.KindSvcEnter, event.KindSvcExit,
	event.KindDispatch, event.KindPreempt,
	event.KindBlock, event.KindRelease,
	event.KindIntEnter, event.KindIntExit,
	event.KindActivate, event.KindExit, event.KindTerminate,
	event.KindSuspend, event.KindResume,
	event.KindTimerFire,
}

// AttachPerfetto subscribes a streaming exporter to the bus, writing the
// JSON array to w. Call Close after the run to finish the array and flush.
func AttachPerfetto(b *event.Bus, w io.Writer) *Perfetto {
	p := &Perfetto{
		w:       w,
		tids:    map[string]int{},
		nextTid: tidKernel + 1,
		buf:     make([]byte, 0, pfChunk+4<<10),
	}
	p.raw("[")
	p.meta("process_name", tidKernel, "rtk-spec-tron")
	p.meta("thread_name", tidKernel, "kernel")
	p.sub = b.Subscribe(p.handle, pfKinds...)
	return p
}

// Close detaches the exporter from the bus, terminates the JSON array and
// flushes. It returns the first write or encode error encountered.
func (p *Perfetto) Close() error {
	p.sub.Close()
	p.raw("\n]\n")
	p.write(len(p.buf))
	return p.err
}

// Events returns the number of trace records written so far.
func (p *Perfetto) Events() int { return p.n }

// tid returns the row for e's thread, assigning one (and emitting its
// thread_name metadata) on first sight of the name. Events without a
// subject thread go to the kernel row.
func (p *Perfetto) tid(e *event.Event) int {
	if id, ok := p.bySubject.Get(e.Thread); ok {
		return id
	}
	thread := e.ThreadName()
	if thread == "" {
		return tidKernel
	}
	id, ok := p.tids[thread]
	if !ok {
		id = p.nextTid
		p.nextTid++
		p.tids[thread] = id
		p.meta("thread_name", id, thread)
	}
	p.bySubject.Put(e.Thread, id)
	return id
}

// The encoder below appends each record into p.buf by hand and reproduces
// what encoding/json made of the struct-and-map records it replaces, byte
// for byte: fixed field order, sorted arg keys, no "args" on an event
// without arguments, encoding/json's float and string formatting. The
// differential fuzz test FuzzPerfettoRecord holds it to that oracle.

// Record heads that depend only on the event kind or context, built once
// through the run-time string encoder so their bytes cannot drift from it.
var (
	// kindHead opens an instant named after its kind, up to the ts value.
	kindHead [256]string
	// kindCat continues an instant whose name came first (a service call)
	// from the cat field up to the ts value.
	kindCat [256]string
	// sliceCat continues a run slice, per context byte, from the cat field
	// up to the ts value.
	sliceCat [256]string
)

func init() {
	catTs := func(cat, ph string) string {
		b := jsonenc.AppendString([]byte(`,"cat":`), cat)
		b = append(b, `,"ph":`...)
		b = jsonenc.AppendString(b, ph)
		return string(append(b, `,"ts":`...))
	}
	for i := range kindHead {
		kind := event.Kind(i).String()
		kindCat[i] = catTs(kind, "i")
		kindHead[i] = string(jsonenc.AppendString([]byte(`{"name":`), kind)) + kindCat[i]
		sliceCat[i] = catTs(Context(i).String(), "X")
	}
}

// pfRow precedes the tid value of every record; pid is always pfPid.
const pfRow = `,"pid":1,"tid":`

func (p *Perfetto) handle(e event.Event) {
	if p.err != nil {
		return
	}
	tid := p.tid(&e) // a new thread's metadata record goes first
	p.begin()
	switch e.Kind {
	case event.KindRunSlice:
		p.raw(`{"name":`)
		if e.Obj != "" {
			p.str(e.Obj)
		} else {
			p.str(Context(e.Ctx).String())
		}
		p.raw(sliceCat[e.Ctx])
		p.micros(e.Start)
		p.raw(`,"dur":`)
		p.micros(e.Time - e.Start)
		p.row(tid)
		p.raw(`,"args":{"energy_j":`)
		p.float(float64(e.Energy))
		p.raw("}}")
	case event.KindSvcExit:
		p.named(e, tid)
		p.raw(`,"args":{"er":`)
		p.buf = strconv.AppendInt(p.buf, int64(e.Code), 10)
		p.raw("}}")
	case event.KindSvcEnter:
		p.named(e, tid)
		p.raw("}")
	case event.KindPreempt, event.KindBlock, event.KindRelease:
		p.instant(e, tid)
		if e.Obj != "" {
			p.raw(`,"args":{"detail":`)
			p.str(e.Obj)
			p.raw("}")
		}
		p.raw("}")
	case event.KindIntEnter:
		p.instant(e, tid)
		p.raw(`,"args":{"depth":`)
		p.buf = strconv.AppendUint(p.buf, e.Seq, 10)
		p.raw("}}")
	case event.KindTimerFire:
		p.instant(e, tid)
		p.raw(`,"args":{"armed_us":`)
		p.micros(e.Start)
		p.raw(`,"seq":`)
		p.buf = strconv.AppendUint(p.buf, e.Seq, 10)
		p.raw("}}")
	default:
		p.instant(e, tid)
		p.raw("}")
	}
	p.commit()
}

// instant appends an "i" record for e named after its kind, on row tid,
// up to its "s" field.
func (p *Perfetto) instant(e event.Event, tid int) {
	p.raw(kindHead[e.Kind])
	p.tail(e, tid)
}

// named appends an "i" record for e named e.Obj, on row tid, up to its
// "s" field.
func (p *Perfetto) named(e event.Event, tid int) {
	p.raw(`{"name":`)
	p.str(e.Obj)
	p.raw(kindCat[e.Kind])
	p.tail(e, tid)
}

// tail appends an instant's ts, row and "s" fields.
func (p *Perfetto) tail(e event.Event, tid int) {
	p.micros(e.Time)
	p.row(tid)
	p.raw(`,"s":"t"`)
}

// meta emits an "M" record naming a process or thread row.
func (p *Perfetto) meta(name string, tid int, value string) {
	p.begin()
	p.raw(`{"name":`)
	p.str(name)
	p.raw(`,"ph":"M"`)
	p.row(tid)
	p.raw(`,"args":{"name":`)
	p.str(value)
	p.raw("}}")
	p.commit()
}

// begin starts a record at the end of p.buf with the array separator.
func (p *Perfetto) begin() {
	p.rec = len(p.buf)
	if p.n > 0 {
		p.raw(",\n")
	} else {
		p.raw("\n")
	}
}

// row appends the pid and tid fields.
func (p *Perfetto) row(tid int) {
	p.raw(pfRow)
	p.buf = strconv.AppendInt(p.buf, int64(tid), 10)
}

func (p *Perfetto) raw(s string) { p.buf = append(p.buf, s...) }

func (p *Perfetto) str(s string) { p.buf = jsonenc.AppendString(p.buf, s) }

// float appends f as encoding/json formats a float64. NaN and ±Inf set
// p.err to json.Marshal's UnsupportedValueError, which drops the record at
// commit.
func (p *Perfetto) float(f float64) {
	var err error
	if p.buf, err = jsonenc.AppendFloat(p.buf, f); err != nil && p.err == nil {
		p.err = err
	}
}

// micros appends simulation time t in trace-event microseconds, exactly as
// float formats us(t). Below 1e15 ps, float64(t) is exact and us(t) is the
// correctly rounded value of the decimal t/1e6, which has at most 15
// significant digits; every such decimal survives a float64 round trip,
// so it is also us(t)'s shortest form, and it is written here with integer
// arithmetic. Larger magnitudes take the float path.
func (p *Perfetto) micros(t sysc.Time) {
	const exact = 1e15
	if t <= -exact || t >= exact {
		p.float(us(t))
		return
	}
	if t < 0 {
		p.buf = append(p.buf, '-')
		t = -t
	}
	p.buf = strconv.AppendInt(p.buf, int64(t/psPerUs), 10)
	if frac := int64(t % psPerUs); frac != 0 {
		digits := [7]byte{'.'}
		for i := 6; i > 0; i-- {
			digits[i] = byte('0' + frac%10)
			frac /= 10
		}
		n := len(digits)
		for digits[n-1] == '0' {
			n--
		}
		p.buf = append(p.buf, digits[:n]...)
	}
}

// commit keeps the record begun last unless encoding or an earlier write
// failed, and hands a full chunk to the writer.
func (p *Perfetto) commit() {
	if p.err != nil {
		p.buf = p.buf[:p.rec]
		return
	}
	p.n++
	if len(p.buf) >= pfChunk {
		p.write(pfChunk)
	}
}

// write hands the first n buffered bytes to the writer and moves the rest
// to the front of p.buf. After a failed write the writer takes no more.
func (p *Perfetto) write(n int) {
	if !p.failed {
		if _, err := p.w.Write(p.buf[:n]); err != nil {
			p.failed = true
			if p.err == nil {
				p.err = err
			}
		}
	}
	p.buf = p.buf[:copy(p.buf, p.buf[n:])]
}

// us converts simulation picoseconds to trace-event microseconds.
func us(t sysc.Time) float64 { return float64(t) / psPerUs }

// ValidatePerfetto schema-checks a trace-event JSON array: every record must
// carry a known phase (M/X/i), pid and tid, a numeric ts for X/i records and
// a non-negative dur for X records. It returns the number of records.
func ValidatePerfetto(r io.Reader) (int, error) {
	var recs []map[string]any
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return 0, fmt.Errorf("trace: not a JSON array: %w", err)
	}
	for i, rec := range recs {
		ph, _ := rec["ph"].(string)
		switch ph {
		case "M", "X", "i":
		default:
			return i, fmt.Errorf("trace: record %d: bad ph %q", i, rec["ph"])
		}
		if _, ok := rec["pid"].(float64); !ok {
			return i, fmt.Errorf("trace: record %d: missing pid", i)
		}
		if _, ok := rec["tid"].(float64); !ok {
			return i, fmt.Errorf("trace: record %d: missing tid", i)
		}
		if ph == "M" {
			continue
		}
		if _, ok := rec["ts"].(float64); !ok {
			return i, fmt.Errorf("trace: record %d: missing ts", i)
		}
		if ph == "X" {
			dur, ok := rec["dur"].(float64)
			if !ok || dur < 0 {
				return i, fmt.Errorf("trace: record %d: bad dur %v", i, rec["dur"])
			}
		}
	}
	return len(recs), nil
}
