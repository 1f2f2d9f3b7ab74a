package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/event"
	"repro/internal/sysc"
)

// Perfetto streams kernel events into the Chrome trace-event JSON format
// (the "JSON Array Format"), which ui.perfetto.dev and chrome://tracing load
// directly. Charged run slices become complete ("X") events with durations;
// kernel dynamics (dispatch, preemption, interrupts, service calls, timer
// fires...) become instant ("i") events on the owning thread's row, or on a
// synthetic "kernel" row when no thread is involved.
//
// The exporter writes incrementally — each event is encoded and flushed to
// the underlying writer as it is published, so arbitrarily long runs never
// buffer the whole trace in memory. Output is deterministic: records are
// emitted in publish order with fixed field order, so two runs of the same
// seeded model produce byte-identical files. Records are appended into one
// reused buffer, so a steady-state event costs no allocation.
type Perfetto struct {
	w         *bufio.Writer
	sub       *event.Subscription
	tids      map[string]int // row per thread name, in first-sight order
	bySubject event.SubjectCache[int]
	nextTid   int
	n         int    // records written
	buf       []byte // the record being encoded
	err       error
}

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
		w:       bufio.NewWriter(w),
		tids:    map[string]int{},
		nextTid: tidKernel + 1,
	}
	p.w.WriteString("[")
	p.meta("process_name", tidKernel, "rtk-spec-tron")
	p.meta("thread_name", tidKernel, "kernel")
	p.sub = b.Subscribe(p.handle, pfKinds...)
	return p
}

// Close detaches the exporter from the bus, terminates the JSON array and
// flushes. It returns the first write or encode error encountered.
func (p *Perfetto) Close() error {
	p.sub.Close()
	p.w.WriteString("\n]\n")
	if err := p.w.Flush(); err != nil && p.err == nil {
		p.err = err
	}
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

func (p *Perfetto) handle(e event.Event) {
	if p.err != nil {
		return
	}
	tid := p.tid(&e) // a new thread's metadata record goes first
	switch e.Kind {
	case event.KindRunSlice:
		cat := Context(e.Ctx).String()
		name := e.Obj
		if name == "" {
			name = cat
		}
		p.open(name, cat, "X", e.Start)
		p.raw(`,"dur":`)
		p.micros(e.Time - e.Start)
		p.row(tid)
		p.raw(`,"args":{"energy_j":`)
		p.float(float64(e.Energy))
		p.raw("}}")
	case event.KindSvcExit:
		p.instant(e, tid, e.Obj)
		p.raw(`,"args":{"er":`)
		p.buf = strconv.AppendInt(p.buf, int64(e.Code), 10)
		p.raw("}}")
	case event.KindSvcEnter:
		p.instant(e, tid, e.Obj)
		p.raw("}")
	case event.KindPreempt, event.KindBlock, event.KindRelease:
		p.instant(e, tid, e.Kind.String())
		if e.Obj != "" {
			p.raw(`,"args":{"detail":`)
			p.str(e.Obj)
			p.raw("}")
		}
		p.raw("}")
	case event.KindIntEnter:
		p.instant(e, tid, e.Kind.String())
		p.raw(`,"args":{"depth":`)
		p.buf = strconv.AppendUint(p.buf, e.Seq, 10)
		p.raw("}}")
	case event.KindTimerFire:
		p.instant(e, tid, e.Kind.String())
		p.raw(`,"args":{"armed_us":`)
		p.micros(e.Start)
		p.raw(`,"seq":`)
		p.buf = strconv.AppendUint(p.buf, e.Seq, 10)
		p.raw("}}")
	default:
		p.instant(e, tid, e.Kind.String())
		p.raw("}")
	}
	p.commit()
}

// instant opens an "i" record for e on row tid, up to its "s" field.
func (p *Perfetto) instant(e event.Event, tid int, name string) {
	p.open(name, e.Kind.String(), "i", e.Time)
	p.row(tid)
	p.raw(`,"s":"t"`)
}

// meta emits an "M" record naming a process or thread row.
func (p *Perfetto) meta(name string, tid int, value string) {
	p.buf = p.separator(p.buf[:0])
	p.raw(`{"name":`)
	p.str(name)
	p.raw(`,"ph":"M"`)
	p.row(tid)
	p.raw(`,"args":{"name":`)
	p.str(value)
	p.raw("}}")
	p.commit()
}

// open starts a record in p.buf: the array separator, then the name, cat,
// ph and ts fields.
func (p *Perfetto) open(name, cat, ph string, ts sysc.Time) {
	p.buf = p.separator(p.buf[:0])
	p.raw(`{"name":`)
	p.str(name)
	p.raw(`,"cat":`)
	p.str(cat)
	p.raw(`,"ph":`)
	p.str(ph)
	p.raw(`,"ts":`)
	p.micros(ts)
}

// separator appends what precedes the next record in the array.
func (p *Perfetto) separator(b []byte) []byte {
	if p.n > 0 {
		return append(b, ",\n"...)
	}
	return append(b, '\n')
}

// row appends the pid and tid fields.
func (p *Perfetto) row(tid int) {
	p.raw(`,"pid":`)
	p.buf = strconv.AppendInt(p.buf, pfPid, 10)
	p.raw(`,"tid":`)
	p.buf = strconv.AppendInt(p.buf, int64(tid), 10)
}

func (p *Perfetto) raw(s string) { p.buf = append(p.buf, s...) }

// str appends s as a JSON string. Printable ASCII that encoding/json leaves
// unescaped is copied as is; any other string goes through json.Marshal,
// so HTML escaping, control bytes, invalid UTF-8 and U+2028/2029 come out
// exactly as encoding/json writes them.
func (p *Perfetto) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			p.buf = append(p.buf, q...)
			return
		}
	}
	p.buf = append(p.buf, '"')
	p.buf = append(p.buf, s...)
	p.buf = append(p.buf, '"')
}

// float appends f as encoding/json formats a float64: shortest round-trip
// digits, exponent form below 1e-6 and from 1e21 up, and a one-digit
// negative exponent without its leading zero. NaN and ±Inf set p.err to
// json.Marshal's UnsupportedValueError, which drops the record at commit.
func (p *Perfetto) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if p.err == nil {
			_, p.err = json.Marshal(f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(p.buf, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	p.buf = b
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

// commit writes the encoded record to the array unless encoding or an
// earlier write failed.
func (p *Perfetto) commit() {
	if p.err != nil {
		return
	}
	if _, err := p.w.Write(p.buf); err != nil {
		p.err = err
		return
	}
	p.n++
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
