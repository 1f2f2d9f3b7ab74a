package metrics

import (
	"strconv"

	"repro/internal/jsonenc"
)

// AppendJSON appends the report to dst exactly as encoding/json's Encoder
// with SetIndent("", "  ") writes it: the struct tags' field names in
// declaration order, two-space indentation, null for a nil row slice,
// HTML-safe strings and a trailing newline. A NaN or infinite field
// returns encoding/json's UnsupportedValueError and dst unchanged.
func (r *Report) AppendJSON(dst []byte) ([]byte, error) {
	e := encoder{b: dst}
	e.raw("{\n  \"sim_time_us\": ")
	e.float(r.SimTimeUs)
	e.raw(",\n  \"tasks\": ")
	switch {
	case r.Tasks == nil:
		e.raw("null")
	case len(r.Tasks) == 0:
		e.raw("[]")
	default:
		e.raw("[\n")
		for i := range r.Tasks {
			if i > 0 {
				e.raw(",\n")
			}
			e.task(&r.Tasks[i])
		}
		e.raw("\n  ]")
	}
	e.raw(",\n  \"contexts\": ")
	switch {
	case r.Contexts == nil:
		e.raw("null")
	case len(r.Contexts) == 0:
		e.raw("[]")
	default:
		e.raw("[\n")
		for i := range r.Contexts {
			if i > 0 {
				e.raw(",\n")
			}
			e.context(&r.Contexts[i])
		}
		e.raw("\n  ]")
	}
	e.raw("\n}\n")
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// encoder appends JSON to b and keeps the first error.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) raw(s string)  { e.b = append(e.b, s...) }
func (e *encoder) str(s string)  { e.b = jsonenc.AppendString(e.b, s) }
func (e *encoder) uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }
func (e *encoder) float(f float64) {
	var err error
	if e.b, err = jsonenc.AppendFloat(e.b, f); err != nil && e.err == nil {
		e.err = err
	}
}

// task appends one row of "tasks" at its indentation.
func (e *encoder) task(t *TaskMetrics) {
	e.raw("    {\n      \"thread\": ")
	e.str(t.Thread)
	e.raw(",\n      \"dispatches\": ")
	e.uint(t.Dispatches)
	e.raw(",\n      \"preemptions\": ")
	e.uint(t.Preemptions)
	e.raw(",\n      \"cet_us\": ")
	e.float(t.CETUs)
	e.raw(",\n      \"cee_j\": ")
	e.float(t.CEEJoules)
	e.raw(",\n      \"dispatch_latency\": ")
	e.histogram(&t.DispatchLatency)
	e.raw(",\n      \"wait_time\": ")
	e.histogram(&t.WaitTime)
	e.raw("\n    }")
}

// histogram appends a task row's histogram object.
func (e *encoder) histogram(h *Histogram) {
	e.raw("{\n        \"count\": ")
	e.uint(h.Count)
	e.raw(",\n        \"sum_us\": ")
	e.float(h.SumUs)
	e.raw(",\n        \"max_us\": ")
	e.float(h.MaxUs)
	e.raw(",\n        \"log2_us_buckets\": [")
	for i, n := range h.Buckets {
		if i > 0 {
			e.raw(",")
		}
		e.raw("\n          ")
		e.uint(n)
	}
	e.raw("\n        ]\n      }")
}

// context appends one row of "contexts" at its indentation.
func (e *encoder) context(c *ContextMetrics) {
	e.raw("    {\n      \"context\": ")
	e.str(c.Context)
	e.raw(",\n      \"time_us\": ")
	e.float(c.TimeUs)
	e.raw(",\n      \"joules\": ")
	e.float(c.Joules)
	e.raw(",\n      \"slices\": ")
	e.uint(c.Slices)
	e.raw("\n    }")
}

// Upper bounds of the encoded sizes, so WriteJSON sizes its buffer once:
// the encoding of a zero-valued report or row, plus the widest a number
// can grow past its zero's one byte (a float64 takes at most 25 bytes, a
// uint64 20), plus six bytes per name byte for the worst escaping.
var reportBytes, taskBytes, contextBytes = func() (report, task, context int) {
	const grow = 24
	size := func(r Report) int {
		b, _ := r.AppendJSON(nil)
		return len(b)
	}
	report = size(Report{}) + grow
	task = size(Report{Tasks: []TaskMetrics{{}}}) - size(Report{Tasks: []TaskMetrics{}}) +
		len(",\n") + (4+2*(3+histBuckets))*grow
	context = size(Report{Contexts: []ContextMetrics{{}}}) - size(Report{Contexts: []ContextMetrics{}}) +
		len(",\n") + 3*grow
	return report, task, context
}()

// jsonSize bounds the bytes AppendJSON appends for r.
func (r *Report) jsonSize() int {
	n := reportBytes + len(r.Tasks)*taskBytes + len(r.Contexts)*contextBytes
	for i := range r.Tasks {
		n += 6 * len(r.Tasks[i].Thread)
	}
	for i := range r.Contexts {
		n += 6 * len(r.Contexts[i].Context)
	}
	return n
}
