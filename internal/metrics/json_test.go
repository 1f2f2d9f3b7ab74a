package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/sysc"
)

// oracleJSON is WriteJSON's former encoder, kept here as the reference for
// Report.AppendJSON: encoding/json's Encoder with a two-space indent.
func oracleJSON(r Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(r)
	return buf.Bytes(), err
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAppendJSON encodes r after a prefix and requires the oracle's bytes
// and error, the prefix untouched, and no more bytes than jsonSize allows.
func checkAppendJSON(t *testing.T, r Report) {
	t.Helper()
	want, wantErr := oracleJSON(r)
	prefix := []byte("prefix")
	got, err := r.AppendJSON(prefix)
	if errText(err) != errText(wantErr) {
		t.Fatalf("error %q, encoding/json %q", errText(err), errText(wantErr))
	}
	if !bytes.Equal(got[:len(prefix)], []byte("prefix")) {
		t.Fatalf("prefix overwritten: %q", got[:len(prefix)])
	}
	got = got[len(prefix):]
	if err != nil {
		if len(got) != 0 {
			t.Fatalf("wrote %q before failing", got)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report differs from encoding/json\n got: %q\nwant: %q", got, want)
	}
	if n := r.jsonSize(); len(got) > n {
		t.Fatalf("encoded %d bytes, jsonSize bounds it at %d", len(got), n)
	}
}

// FuzzMetricsReport sets every field of a report from the fuzzer, with
// row slices nil, empty, or holding one or two rows, and holds
// AppendJSON to encoding/json's bytes and errors.
func FuzzMetricsReport(f *testing.F) {
	f.Add("worker", "task", 6000.0, 4000.0, 0.003, 3000.0, 2000.0, 5000.0, 0.5, uint64(3), uint64(1), uint8(0xff))
	f.Add("", "", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint64(0), uint64(0), uint8(0))
	f.Add("q\"uote\\<a&b>", "ctl\x00\x1f\x7f", 5e-7, 1e21, -1.5e-300, -0.0, 1e-6, 123456789.125, 1e20,
		uint64(math.MaxUint64), uint64(1)<<40, uint8(0x5a))
	f.Add("bad\xff\xfe", "line\u2028sep\u2029", math.NaN(), 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, uint64(1), uint64(2), uint8(0x0f))
	f.Add("tâche", "bfm", 1.0, math.Inf(1), 2.0, 3.0, 4.0, 5.0, 6.0, uint64(1), uint64(2), uint8(0xf0))
	f.Add("t", "idle", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, math.Inf(-1), uint64(7), uint64(9), uint8(0x33))
	f.Add("t", "idle", 1.0, 2.0, 3.0, 4.0, math.NaN(), 6.0, 7.0, uint64(7), uint64(9), uint8(0x03))

	f.Fuzz(func(t *testing.T, thread, context string, sim, cet, cee, sum, mx, tus, joules float64,
		a, b uint64, shape uint8) {
		hist := func(seed uint64, sum, mx float64) Histogram {
			h := Histogram{Count: seed, SumUs: sum, MaxUs: mx}
			for i := range h.Buckets {
				h.Buckets[i] = seed>>uint(i) ^ b<<uint(i)
			}
			return h
		}
		tasks := []TaskMetrics{
			{Thread: thread, Dispatches: a, Preemptions: b, CETUs: cet, CEEJoules: cee,
				DispatchLatency: hist(a, sum, mx), WaitTime: hist(b, mx, sum)},
			{Thread: thread + context, Dispatches: b, Preemptions: a, CETUs: -cee, CEEJoules: -cet,
				DispatchLatency: hist(a^b, -sum, -mx), WaitTime: hist(a+b, sum*mx, sum/3)},
		}
		contexts := []ContextMetrics{
			{Context: context, TimeUs: tus, Joules: joules, Slices: a},
			{Context: context + thread, TimeUs: -joules, Joules: tus * sim, Slices: b},
		}
		r := Report{SimTimeUs: sim}
		// Two bits per row slice: nil, empty, one row, two rows.
		if n := int(shape & 3); n > 0 {
			r.Tasks = tasks[:n-1]
		}
		if n := int(shape >> 2 & 3); n > 0 {
			r.Contexts = contexts[:n-1]
		}
		checkAppendJSON(t, r)
	})
}

// collectorOf feeds a collector a steady stream over n threads: each is
// activated, dispatched, charged task, service and handler slices, and
// blocked and released.
func collectorOf(n int) *Collector {
	b := event.NewBus()
	c := Attach(b)
	at := sysc.Time(0)
	for i := 0; i < n; i++ {
		s := subject(fmt.Sprintf("task%02d", i))
		b.Publish(event.Event{Kind: event.KindActivate, Thread: s, Time: at})
		at += sysc.Time(i+1) * 7 * sysc.Us
		b.Publish(event.Event{Kind: event.KindDispatch, Thread: s, Time: at})
		for ctx := uint8(1); ctx <= 3; ctx++ {
			b.Publish(event.Event{Kind: event.KindRunSlice, Thread: s, Ctx: ctx,
				Start: at, Time: at + 13*sysc.Us, Energy: petri.Energy(i) * petri.MilliJ / 3})
			at += 13 * sysc.Us
		}
		b.Publish(event.Event{Kind: event.KindBlock, Thread: s, Time: at})
		at += sysc.Time(i) * sysc.Ms
		b.Publish(event.Event{Kind: event.KindRelease, Thread: s, Time: at})
	}
	return c
}

// TestWriteJSONMatchesEncoder holds WriteJSON on a collected report to
// the encoding/json oracle.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		c := collectorOf(n)
		want, err := oracleJSON(c.Report())
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := c.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%d tasks: WriteJSON differs from encoding/json\n got: %s\nwant: %s", n, got.Bytes(), want)
		}
	}
}

// TestWriteJSONNonFinite: a NaN in the report fails WriteJSON with
// encoding/json's error and writes nothing.
func TestWriteJSONNonFinite(t *testing.T) {
	c := collectorOf(2)
	c.tasks["task01"].m.CEEJoules = math.NaN()
	var got bytes.Buffer
	_, want := oracleJSON(c.Report())
	if err := c.WriteJSON(&got); want == nil || errText(err) != errText(want) {
		t.Fatalf("error %q, encoding/json %q", errText(err), errText(want))
	}
	if got.Len() != 0 {
		t.Fatalf("wrote %d bytes before failing", got.Len())
	}
}

// TestMetricsWriteJSONAllocs pins WriteJSON's allocation budget: the task
// rows, the context rows and the output buffer, however many tasks the
// report holds.
func TestMetricsWriteJSONAllocs(t *testing.T) {
	const budget = 3
	for _, n := range []int{10, 100} {
		c := collectorOf(n)
		allocs := testing.AllocsPerRun(50, func() {
			if err := c.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%d tasks: %v allocs per WriteJSON, want at most %d", n, allocs, budget)
		}
	}
}

// BenchmarkMetricsWriteJSON is the cost of one metrics.json for a
// ten-task report.
func BenchmarkMetricsWriteJSON(b *testing.B) {
	c := collectorOf(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
