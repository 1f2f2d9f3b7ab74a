package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON checks BENCHMARK.json against the declared schema and
// against the workloads this package implements.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want 6", len(keys))
	}
	b, err := loadBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, implemented %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics", len(b.EndToEnd))
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(b.PerLayer))
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]MetricSpec(nil), b.EndToEnd...), b.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in s, lower better")
	}
}

// TestSmoke runs every workload at 1% scale, untraced and traced, through
// the same code path as a full run: every gate must pass (including the
// traced run's drift check and every metric being computable) and every
// declared metric must be emitted with its declared unit.
func TestSmoke(t *testing.T) {
	b, err := loadBenchmark("..")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	spool := filepath.Join(out, "spool")
	if err := os.Mkdir(spool, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			c := config{seed: 5, scale: 0.01, spool: spool}
			rep := runWorkload(context.Background(), w, c, float64(b.RunSeconds)*c.scale, traced, out)
			if !rep.Correct || rep.Failed > 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestPutRejectsNonFinite checks that a metric that cannot be computed fails
// the run instead of reading as 0.
func TestPutRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rep := &Report{Correct: true, Metrics: map[string]Metric{}}
		rep.put("x", v, "ms")
		if rep.Correct || len(rep.Errors) != 1 {
			t.Errorf("put(%g): correct=%v errors=%v", v, rep.Correct, rep.Errors)
		}
		if got := rep.Metrics["x"]; got.Value != 0 || got.Unit != "ms" {
			t.Errorf("put(%g) stored %+v", v, got)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := MetricSpec{Name: "x", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{[]float64{100, 99, 101, 100, 98, 102, 100, 99, 101, 100}, "unchanged"},
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "regressed"},
		{[]float64{60, 140, 70, 130, 80, 150, 90, 120, 100, 110}, "unresolved"},
	} {
		if got, _ := verdict(lower, parent, tc.change); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.change, got, tc.want)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: rtkbench
Showing nodes accounting for 400ms, 100% of 400ms total
      flat  flat%   sum%        cum   cum%
     200ms 50.00% 50.00%      300ms 75.00%  repro/internal/sysc.(*Simulator).Start
     100ms 25.00% 75.00%      100ms 25.00%  runtime.mallocgc
      60ms 15.00% 90.00%       60ms 15.00%  net/http.(*conn).serve
      40ms 10.00%   100%       40ms 10.00%  repro/internal/sweep.RunContext[go.shape.struct { a/b.c int }].func1
`)
	shares, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sysc": 50, "runtime": 25, "http": 15, "sweep": 10, "other": 0}
	for m, v := range want {
		if shares[m] != v {
			t.Errorf("share %s = %g, want %g", m, shares[m], v)
		}
	}
	if len(shares) != len(shareModules) {
		t.Errorf("%d shares, want %d", len(shares), len(shareModules))
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := &Benchmark{EndToEnd: []MetricSpec{{Name: "simsec_per_s", Unit: "simsec/s", Better: "higher", Bound: 0.1}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "videogame"})
	var files []string
	for i, v := range []float64{10, 10.1, 10.2, 10.1} {
		rep := Report{Workload: "videogame", Seed: 1, Digest: "d", DigestOps: 8,
			Metrics: map[string]Metric{"simsec_per_s": {Value: v, Unit: "simsec/s"}}}
		data, _ := json.Marshal(rep)
		f := filepath.Join(dir, string(rune('a'+i))+".json")
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	var buf bytes.Buffer
	ok, err := compareFiles(&buf, spec, files)
	if err != nil || !ok {
		t.Fatalf("compare: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("unchanged")) {
		t.Errorf("want an unchanged verdict:\n%s", buf.String())
	}
}
