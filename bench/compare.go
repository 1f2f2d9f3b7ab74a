package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Benchmark is the schema of BENCHMARK.json.
type Benchmark struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec declares one metric. Bound (end-to-end only) is the share of
// the parent's median by which the metric may worsen before a change
// counts as a regression.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmark(root string) (*Benchmark, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// loadResults reads a results.json, or a single workload's report file.
func loadResults(path string) (map[string]*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Results
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if res.Workloads != nil {
		return res.Workloads, nil
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil || rep.Workload == "" {
		return nil, fmt.Errorf("%s: neither results.json nor a workload report", path)
	}
	return map[string]*Report{rep.Workload: &rep}, nil
}

// minPairs is the fewest (parent, change) pairs a gain can rest on.
const minPairs = 10

// verdict judges one workload × metric over paired runs, following the
// repository's measurement rules: a gain needs at least minPairs pairs,
// nine tenths of them won and a median shift beyond the parent's own
// quartile spread; a spread wider than the bound leaves the metric
// unresolved unless every change run beats every parent run; otherwise the
// metric regressed when the change's median is worse by more than the
// bound.
func verdict(m MetricSpec, a, b []float64) (string, float64) {
	higher := m.Better == "higher"
	better := func(x, y float64) bool { // x better than y
		if higher {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	frac := float64(wins) / float64(len(a))
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := (mb - ma) / math.Abs(ma)
	if higher {
		worse = -worse
	}
	switch {
	case len(a) >= minPairs && frac >= 0.9 && better(mb, ma) && math.Abs(mb-ma) > q3-q1:
		return "improved", frac
	case m.Bound > 0 && (spread(a) > m.Bound || spread(b) > m.Bound) && !allBetter:
		return "unresolved", frac
	case m.Bound > 0 && worse > m.Bound:
		return "regressed", frac
	}
	return "unchanged", frac
}

// compareFiles prints paired verdicts for result files given as (parent,
// change) pairs, then diffs the digests and per-layer counts, which must
// repeat exactly between runs of one seed. It reports false on any
// regression or mismatch.
func compareFiles(w io.Writer, spec *Benchmark, files []string) (bool, error) {
	if len(files) == 0 || len(files)%2 != 0 {
		return false, fmt.Errorf("-compare wants (parent, change) pairs, got %d files", len(files))
	}
	var sides [2][]map[string]*Report
	for i, f := range files {
		res, err := loadResults(f)
		if err != nil {
			return false, err
		}
		sides[i%2] = append(sides[i%2], res)
	}
	metrics := map[string]MetricSpec{}
	for _, m := range spec.EndToEnd {
		metrics[m.Name] = m
	}
	for _, m := range spec.PerLayer {
		metrics[m.Name] = m
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-32s %12s %12s %12s %12s %6s  %s\n",
		"workload", "metric", "parent q1", "parent med", "change med", "change q3", "won", "verdict")
	for _, wl := range spec.Workloads {
		names := map[string]bool{}
		for _, side := range sides {
			for _, res := range side {
				if rep := res[wl.Name]; rep != nil {
					for n := range rep.Metrics {
						names[n] = true
					}
				}
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			var a, b []float64
			for p := range sides[0] {
				ra, rb := sides[0][p][wl.Name], sides[1][p][wl.Name]
				if ra == nil || rb == nil {
					continue
				}
				ma, oka := ra.Metrics[n]
				mb, okb := rb.Metrics[n]
				if oka && okb {
					a, b = append(a, ma.Value), append(b, mb.Value)
				}
			}
			if len(a) == 0 {
				continue
			}
			m := metrics[n]
			v, frac := "—", 0.0
			if m.Better != "" {
				v, frac = verdict(m, a, b)
			}
			if v == "regressed" {
				ok = false
			}
			q1, ma, _ := quartiles(a)
			_, mb, q3 := quartiles(b)
			fmt.Fprintf(w, "%-14s %-32s %12.5g %12.5g %12.5g %12.5g %5.0f%%  %s\n",
				wl.Name, n, q1, ma, mb, q3, 100*frac, v)
		}
		if !exactAgreement(w, wl.Name, sides) {
			ok = false
		}
	}
	return ok, nil
}

// exactAgreement checks that every run of one seed agrees on the workload
// digest (over the same number of ops) and on the per-layer counts.
func exactAgreement(w io.Writer, workload string, sides [2][]map[string]*Report) bool {
	ok := true
	type key struct {
		seed uint64
		ops  int
	}
	digests := map[key]string{}
	counts := map[uint64]map[string]float64{}
	for _, side := range sides {
		for _, res := range side {
			rep := res[workload]
			if rep == nil {
				continue
			}
			k := key{rep.Seed, rep.DigestOps}
			if d, seen := digests[k]; seen && d != rep.Digest {
				fmt.Fprintf(w, "%-14s digest differs for seed %d over %d ops: %.16s vs %.16s\n",
					workload, rep.Seed, rep.DigestOps, d, rep.Digest)
				ok = false
			}
			digests[k] = rep.Digest
			if rep.Counts == nil {
				continue
			}
			prev := counts[rep.Seed]
			if prev == nil {
				counts[rep.Seed] = rep.Counts
				continue
			}
			for n, v := range rep.Counts {
				if pv, seen := prev[n]; seen && pv != v {
					fmt.Fprintf(w, "%-14s count %s differs for seed %d: %g vs %g\n", workload, n, rep.Seed, pv, v)
					ok = false
				}
			}
		}
	}
	return ok
}
