// Command benchjson converts `go test -bench` output on stdin into a JSON
// record of custom benchmark metrics, so the performance trajectory of the
// simulation engine can be tracked across PRs:
//
//	go test -run '^$' -bench BenchmarkTable2CoSimSpeed -benchtime 2s . \
//	    | go run ./cmd/benchjson -metric simsec/s -out BENCH_sysc.json
//
// Run with -benchmem, go test adds B/op and allocs/op to each line; they
// are recorded next to ns/op.
//
// Stdin is echoed through to stdout, so the harness still shows the live
// benchmark listing while capturing the JSON.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/profiling"
)

// Report is the schema of the emitted JSON file.
type Report struct {
	// Metric is the custom unit captured per configuration.
	Metric string `json:"metric"`
	// Configs maps "Benchmark/sub/config" (GOMAXPROCS suffix stripped) to
	// the metric value.
	Configs map[string]float64 `json:"configs"`
	// NsPerOp maps the same keys to the wall nanoseconds per iteration.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp map the same keys to the heap bytes and
	// allocations per iteration, for benchmarks run with -benchmem.
	BytesPerOp  map[string]float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	metric := flag.String("metric", "simsec/s", "custom metric unit to capture")
	out := flag.String("out", "BENCH_sysc.json", "output JSON file")
	baseline := flag.String("baseline", "", "baseline JSON to guard against: exit 1 if any shared config regresses")
	tolerance := flag.Float64("tolerance", 5, "allowed regression below the baseline metric, in percent")
	prof := profiling.AddFlags()
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	rep, err := parse(os.Stdin, os.Stdout, *metric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(rep.Configs) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no %q metrics found on stdin\n", *metric)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d configs to %s\n", len(rep.Configs), *out)

	if *baseline != "" {
		if err := guard(rep, *baseline, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output from r, echoing every line to echo,
// and collects each benchmark's metric, ns/op, B/op and allocs/op.
func parse(r io.Reader, echo io.Writer, metric string) (Report, error) {
	rep := Report{
		Metric:      metric,
		Configs:     map[string]float64{},
		NsPerOp:     map[string]float64{},
		BytesPerOp:  map[string]float64{},
		AllocsPerOp: map[string]float64{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the trailing -GOMAXPROCS suffix go test appends.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// Value/unit pairs follow the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case metric:
				rep.Configs[name] = v
			case "ns/op":
				rep.NsPerOp[name] = v
			case "B/op":
				rep.BytesPerOp[name] = v
			case "allocs/op":
				rep.AllocsPerOp[name] = v
			}
		}
	}
	return rep, sc.Err()
}

// guard compares the captured metric against a baseline report: any config
// present in both whose metric falls more than tolerance percent below the
// baseline value fails the run. Higher metric = better (simsec/s).
func guard(rep Report, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	checked := 0
	for name, b := range base.Configs {
		v, ok := rep.Configs[name]
		if !ok {
			continue
		}
		checked++
		floor := b * (1 - tolerance/100)
		if v < floor {
			return fmt.Errorf("regression: %s %s = %.1f, baseline %.1f (floor %.1f at -tolerance %g%%)",
				name, rep.Metric, v, b, floor, tolerance)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s %s = %.1f vs baseline %.1f ok\n",
			name, rep.Metric, v, b)
	}
	if checked == 0 {
		return fmt.Errorf("baseline %s shares no configs with this run", path)
	}
	return nil
}
