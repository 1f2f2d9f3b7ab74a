// Command bench is the repository benchmark: co-simulation speed (the
// paper's S/R, simulated seconds per host second) and serving latency on
// five workloads, with a separate traced run that breaks host time down by
// layer. See README.md for the workloads, the metrics and how to read the
// output.
//
//	bash bench/run.sh                                # all workloads, untraced
//	bash bench/run.sh -trace 1                       # all workloads, traced
//	bash bench/run.sh --workload videogame --seed 7  # one workload
//	bash bench/run.sh -compare A1.json B1.json A2.json B2.json
//
// With --workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; without it every workload
// runs in its own child process, each metric prints as
// "workload metric value unit", and bench/out/results.json collects the
// reports.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the input seed when -seed is not given.
const defaultSeed = 1

// exitDeadline bounds one workload process: a run that has not finished by
// then is stopped without printing a result.
const exitDeadline = 175 * time.Second

func main() {
	name := flag.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := flag.Uint64("seed", defaultSeed, "input seed: op i uses seed+i")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds in BENCHMARK.json)")
	traced := flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics, spans.json and trace_overhead")
	compare := flag.Bool("compare", false, "compare result files given as arguments, in (parent, change) pairs: A1 B1 A2 B2 ...")
	flag.Parse()

	root := repoRoot()
	spec, specErr := loadBenchmark(root)
	if *compare {
		if specErr != nil {
			fatal(specErr)
		}
		ok, err := compareFiles(os.Stdout, spec, flag.Args())
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}
	if *seconds <= 0 {
		if specErr != nil {
			fatal(specErr)
		}
		*seconds = float64(spec.RunSeconds)
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(filepath.Join(out, "spool"), 0o755); err != nil {
		fatal(err)
	}
	if *name == "" {
		ok, err := runAll(out, *seed, *seconds, *traced == 1)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, found := lookup(*name)
	if !found {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	time.AfterFunc(exitDeadline, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v\n", *name, exitDeadline)
		os.Exit(2)
	})
	c := config{seed: *seed, scale: 1, spool: filepath.Join(out, "spool")}
	rep := runWorkload(context.Background(), w, c, *seconds, *traced == 1, out)
	for _, line := range reportLines(rep) {
		fmt.Fprintln(os.Stderr, line)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, reportFile(w.name, *traced == 1)), append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// repoRoot finds the directory holding BENCHMARK.json: the working
// directory (how bench/run.sh runs) or its parent (go run and go test in
// bench/).
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

func reportFile(workload string, traced bool) string {
	if traced {
		return workload + ".trace.json"
	}
	return workload + ".json"
}

// reportLines renders a report as "workload metric value unit" lines, with
// the sample description where one exists, then any failure.
func reportLines(rep *Report) []string {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var lines []string
	for _, n := range names {
		m := rep.Metrics[n]
		line := fmt.Sprintf("%s %s %s %s", rep.Workload, n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		if s := rep.Samples[n]; s != "" {
			line += "  (" + s + ")"
		}
		lines = append(lines, line)
	}
	lines = append(lines, fmt.Sprintf("%s ops attempted=%d failed=%d digest=%.16s over %d ops",
		rep.Workload, rep.Attempted, rep.Failed, rep.Digest, rep.DigestOps))
	for _, e := range rep.Errors {
		lines = append(lines, fmt.Sprintf("%s error: %s", rep.Workload, e))
	}
	return lines
}

// Results is the schema of bench/out/results.json.
type Results struct {
	Env       Env                `json:"env"`
	Workloads map[string]*Report `json:"workloads"`
}

// Env stamps where the results were measured.
type Env struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// runAll runs every workload in its own child process of this binary, so
// peak RSS and GC state are per workload, and writes results.json.
func runAll(out string, seed uint64, seconds float64, traced bool) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	res := Results{Env: Env{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit()}, Workloads: map[string]*Report{}}
	ok := true
	for _, w := range workloads {
		tr := "0"
		if traced {
			tr = "1"
		}
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr)
		cmd.Stderr = os.Stderr
		file := filepath.Join(out, reportFile(w.name, traced))
		if err := os.Remove(file); err != nil && !os.IsNotExist(err) {
			return false, err
		}
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			ok = false
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		for _, line := range reportLines(&rep) {
			fmt.Println(line)
		}
		ok = ok && rep.Correct && rep.Failed == 0
		res.Workloads[w.name] = &rep
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(out, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	return ok, nil
}

// commit names the measured source: the build's VCS stamp, else the
// checkout's HEAD, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}
