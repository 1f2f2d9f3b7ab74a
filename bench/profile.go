package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// shareModules are the modules whose self time the traced run attributes:
// the repository's own packages by name, plus the standard-library and
// runtime buckets the serving and simulation paths spend time in. Every
// other function lands in "other", so the shares sum to 100%.
var shareModules = []string{
	"sysc", "core", "tkernel", "sched", "workload", "event", "trace", "metrics",
	"snapshot", "run", "sweep", "server", "router", "cache", "stream", "client",
	"bfm", "app", "chaos", "petri", "http", "json", "runtime", "other",
}

// startProfile starts the process CPU profile into path; the returned stop
// function ends it.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// goTool locates the go command: PATH first, then the toolchain this
// binary was built with.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}

// selfShares aggregates a CPU profile's flat (self) time by module, in
// percent of all samples. It reads the profile through `go tool pprof
// -top`, the standard toolchain's own decoder.
func selfShares(ctx context.Context, profile string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, goTool(), "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop sums the flat column of `pprof -top -unit=ms` output per module.
// Rows look like
//
//	120ms 12.00% 12.00%  300ms 30.00%  repro/internal/sysc.(*Simulator).Start
func parseTop(out []byte) (map[string]float64, error) {
	ms := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		ms[moduleOf(strings.Join(f[5:], " "))] += v
		total += v
	}
	if !header {
		return nil, fmt.Errorf("pprof -top printed no table")
	}
	shares := make(map[string]float64, len(shareModules))
	for _, m := range shareModules {
		shares[m] = 0
		if total > 0 {
			shares[m] = 100 * ms[m] / total
		}
	}
	return shares, nil
}

// moduleOf maps a profiled function name to its share bucket.
func moduleOf(fn string) string {
	// Type arguments and receivers follow the package path and may contain
	// slashes of their own.
	pkg := fn
	if i := strings.IndexAny(pkg, "[( "); i >= 0 {
		pkg = pkg[:i]
	}
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		mod, _, _ := strings.Cut(rest, "/")
		for _, m := range shareModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	switch {
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "http"
	case pkg == "encoding/json":
		return "json"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
