package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestParse feeds captured `go test -bench` lines through the parser: the
// custom metric, ns/op, and the -benchmem B/op and allocs/op columns, with
// the GOMAXPROCS suffix stripped from each name.
func TestParse(t *testing.T) {
	type entry struct {
		config, ns, bytes, allocs float64
		hasMetric, hasMem         bool
	}
	for _, tc := range []struct {
		line string
		name string
		want entry
	}{
		{
			line: "BenchmarkPortAccess-2   	12478089	        95.81 ns/op	       0 B/op	       0 allocs/op",
			name: "BenchmarkPortAccess",
			want: entry{ns: 95.81, hasMem: true},
		},
		{
			line: "BenchmarkFlagWaitWake-2   	  848714	      1382 ns/op	      88 B/op	       5 allocs/op",
			name: "BenchmarkFlagWaitWake",
			want: entry{ns: 1382, bytes: 88, allocs: 5, hasMem: true},
		},
		{
			line: "BenchmarkTable2CoSimSpeed/gui=off/frame=off-2  	      12	  93412345 ns/op	      1070 simsec/s	  204 B/op	   3 allocs/op",
			name: "BenchmarkTable2CoSimSpeed/gui=off/frame=off",
			want: entry{config: 1070, ns: 93412345, bytes: 204, allocs: 3, hasMetric: true, hasMem: true},
		},
		{ // without -benchmem
			line: "BenchmarkSyntheticCoSimSpeed-8 	       5	 240000000 ns/op	       566.0 simsec/s",
			name: "BenchmarkSyntheticCoSimSpeed",
			want: entry{config: 566, ns: 240000000, hasMetric: true},
		},
	} {
		rep, err := parse(strings.NewReader("goos: linux\n"+tc.line+"\nPASS\n"), io.Discard, "simsec/s")
		if err != nil {
			t.Fatal(err)
		}
		var got entry
		got.config, got.hasMetric = rep.Configs[tc.name]
		got.ns = rep.NsPerOp[tc.name]
		got.bytes, got.hasMem = rep.BytesPerOp[tc.name]
		got.allocs = rep.AllocsPerOp[tc.name]
		if _, ok := rep.AllocsPerOp[tc.name]; ok != got.hasMem {
			t.Errorf("%s: B/op recorded %v, allocs/op %v", tc.name, got.hasMem, ok)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.line, got, tc.want)
		}
	}
}

// TestParseEchoes checks that every input line passes through unchanged.
func TestParseEchoes(t *testing.T) {
	in := "goos: linux\nBenchmarkX-4 \t 10 \t 5 ns/op\nok  \trepro\t0.1s\n"
	var out strings.Builder
	if _, err := parse(strings.NewReader(in), &out, "simsec/s"); err != nil {
		t.Fatal(err)
	}
	if out.String() != in {
		t.Fatalf("echo = %q, want %q", out.String(), in)
	}
}
