package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsQuoteBenchBaseline keeps the S/R figures quoted in EXPERIMENTS.md
// and README.md equal to BENCH_sysc.json, to the precision each document
// prints: the Table 2 rows and the RTOS-level headline row of
// EXPERIMENTS.md, and README's "Table 2 <config>" speed rows.
func TestDocsQuoteBenchBaseline(t *testing.T) {
	raw, err := os.ReadFile("BENCH_sysc.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Configs map[string]float64 `json:"configs"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(doc, config, quoted string) {
		t.Helper()
		v, ok := bench.Configs["BenchmarkTable2CoSimSpeed/"+config]
		if !ok {
			t.Errorf("%s quotes %s, which BENCH_sysc.json does not record", doc, config)
			return
		}
		decimals := 0
		if i := strings.IndexByte(quoted, '.'); i >= 0 {
			decimals = len(quoted) - i - 1
		}
		if want := fmt.Sprintf("%.*f", decimals, v); want != quoted {
			t.Errorf("%s quotes %s simsec/s for %s; BENCH_sysc.json has %v (prints as %s)",
				doc, quoted, config, v, want)
		}
	}

	experiments := readDoc(t, "EXPERIMENTS.md")
	table2 := section(t, experiments, "## Table 2")
	rows := regexp.MustCompile(`(?m)^\| (off|on) +\| (off|\d+) ?(?:ms)? *\| ([0-9.]+) \|$`).
		FindAllStringSubmatch(table2, -1)
	if len(rows) != 10 {
		t.Fatalf("EXPERIMENTS.md Table 2: parsed %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		frame := r[2]
		if frame != "off" {
			frame += "ms"
		}
		check("EXPERIMENTS.md Table 2", "gui="+r[1]+"/frame="+frame, r[3])
	}
	head := regexp.MustCompile(`(?m)^\| RTOS level \(this reproduction, max BFM rate\) \| ([0-9.]+) \|$`).
		FindStringSubmatch(section(t, experiments, "## Headline claim"))
	if head == nil {
		t.Fatal("EXPERIMENTS.md: no RTOS-level headline row")
	}
	check("EXPERIMENTS.md headline", "gui=off/frame=10ms", head[1])

	readme := regexp.MustCompile(`(?m)^\| Table 2 (\S+) +\| ([0-9.]+) simsec/s +\|$`).
		FindAllStringSubmatch(readDoc(t, "README.md"), -1)
	if len(readme) == 0 {
		t.Fatal("README.md: no Table 2 speed rows")
	}
	for _, r := range readme {
		check("README.md", r[1], r[2])
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// section returns the text from the heading starting with prefix up to the
// next level-2 heading.
func section(t *testing.T, doc, prefix string) string {
	t.Helper()
	i := strings.Index(doc, "\n"+prefix)
	if i < 0 {
		t.Fatalf("no section %q", prefix)
	}
	s := doc[i+1:]
	if j := strings.Index(s[len(prefix):], "\n## "); j >= 0 {
		s = s[:len(prefix)+j]
	}
	return s
}
