package run

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/workload"
)

// The golden digests in testdata/golden.json are an oracle that shares no
// code with the model: for each reference run they hold the deterministic
// Stats (wall-clock fields zeroed) and the SHA-256 of every artifact. They
// were recorded while a goroutine-interpreter engine and the compiled
// program engine both existed and agreed on every byte, so they pin the
// artifacts across any refactor of the T-THREAD engine. There is
// deliberately no update flag: a change that moves a digest must justify
// the new bytes, and the failure message prints what the run produced.

const goldenPath = "testdata/golden.json"

// goldenEntry is the recorded digest of one reference run.
type goldenEntry struct {
	Stats     Stats             `json:"stats"`
	Artifacts map[string]string `json:"artifacts"` // name -> SHA-256 hex
}

var (
	goldenOnce sync.Once
	golden     map[string]goldenEntry
	goldenErr  error
)

func loadGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	goldenOnce.Do(func() {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			goldenErr = err
			return
		}
		goldenErr = json.Unmarshal(b, &golden)
	})
	if goldenErr != nil {
		t.Fatalf("golden digests: %v", goldenErr)
	}
	return golden
}

// digestOf reduces a result to its golden form.
func digestOf(res Result) goldenEntry {
	e := goldenEntry{Stats: res.Stats, Artifacts: map[string]string{}}
	e.Stats.Wall, e.Stats.SimPerWall = 0, 0
	for name, b := range res.Artifacts {
		sum := sha256.Sum256(b)
		e.Artifacts[name] = hex.EncodeToString(sum[:])
	}
	return e
}

// checkGolden runs spec and compares its digest with the entry recorded
// under key.
func checkGolden(t *testing.T, key string, spec Spec) {
	t.Helper()
	want, ok := loadGolden(t)[key]
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	gb, _ := json.Marshal(digestOf(res))
	if !ok {
		t.Fatalf("%s: no golden entry; the run produced\n%q: %s", key, key, gb)
	}
	if wb, _ := json.Marshal(want); string(gb) != string(wb) {
		t.Errorf("%s: digest mismatch\n got: %s\nwant: %s", key, gb, wb)
	}
}

// TestGoldenFacade pins the shapes of the benchmark's façade specs at
// seeds 1-3: the paper's case study with a 10 ms frame, a generated
// synthetic set, the chaos campaign the serving benchmark deduplicates and
// a traced synthetic run.
func TestGoldenFacade(t *testing.T) {
	off := false
	for seed := uint64(1); seed <= 3; seed++ {
		cases := []struct {
			label string
			spec  Spec
		}{
			{"videogame", Spec{Dur: simMs(5000), Seed: seed, GUI: &off, Frame: simMs(10),
				Artifacts: []string{ArtifactConsole}}},
			{"synthetic", Spec{Scenario: ScenarioSynthetic, Dur: simMs(5000), Seed: seed,
				Synthetic: &SyntheticSpec{Gen: &workload.GenSpec{Tasks: 8, Util: 0.7, Interrupts: 2}},
				Artifacts: []string{ArtifactMetrics}}},
			{"chaos", Spec{Scenario: ScenarioChaos, Dur: simMs(40), Seed: seed,
				Chaos:     &ChaosSpec{Seeds: 2, Tasks: 4, Faults: 3},
				Artifacts: []string{ArtifactSummary}}},
			{"stream", Spec{Scenario: ScenarioSynthetic, Dur: simMs(1000), Seed: seed, Stream: true,
				Synthetic: &SyntheticSpec{Gen: &workload.GenSpec{Tasks: 10, Util: 0.7, Interrupts: 2}},
				Artifacts: []string{ArtifactTrace, ArtifactMetrics}}},
		}
		for _, tc := range cases {
			key := fmt.Sprintf("facade/%s/seed%d", tc.label, seed)
			t.Run(fmt.Sprintf("%s/seed%d", tc.label, seed), func(t *testing.T) { checkGolden(t, key, tc.spec) })
		}
	}
}

// TestEngineDiffVideogame checks the videogame scenario's full artifact set
// — Perfetto trace, metrics report, gantt, DS listing, console digest —
// across the paper's headline configurations against the golden digests.
// (The name predates the single engine: these cases were the differential
// suite between the two T-THREAD engines that recorded the digests.)
func TestEngineDiffVideogame(t *testing.T) {
	arts := []string{ArtifactConsole, ArtifactTrace, ArtifactMetrics, ArtifactGantt, ArtifactDS}
	off := false
	cases := []struct {
		label string
		spec  Spec
	}{
		{"default", Spec{Dur: simMs(300), Artifacts: arts}},
		{"seeded", Spec{Dur: simMs(300), Seed: 7, Artifacts: arts}},
		{"gui-off", Spec{Dur: simMs(300), GUI: &off, Artifacts: arts}},
		{"frame-off", Spec{Dur: simMs(300), Frame: -1, Artifacts: arts}},
		{"idle-sleep", Spec{Dur: simMs(300), IdleSleep: simMs(5), Artifacts: arts}},
		{"tickless-off", Spec{Dur: simMs(300), Tickless: &off, Artifacts: arts}},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) { checkGolden(t, "videogame/"+tc.label, tc.spec) })
	}
}

// TestEngineDiffChaos checks the 20-seed campaign's summary and repro
// artifacts, and each seed's single-job replay with its streamed Perfetto
// trace, against the golden digests.
func TestEngineDiffChaos(t *testing.T) {
	const seeds = 20
	checkGolden(t, "chaos/campaign", Spec{
		Scenario:  ScenarioChaos,
		Seed:      42,
		Chaos:     &ChaosSpec{Seeds: seeds, Workers: 1},
		Artifacts: []string{ArtifactSummary, ArtifactRepro},
	})
	if testing.Short() {
		t.Skip("per-seed trace replays skipped in -short mode")
	}
	for job := 0; job < seeds; job++ {
		job := job
		t.Run(fmt.Sprintf("job%02d", job), func(t *testing.T) {
			checkGolden(t, fmt.Sprintf("chaos/job%02d", job), Spec{
				Scenario:  ScenarioChaos,
				Seed:      42,
				Chaos:     &ChaosSpec{Job: &job},
				Artifacts: []string{ArtifactSummary, ArtifactTrace},
			})
		})
	}
}

// TestEngineDiffSynthetic checks the Perfetto trace, metrics report and
// resolved task-set artifacts of 10 generated task sets against the golden
// digests.
func TestEngineDiffSynthetic(t *testing.T) {
	arts := []string{ArtifactTrace, ArtifactMetrics, ArtifactTaskSet}
	for seed := uint64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			checkGolden(t, fmt.Sprintf("synthetic/seed%02d", seed), Spec{
				Scenario:  ScenarioSynthetic,
				Seed:      seed,
				Dur:       simMs(200),
				Synthetic: &SyntheticSpec{Gen: &workload.GenSpec{}},
				Artifacts: arts,
			})
		})
	}
}

// simMs builds a Duration of n simulated milliseconds.
func simMs(n int64) Duration { return Duration(n * 1e6) }
