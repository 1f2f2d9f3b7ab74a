package run

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/workload"
)

// checkpointOf builds the two-leg variant of spec pausing at ms.
func checkpointOf(spec Spec, ms int64) Spec {
	spec.Checkpoint = &CheckpointSpec{At: simMs(ms)}
	return spec
}

// mustExecute runs spec and fails the test on error.
func mustExecute(t *testing.T, label string, spec Spec) Result {
	t.Helper()
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("%s: execute: %v", label, err)
	}
	return res
}

// compareArtifacts asserts both results carry identical bytes for every
// artifact in names.
func compareArtifacts(t *testing.T, label string, a, b Result, names []string) {
	t.Helper()
	for _, name := range names {
		ab, bb := a.Artifacts[name], b.Artifacts[name]
		if len(ab) == 0 {
			t.Errorf("%s: artifact %s empty in reference run", label, name)
			continue
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s: artifact %s differs between runs (%d vs %d bytes)", label, name, len(ab), len(bb))
		}
	}
}

// TestSyntheticCheckpointByteEquality: pausing a synthetic run at a
// quiescent point and continuing is unobservable — a checkpoint run's
// artifacts byte-match the straight run's, per generated task set.
func TestSyntheticCheckpointByteEquality(t *testing.T) {
	arts := []string{ArtifactTrace, ArtifactMetrics, ArtifactGantt, ArtifactTaskSet}
	for seed := uint64(0); seed < 10; seed++ {
		spec := Spec{
			Scenario:  ScenarioSynthetic,
			Seed:      seed,
			Dur:       simMs(200),
			Synthetic: &SyntheticSpec{Gen: &workload.GenSpec{}},
			Artifacts: arts,
		}
		label := fmt.Sprintf("seed%d", seed)
		straight := mustExecute(t, label+"/straight", spec)
		paused := mustExecute(t, label+"/paused", checkpointOf(spec, 100))
		compareArtifacts(t, label, straight, paused, arts)
	}
}

// TestVideogameCheckpointByteEquality: the pause-only checkpoint holds for
// the paper's case study across six configurations.
func TestVideogameCheckpointByteEquality(t *testing.T) {
	arts := []string{ArtifactTrace, ArtifactMetrics, ArtifactGantt,
		ArtifactVCD, ArtifactDS, ArtifactConsole}
	off := false
	configs := []struct {
		label string
		spec  Spec
	}{
		{"default", Spec{Dur: simMs(300)}},
		{"seeded", Spec{Dur: simMs(300), Seed: 7}},
		{"gui-off", Spec{Dur: simMs(300), GUI: &off}},
		{"idle-sleep", Spec{Dur: simMs(300), IdleSleep: simMs(5)}},
		{"tickless-off", Spec{Dur: simMs(300), Tickless: &off}},
		{"frame-off", Spec{Dur: simMs(300), Frame: -1}},
	}
	for _, tc := range configs {
		tc.spec.Artifacts = arts
		straight := mustExecute(t, tc.label+"/straight", tc.spec)
		paused := mustExecute(t, tc.label+"/paused", checkpointOf(tc.spec, 137))
		compareArtifacts(t, tc.label, straight, paused, arts)
	}
}

// TestSnapshotResumeByteEquality is the tentpole contract end to end:
// snapshot at T, resume the bytes to 2T, and the resumed artifacts
// byte-match the straight run to 2T. The capturing run itself must also
// match (capture is unobservable), and the snapshot bytes must be
// deterministic.
func TestSnapshotResumeByteEquality(t *testing.T) {
	arts := []string{ArtifactTrace, ArtifactMetrics, ArtifactGantt, ArtifactTaskSet}
	for seed := uint64(0); seed < 4; seed++ {
		label := fmt.Sprintf("seed%d", seed)
		spec := Spec{
			Scenario:  ScenarioSynthetic,
			Seed:      seed,
			Dur:       simMs(200),
			Synthetic: &SyntheticSpec{Gen: &workload.GenSpec{}},
			Artifacts: arts,
		}
		straight := mustExecute(t, label+"/straight", spec)

		capSpec := spec
		capSpec.Checkpoint = &CheckpointSpec{At: simMs(100)}
		capSpec.Artifacts = append([]string{ArtifactSnapshot}, arts...)
		captured := mustExecute(t, label+"/capture", capSpec)
		compareArtifacts(t, label+"/capture-unobservable", straight, captured, arts)

		snap := captured.Artifacts[ArtifactSnapshot]
		if len(snap) == 0 {
			t.Fatalf("%s: empty snapshot artifact", label)
		}
		captured2 := mustExecute(t, label+"/capture2", capSpec)
		if !bytes.Equal(snap, captured2.Artifacts[ArtifactSnapshot]) {
			t.Errorf("%s: snapshot bytes differ between identical captures", label)
		}

		resumeSpec := Spec{
			Scenario:   ScenarioSynthetic,
			Dur:        simMs(200),
			Checkpoint: &CheckpointSpec{ResumeFrom: snap},
			Artifacts:  arts,
		}
		resumed := mustExecute(t, label+"/resume", resumeSpec)
		compareArtifacts(t, label+"/resume", straight, resumed, arts)
		if got, want := resumed.Stats.Activations, straight.Stats.Activations; got != want {
			t.Errorf("%s: resumed activations %d, straight %d", label, got, want)
		}
	}
}

// TestSnapshotBytesPinned pins the bytes of one captured snapshot across
// commits. A saved snapshot is a resume_from input, so bytes that drift
// without a format change make every saved snapshot fail with ErrCorrupt.
func TestSnapshotBytesPinned(t *testing.T) {
	const (
		specJSON = `{"scenario":"synthetic","seed":3,"dur":"3s",` +
			`"synthetic":{"gen":{"tasks":8,"util":0.7,"interrupts":2}},` +
			`"checkpoint":{"at":"2.5s"},"artifacts":["snapshot.bin","metrics.json"]}`
		wantSHA = "d204597d8727640203456cfb621cbf463c06708b3ebf6945db11b5c40467159e"
		wantLen = 7009
	)
	spec, err := ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	snap := mustExecute(t, "pin", spec).Artifacts[ArtifactSnapshot]
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != wantSHA || len(snap) != wantLen {
		t.Fatalf("snapshot.bin = %d bytes, sha256 %s; pinned %d bytes, %s.\n"+
			"A deliberate format change bumps snapshot.Version and re-pins this test.",
			len(snap), got, wantLen, wantSHA)
	}
}

// TestSnapshotResumeCorruptRejected: flipped snapshot bytes are refused
// with the typed corruption error.
func TestSnapshotResumeCorruptRejected(t *testing.T) {
	spec := Spec{
		Scenario:   ScenarioSynthetic,
		Dur:        simMs(100),
		Synthetic:  &SyntheticSpec{Gen: &workload.GenSpec{}},
		Checkpoint: &CheckpointSpec{At: simMs(50)},
		Artifacts:  []string{ArtifactSnapshot},
	}
	res := mustExecute(t, "capture", spec)
	snap := append([]byte(nil), res.Artifacts[ArtifactSnapshot]...)
	snap[len(snap)/2] ^= 0x40
	_, err := Execute(context.Background(), Spec{
		Scenario:   ScenarioSynthetic,
		Dur:        simMs(100),
		Checkpoint: &CheckpointSpec{ResumeFrom: snap},
	})
	if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrIncompatible) {
		t.Fatalf("corrupt resume: got %v, want ErrCorrupt/ErrIncompatible", err)
	}
}

// TestWarmSweepMatchesCold: warm-start sweep forking is byte-identical to
// cold per-seed runs, per seed and artifact, including the ForkSeed reseed
// divergence (different seeds must actually diverge).
func TestWarmSweepMatchesCold(t *testing.T) {
	arts := []string{ArtifactTrace, ArtifactMetrics, ArtifactGantt, ArtifactTaskSet}
	sw := SweepSpec{
		Base: Spec{
			Scenario:  ScenarioSynthetic,
			Seed:      11,
			Dur:       simMs(150),
			Synthetic: &SyntheticSpec{Gen: &workload.GenSpec{Interrupts: 2}},
			Artifacts: arts,
		},
		Prefix:  simMs(60),
		Seeds:   []uint64{101, 102, 103, 104, 105, 106},
		Workers: 2,
	}
	cold, err := ExecuteSweep(context.Background(), sw)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	sw.Warm = true
	warm, err := ExecuteSweep(context.Background(), sw)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	if len(cold) != len(sw.Seeds) || len(warm) != len(sw.Seeds) {
		t.Fatalf("result counts: cold %d warm %d, want %d", len(cold), len(warm), len(sw.Seeds))
	}
	for i := range sw.Seeds {
		label := fmt.Sprintf("seed%d", sw.Seeds[i])
		compareArtifacts(t, label, cold[i], warm[i], arts)
		if cold[i].Stats.Activations != warm[i].Stats.Activations ||
			cold[i].Stats.CtxSwitches != warm[i].Stats.CtxSwitches ||
			cold[i].Stats.Ticks != warm[i].Stats.Ticks {
			t.Errorf("%s: deterministic stats differ: cold %+v warm %+v",
				label, cold[i].Stats, warm[i].Stats)
		}
	}
	// Variants must actually fork: different seeds, different traces.
	if bytes.Equal(warm[0].Artifacts[ArtifactTrace], warm[1].Artifacts[ArtifactTrace]) {
		t.Errorf("fork seeds 101 and 102 produced identical traces — reseed did not take")
	}
}
