package run

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/workload"
)

// streamSpecs are the scenarios the streaming byte contract is checked on:
// one videogame and one synthetic run, each exercising trace + metrics (the
// streamable pair) plus a buffered bystander artifact.
func streamSpecs() []struct {
	label string
	spec  Spec
} {
	return []struct {
		label string
		spec  Spec
	}{
		{"videogame", Spec{
			Dur:       simMs(200),
			Seed:      7,
			Artifacts: []string{ArtifactTrace, ArtifactMetrics, ArtifactConsole},
		}},
		{"synthetic", Spec{
			Scenario:  ScenarioSynthetic,
			Dur:       simMs(200),
			Seed:      11,
			Synthetic: &SyntheticSpec{Gen: &workload.GenSpec{Tasks: 4}},
			Artifacts: []string{ArtifactTrace, ArtifactMetrics, ArtifactTaskSet},
		}},
	}
}

// TestStreamByteIdentical is the tentpole contract: for the same Spec, a
// streamed artifact is byte-identical to its buffered twin, with a
// progress observer attached (the observer pauses the run at quiescent
// points; the pause must be unobservable).
func TestStreamByteIdentical(t *testing.T) {
	for _, tc := range streamSpecs() {
		t.Run(tc.label, func(t *testing.T) {
			spec := tc.spec

			buffered, err := Execute(context.Background(), spec)
			if err != nil {
				t.Fatalf("buffered: %v", err)
			}

			var traceOut, metricsOut bytes.Buffer
			var snapshots []Stats
			streamed, err := ExecuteStream(context.Background(), spec, StreamOptions{
				Sinks: Sinks{
					ArtifactTrace:   &traceOut,
					ArtifactMetrics: &metricsOut,
				},
				Progress: func(st Stats) { snapshots = append(snapshots, st) },
			})
			if err != nil {
				t.Fatalf("streamed: %v", err)
			}

			if !bytes.Equal(traceOut.Bytes(), buffered.Artifacts[ArtifactTrace]) {
				t.Errorf("trace: streamed %d bytes != buffered %d bytes",
					traceOut.Len(), len(buffered.Artifacts[ArtifactTrace]))
			}
			if !bytes.Equal(metricsOut.Bytes(), buffered.Artifacts[ArtifactMetrics]) {
				t.Errorf("metrics: streamed %d bytes != buffered %d bytes",
					metricsOut.Len(), len(buffered.Artifacts[ArtifactMetrics]))
			}

			// Sink-fed artifacts leave the result map; bystanders stay.
			if _, ok := streamed.Artifacts[ArtifactTrace]; ok {
				t.Error("streamed result still buffers trace")
			}
			if _, ok := streamed.Artifacts[ArtifactMetrics]; ok {
				t.Error("streamed result still buffers metrics")
			}
			for name, want := range buffered.Artifacts {
				if name == ArtifactTrace || name == ArtifactMetrics {
					continue
				}
				if !bytes.Equal(streamed.Artifacts[name], want) {
					t.Errorf("bystander artifact %s differs under streaming", name)
				}
			}

			// The progress observer fired mid-run with monotone sim time.
			if len(snapshots) == 0 {
				t.Fatal("no progress snapshots observed")
			}
			for i := 1; i < len(snapshots); i++ {
				if snapshots[i].SimTime < snapshots[i-1].SimTime {
					t.Fatalf("progress sim time not monotone: %v after %v",
						snapshots[i].SimTime, snapshots[i-1].SimTime)
				}
			}
			if last := snapshots[len(snapshots)-1]; last.SimTime >= streamed.Stats.SimTime {
				t.Fatalf("last progress snapshot (%v) not strictly mid-run (final %v)",
					last.SimTime, streamed.Stats.SimTime)
			}
			if streamed.Stats.Scenario != buffered.Stats.Scenario ||
				streamed.Stats.Ticks != buffered.Stats.Ticks ||
				streamed.Stats.CtxSwitches != buffered.Stats.CtxSwitches {
				t.Errorf("final stats diverge: streamed %+v buffered %+v",
					streamed.Stats, buffered.Stats)
			}
		})
	}
}

// TestStreamFlagHashInvariant pins the cache-sharing property: Spec.Stream
// is transport, not content — Canonicalize erases it, so a streamed and a
// buffered submission share one canonical hash (and thus one cache entry).
func TestStreamFlagHashInvariant(t *testing.T) {
	spec := Spec{Dur: simMs(100), Artifacts: []string{ArtifactTrace}}
	plain, err := Hash(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Stream = true
	streamed, err := Hash(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain != streamed {
		t.Fatalf("Stream flag changed canonical hash: %s vs %s", plain, streamed)
	}
}

// TestStreamValidation covers the option-surface rejections.
func TestStreamValidation(t *testing.T) {
	var sink bytes.Buffer

	// Sink for an artifact the spec does not request.
	_, err := ExecuteStream(context.Background(), Spec{
		Dur: simMs(50), Artifacts: []string{ArtifactConsole},
	}, StreamOptions{Sinks: Sinks{ArtifactTrace: &sink}})
	if err == nil {
		t.Error("sink for unrequested artifact accepted")
	}

	// Sink for an artifact the scenario cannot stream.
	_, err = ExecuteStream(context.Background(), Spec{
		Dur: simMs(50), Artifacts: []string{ArtifactConsole, ArtifactTrace},
	}, StreamOptions{Sinks: Sinks{ArtifactConsole: &sink}})
	if err == nil {
		t.Error("sink for unstreamable artifact accepted")
	}

	// Sinks and checkpoints are exclusive.
	_, err = ExecuteStream(context.Background(), Spec{
		Scenario:   ScenarioSynthetic,
		Dur:        simMs(100),
		Synthetic:  &SyntheticSpec{Gen: &workload.GenSpec{Tasks: 2}},
		Artifacts:  []string{ArtifactTrace},
		Checkpoint: &CheckpointSpec{At: simMs(50)},
	}, StreamOptions{Sinks: Sinks{ArtifactTrace: &sink}})
	if err == nil {
		t.Error("sinks with checkpoint accepted")
	}

	// Spec.Stream and Checkpoint are exclusive at Validate level.
	if err := Validate(Spec{
		Dur:        simMs(100),
		Stream:     true,
		Checkpoint: &CheckpointSpec{At: simMs(50)},
	}); err == nil {
		t.Error("Validate accepted stream+checkpoint")
	}
}

// TestStreamableArtifacts pins the streamable set per scenario.
func TestStreamableArtifacts(t *testing.T) {
	got := StreamableArtifacts(Spec{
		Artifacts: []string{ArtifactConsole, ArtifactTrace, ArtifactMetrics},
	})
	if len(got) != 2 || got[0] != ArtifactTrace || got[1] != ArtifactMetrics {
		t.Fatalf("videogame streamable = %v", got)
	}
	if Streamable(ScenarioChaos, ArtifactTrace) {
		t.Error("chaos should not stream")
	}
	if !Streamable("", ArtifactTrace) {
		t.Error("empty scenario should default to videogame")
	}
}
