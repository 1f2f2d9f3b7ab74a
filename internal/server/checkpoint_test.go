package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/run"
	"repro/internal/workload"
)

// TestResumeFromOverHTTP is the service half of the snapshot contract: a
// capture job's snapshot.bin artifact, resubmitted as checkpoint.resume_from,
// completes the run with artifacts byte-identical to the straight run —
// entirely over the jobs API.
func TestResumeFromOverHTTP(t *testing.T) {
	arts := []string{run.ArtifactTrace, run.ArtifactMetrics, run.ArtifactTaskSet}
	base := run.Spec{
		Scenario:  run.ScenarioSynthetic,
		Dur:       run.Duration(100 * time.Millisecond),
		Seed:      9,
		Synthetic: &run.SyntheticSpec{Gen: &workload.GenSpec{Interrupts: 2}},
		Artifacts: arts,
	}
	straight, err := run.Execute(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Capture at T over HTTP.
	capSpec := base
	capSpec.Checkpoint = &run.CheckpointSpec{At: run.Duration(50 * time.Millisecond)}
	capSpec.Artifacts = append([]string{run.ArtifactSnapshot}, arts...)
	body, _ := json.Marshal(capSpec)
	id := submit(t, ts, string(body))
	if v := waitTerminal(t, ts, id); v.State != StateDone {
		t.Fatalf("capture job: %s (%v)", v.State, v.Error)
	}
	snap := fetchArtifact(t, ts, id, run.ArtifactSnapshot)
	if len(snap) == 0 {
		t.Fatal("empty snapshot artifact over HTTP")
	}

	// Resume the snapshot to 2T over HTTP.
	resume := run.Spec{
		Scenario:   run.ScenarioSynthetic,
		Dur:        base.Dur,
		Checkpoint: &run.CheckpointSpec{ResumeFrom: snap},
		Artifacts:  arts,
	}
	body, _ = json.Marshal(resume)
	id = submit(t, ts, string(body))
	v := waitTerminal(t, ts, id)
	if v.State != StateDone {
		t.Fatalf("resume job: %s (%v)", v.State, v.Error)
	}
	for _, name := range arts {
		got := fetchArtifact(t, ts, id, name)
		if !bytes.Equal(got, straight.Artifacts[name]) {
			t.Errorf("%s: resumed-over-HTTP bytes differ from straight run (%d vs %d)",
				name, len(got), len(straight.Artifacts[name]))
		}
	}

	// Resume jobs carry a one-shot payload and must not be cached: an
	// identical resubmission simulates again rather than dedupe.
	if v.Cached || v.Coalesced {
		t.Fatalf("resume job served from cache: %+v", v)
	}

	// A corrupted payload is rejected with the invalid-spec/failed path,
	// not accepted silently.
	bad := resume
	bad.Checkpoint = &run.CheckpointSpec{ResumeFrom: append([]byte(nil), snap...)}
	bad.Checkpoint.ResumeFrom[len(snap)/2] ^= 0x40
	body, _ = json.Marshal(bad)
	id = submit(t, ts, string(body))
	if v := waitTerminal(t, ts, id); v.State != StateFailed {
		t.Fatalf("corrupt resume job: %s, want failed", v.State)
	}
}
