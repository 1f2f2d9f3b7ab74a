package run

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/workload"
)

// TestSyntheticInlineTaskSet runs a hand-written TaskSet end to end and
// checks the run produced actual scheduling activity plus the resolved
// task-set artifact.
func TestSyntheticInlineTaskSet(t *testing.T) {
	ts := &workload.TaskSet{
		Name: "inline",
		Sems: []workload.Sem{{Name: "s", Init: 1}},
		Tasks: []workload.Task{
			{Name: "hi", Priority: 5, Period: simMs(10), CET: simMs(1), Ops: []workload.Op{
				{Op: workload.OpConsume, Dur: simMs(1), Energy: 1e-9},
				{Op: workload.OpSigSem, Obj: "s"},
			}},
			{Name: "lo", Priority: 8, Period: simMs(20), Ops: []workload.Op{
				{Op: workload.OpWaiSem, Obj: "s", Timeout: simMs(20)},
				{Op: workload.OpConsume, Dur: simMs(2)},
			}},
		},
	}
	spec := Spec{
		Scenario:  ScenarioSynthetic,
		Dur:       simMs(300),
		Synthetic: &SyntheticSpec{TaskSet: ts},
		Artifacts: []string{ArtifactTaskSet, ArtifactGantt},
	}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if res.Stats.Activations == 0 {
		t.Fatalf("no task activations in 300ms: stats %+v", res.Stats)
	}
	if res.Stats.CtxSwitches == 0 {
		t.Fatalf("no context switches: stats %+v", res.Stats)
	}
	var round workload.TaskSet
	if err := json.Unmarshal(res.Artifacts[ArtifactTaskSet], &round); err != nil {
		t.Fatalf("taskset artifact is not valid JSON: %v", err)
	}
	if round.Name != "inline" || len(round.Tasks) != 2 {
		t.Fatalf("taskset artifact did not round-trip: %+v", round)
	}
	if len(res.Artifacts[ArtifactGantt]) == 0 {
		t.Fatalf("empty gantt artifact")
	}
}

// TestSyntheticValidate covers the spec-level validation surface the job
// server relies on for 400-level rejections.
func TestSyntheticValidate(t *testing.T) {
	gen := &workload.GenSpec{}
	cases := []struct {
		label string
		spec  Spec
		ok    bool
	}{
		{"gen", Spec{Scenario: ScenarioSynthetic, Synthetic: &SyntheticSpec{Gen: gen}}, true},
		{"missing", Spec{Scenario: ScenarioSynthetic}, false},
		{"both", Spec{Scenario: ScenarioSynthetic, Synthetic: &SyntheticSpec{
			Gen: gen, TaskSet: &workload.TaskSet{}}}, false},
		{"neither", Spec{Scenario: ScenarioSynthetic, Synthetic: &SyntheticSpec{}}, false},
		{"wrong-scenario", Spec{Synthetic: &SyntheticSpec{Gen: gen}}, false},
		{"invalid-taskset", Spec{Scenario: ScenarioSynthetic, Synthetic: &SyntheticSpec{
			TaskSet: &workload.TaskSet{}}}, false},
		{"bad-artifact", Spec{Scenario: ScenarioSynthetic, Synthetic: &SyntheticSpec{Gen: gen},
			Artifacts: []string{ArtifactConsole}}, false},
		{"chaos-gen", Spec{Scenario: ScenarioChaos, Chaos: &ChaosSpec{Synthetic: gen}}, true},
		{"chaos-gen-bad", Spec{Scenario: ScenarioChaos, Chaos: &ChaosSpec{
			Synthetic: &workload.GenSpec{Tasks: 1000}}}, false},
	}
	for _, tc := range cases {
		err := Validate(tc.spec)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.label, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.label)
		}
	}
}

// TestSyntheticSameSpecSameArtifacts asserts the determinism contract on a
// generated set: two Executes of one Spec are byte-identical.
func TestSyntheticSameSpecSameArtifacts(t *testing.T) {
	spec := Spec{
		Scenario:  ScenarioSynthetic,
		Seed:      3,
		Dur:       simMs(150),
		Synthetic: &SyntheticSpec{Gen: &workload.GenSpec{Tasks: 4}},
		Artifacts: []string{ArtifactTrace, ArtifactMetrics, ArtifactTaskSet},
	}
	a, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for name, ab := range a.Artifacts {
		if !bytes.Equal(ab, b.Artifacts[name]) {
			t.Errorf("artifact %s differs between identical runs", name)
		}
	}
}
