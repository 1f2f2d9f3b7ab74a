package run

import (
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/sysc"
	"repro/internal/workload"
)

// assertCompiled fails unless every T-THREAD but the INIT task runs a
// compiled program body.
func assertCompiled(t *testing.T, label string, api *core.SimAPI) {
	t.Helper()
	n := 0
	for _, tt := range api.Threads() {
		if tt.Name() == "INIT" {
			continue
		}
		n++
		if !tt.Compiled() {
			t.Errorf("%s: T-THREAD %q runs a closure body", label, tt.Name())
		}
	}
	if n == 0 {
		t.Fatalf("%s: no T-THREADs besides INIT", label)
	}
}

// TestDefaultRunsAreCompiled: in a default videogame run and a default
// synthetic run, every task and handler T-THREAD except INIT is a compiled
// program, BFM accesses included.
func TestDefaultRunsAreCompiled(t *testing.T) {
	a := app.Build(app.DefaultConfig())
	defer a.Shutdown()
	if err := a.Run(50 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	assertCompiled(t, "videogame", a.K.API())

	s := buildSynSystem(Spec{Scenario: ScenarioSynthetic,
		Synthetic: &SyntheticSpec{Gen: &workload.GenSpec{}}}, StreamOptions{})
	defer s.sim.Shutdown()
	if err := s.sim.Start(50 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	assertCompiled(t, "synthetic", s.k.API())
}
