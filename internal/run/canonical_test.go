package run

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestHashDefaultsMaterialized: a Spec written with every default spelled
// out hashes identically to the bare Spec that relies on them.
func TestHashDefaultsMaterialized(t *testing.T) {
	bare := Spec{}
	tru := true
	full := Spec{
		Scenario: ScenarioVideogame,
		Dur:      Duration(time.Second),
		GUI:      &tru,
		Frame:    Duration(10 * time.Millisecond),
		Tick:     Duration(time.Millisecond),
		Tickless: &tru,
	}
	hb, err := Hash(bare)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := Hash(full)
	if err != nil {
		t.Fatal(err)
	}
	if hb != hf {
		t.Fatalf("defaults not materialized: %s vs %s", hb, hf)
	}
	if len(hb) != 64 {
		t.Fatalf("hash length %d: %s", len(hb), hb)
	}
}

// TestHashErasesThroughputKnobs: deadline and worker counts never change a
// completed run's artifacts, so they must not change the hash.
func TestHashErasesThroughputKnobs(t *testing.T) {
	base := Spec{Scenario: ScenarioChaos, Seed: 9, Chaos: &ChaosSpec{Seeds: 4}}
	withKnobs := base
	withKnobs.Deadline = Duration(30 * time.Second)
	withKnobs.Chaos = &ChaosSpec{Seeds: 4, Workers: 8}
	h1 := mustHash(t, base)
	h2 := mustHash(t, withKnobs)
	if h1 != h2 {
		t.Fatalf("deadline/workers leaked into hash: %s vs %s", h1, h2)
	}

	exp := Spec{Scenario: ScenarioExperiments, Experiments: &ExperimentsSpec{Sections: []string{"table1"}}}
	expW := Spec{Scenario: ScenarioExperiments, Experiments: &ExperimentsSpec{Sections: []string{"table1"}, Workers: 4}}
	if mustHash(t, exp) != mustHash(t, expW) {
		t.Fatal("experiments workers leaked into hash")
	}
}

// TestHashArtifactOrderInsensitive: the artifact list is a set.
func TestHashArtifactOrderInsensitive(t *testing.T) {
	a := Spec{Artifacts: []string{ArtifactMetrics, ArtifactTrace, ArtifactMetrics}}
	b := Spec{Artifacts: []string{ArtifactTrace, ArtifactMetrics}}
	if mustHash(t, a) != mustHash(t, b) {
		t.Fatal("artifact order/duplicates leaked into hash")
	}
	// But the artifact *set* is part of the identity: a different set is a
	// different result document.
	c := Spec{Artifacts: []string{ArtifactTrace}}
	if mustHash(t, a) == mustHash(t, c) {
		t.Fatal("different artifact sets collided")
	}
}

// TestHashDistinguishesResults: knobs that do change artifacts must change
// the hash.
func TestHashDistinguishesResults(t *testing.T) {
	hashes := map[string]string{}
	for name, s := range map[string]Spec{
		"base":     {},
		"seed":     {Seed: 1},
		"dur":      {Dur: Duration(2 * time.Second)},
		"step":     {Step: true},
		"scenario": {Scenario: ScenarioChaos},
		"sections": {Scenario: ScenarioExperiments, Experiments: &ExperimentsSpec{Sections: []string{"table1"}}},
	} {
		h := mustHash(t, s)
		for prev, ph := range hashes {
			if ph == h {
				t.Fatalf("%s and %s collided: %s", name, prev, h)
			}
		}
		hashes[name] = h
	}
}

// TestCanonicalizeIdempotent: canonicalizing a canonical Spec is a no-op.
func TestCanonicalizeIdempotent(t *testing.T) {
	specs := []Spec{
		{},
		{Scenario: ScenarioChaos, Chaos: &ChaosSpec{Corrupt: true}},
		{Scenario: ScenarioExperiments},
		{Scenario: ScenarioSynthetic, Synthetic: &SyntheticSpec{Gen: &workload.GenSpec{Interrupts: 1}}},
	}
	for _, s := range specs {
		c1, err := Canonicalize(s)
		if err != nil {
			t.Fatal(err)
		}
		j1, err := CanonicalJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := CanonicalJSON(c1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("not idempotent:\n%s\n%s", j1, j2)
		}
	}
}

// TestCanonicalizeRejectsInvalid: canonicalization validates first.
func TestCanonicalizeRejectsInvalid(t *testing.T) {
	if _, err := Canonicalize(Spec{Scenario: "warp"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := Hash(Spec{Artifacts: []string{"nope.bin"}}); err == nil {
		t.Fatal("unknown artifact accepted")
	}
}

// TestCacheable: experiments reports embed wall-clock measurements and are
// the one non-cacheable scenario.
func TestCacheable(t *testing.T) {
	if Cacheable(Spec{Scenario: ScenarioExperiments}) {
		t.Fatal("experiments must not be cacheable")
	}
	for _, sc := range []Scenario{"", ScenarioVideogame, ScenarioChaos, ScenarioSynthetic} {
		if !Cacheable(Spec{Scenario: sc}) {
			t.Fatalf("scenario %q should be cacheable", sc)
		}
	}
}

func mustHash(t *testing.T, s Spec) string {
	t.Helper()
	h, err := Hash(s)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// FuzzParseSpec guards the canonical form on arbitrary wire input: for
// every Spec ParseSpec accepts, Canonicalize is idempotent, the canonical
// JSON re-parses to the same canonical form, and Hash is stable when the
// Spec is re-encoded as JSON and parsed again.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		`{"gui":false,"frame":"10ms","dur":"60s","seed":1,"artifacts":["console.txt"]}`,
		`{"scenario":"synthetic","dur":"5s","seed":2,"synthetic":{"gen":{"tasks":8,"util":0.7,"interrupts":2}},"artifacts":["metrics.json"]}`,
		`{"scenario":"synthetic","dur":"3s","seed":3,"synthetic":{"gen":{}}}`,
		`{"scenario":"chaos","dur":"40ms","seed":4,"chaos":{"seeds":2,"tasks":4,"faults":3},"artifacts":["summary.txt"]}`,
		`{"scenario":"synthetic","dur":"1s","seed":5,"stream":true,"synthetic":{"gen":{"tasks":10,"util":0.7,"interrupts":2}},"artifacts":["trace.json","metrics.json"]}`,
		`{"scenario":"synthetic","dur":"3s","synthetic":{"gen":{}},"checkpoint":{"at":"2.5s","fork_seed":7}}`,
		`{"scenario":"experiments","experiments":{"sections":["table2"],"simtime":"200ms"}}`,
	} {
		f.Add([]byte(s))
	}
	engine := []byte(`{"engine":"continuation"}`)
	if _, err := ParseSpec(engine); err == nil {
		f.Fatalf("ParseSpec accepted the removed engine field: %s", engine)
	}
	f.Add(engine)

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		c, err := Canonicalize(spec)
		if err != nil {
			t.Fatalf("canonicalize a parsed spec: %v", err)
		}
		cj, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Canonicalize(c)
		if err != nil {
			t.Fatalf("canonicalize a canonical spec: %v", err)
		}
		if cj2, _ := json.Marshal(c2); !bytes.Equal(cj, cj2) {
			t.Fatalf("not idempotent:\n%s\n%s", cj, cj2)
		}
		back, err := ParseSpec(cj)
		if err != nil {
			t.Fatalf("canonical JSON does not re-parse: %v\n%s", err, cj)
		}
		if bj, _ := CanonicalJSON(back); !bytes.Equal(bj, cj) {
			t.Fatalf("canonical JSON changed on re-parse:\n%s\n%s", cj, bj)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseSpec(raw)
		if err != nil {
			t.Fatalf("re-encoded spec does not re-parse: %v\n%s", err, raw)
		}
		if h1, h2 := mustHash(t, spec), mustHash(t, again); h1 != h2 {
			t.Fatalf("hash moved under re-encoding: %s vs %s\n%s", h1, h2, raw)
		}
	})
}
