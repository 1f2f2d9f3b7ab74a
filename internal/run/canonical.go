package run

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"time"
)

// This file defines the canonical Spec encoding and its content hash — the
// identity a Spec carries through the serving fleet. Two Specs that would
// produce the same artifacts (defaults spelled out vs omitted, artifact
// lists reordered, throughput-only knobs like worker counts set or not)
// canonicalize to the same bytes and therefore the same hash, so the result
// cache and the shard router treat them as one job.
//
// The canonical form is scenario-aware: every knob the scenario reads is
// set to its effective value, and every knob it ignores is erased.
// Fields that can never change a *successful* run's artifacts are erased
// too: Deadline only decides whether a run completes (a completed run's
// artifacts are deadline-independent, and only completed runs are cached)
// and the chaos/experiments worker counts only change wall-clock cost.

// canonicalDefaults mirrored from the scenario executors. Kept as named
// constants so executor and canonicalizer can't silently drift apart in
// review: change one, grep the other.
const (
	defaultVideogameDur = Duration(1 * time.Second)
	defaultChaosDur     = Duration(150 * time.Millisecond)
	defaultSyntheticDur = Duration(1 * time.Second)
	defaultFrame        = Duration(10 * time.Millisecond)
	defaultTick         = Duration(1 * time.Millisecond)
	defaultSimTime      = Duration(1 * time.Second)
)

// Canonicalize returns the canonical form of spec: validated, every
// scenario-relevant default filled in, every ignored or
// throughput-only field erased, and the artifact list sorted and
// deduplicated. It is idempotent: Canonicalize(Canonicalize(s)) ==
// Canonicalize(s).
func Canonicalize(spec Spec) (Spec, error) {
	if spec.Scenario == "" {
		spec.Scenario = ScenarioVideogame
	}
	if err := Validate(spec); err != nil {
		return Spec{}, err
	}
	c := Spec{Scenario: spec.Scenario, Seed: spec.Seed}
	switch spec.Scenario {
	case ScenarioVideogame:
		c.Dur = durOr(spec.Dur, defaultVideogameDur)
		c.GUI = boolPtr(boolOr(spec.GUI, true))
		c.Frame = durOr(spec.Frame, defaultFrame)
		c.Tick = durOr(spec.Tick, defaultTick)
		c.Tickless = boolPtr(boolOr(spec.Tickless, true))
		c.Step = spec.Step
		c.IdleSleep = spec.IdleSleep
	case ScenarioChaos:
		c.Dur = durOr(spec.Dur, defaultChaosDur)
		cs := ChaosSpec{}
		if spec.Chaos != nil {
			cs = *spec.Chaos
		}
		if cs.Seeds <= 0 {
			cs.Seeds = 16
		}
		if cs.Tasks <= 0 {
			cs.Tasks = 6
		}
		if cs.Faults == 0 {
			cs.Faults = 5
		}
		cs.Workers = 0 // pool size never affects results
		if cs.Job != nil {
			j := *cs.Job
			cs.Job = &j
		}
		if cs.Synthetic != nil {
			g := cs.Synthetic.Normalized()
			cs.Synthetic = &g
		}
		c.Chaos = &cs
	case ScenarioExperiments:
		es := ExperimentsSpec{}
		if spec.Experiments != nil {
			es = *spec.Experiments
		}
		sections, err := expandSections(es.Sections)
		if err != nil {
			return Spec{}, err
		}
		es.Sections = sections
		es.SimTime = durOr(es.SimTime, defaultSimTime)
		es.Workers = 0 // pool size never affects results
		c.Experiments = &es
	case ScenarioSynthetic:
		c.Dur = durOr(spec.Dur, defaultSyntheticDur)
		c.Tick = durOr(spec.Tick, defaultTick)
		c.Tickless = boolPtr(boolOr(spec.Tickless, true))
		if spec.Synthetic != nil { // absent only for resume_from runs
			syn := SyntheticSpec{}
			if spec.Synthetic.TaskSet != nil {
				ts := *spec.Synthetic.TaskSet
				syn.TaskSet = &ts
			} else {
				g := spec.Synthetic.Gen.Normalized()
				syn.Gen = &g
			}
			c.Synthetic = &syn
		}
	}
	if spec.Checkpoint != nil {
		ck := *spec.Checkpoint
		if ck.ForkSeed != nil {
			s := *ck.ForkSeed
			ck.ForkSeed = &s
		}
		if ck.ResumeFrom != nil {
			ck.ResumeFrom = append([]byte(nil), ck.ResumeFrom...)
		}
		c.Checkpoint = &ck
	}
	if len(spec.Artifacts) > 0 {
		arts := append([]string(nil), spec.Artifacts...)
		sort.Strings(arts)
		arts = dedupSorted(arts)
		c.Artifacts = arts
	}
	return c, nil
}

// CanonicalJSON is the canonical wire encoding: the canonicalized Spec
// marshalled with Go's deterministic struct-field order (declaration
// order; map keys, where any appear in nested task sets, sort). Byte
// equality of two CanonicalJSON outputs is the fleet's definition of
// "the same job".
func CanonicalJSON(spec Spec) ([]byte, error) {
	c, err := Canonicalize(spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// Hash returns the content hash of the canonical encoding as a 64-char
// lowercase hex string (SHA-256). It is the key of the result cache and
// the routing key of the shard ring.
func Hash(spec Spec) (string, error) {
	b, err := CanonicalJSON(spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Cacheable reports whether spec's artifacts are reproducible across
// runs and may therefore be served from a content-addressed cache. The
// experiments scenario is the one exception: its report embeds measured
// wall-clock speed columns, so its bytes are only stable within a run.
// Checkpoint runs are excluded too: resume_from payloads are large and
// already one-shot, and keying megabyte snapshots into the hash would
// bloat the cache for jobs nobody resubmits.
func Cacheable(spec Spec) bool {
	return spec.Scenario != ScenarioExperiments && spec.Checkpoint == nil
}

// --- helpers ---

func durOr(d, def Duration) Duration {
	if d <= 0 {
		return def
	}
	return d
}

func boolPtr(b bool) *bool { return &b }

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
