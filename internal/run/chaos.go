package run

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/sysc"
)

// executeChaos runs a fault-injection campaign — or, with Chaos.Job set, a
// single-job replay — and harvests summary/repro/trace artifacts.
func executeChaos(ctx context.Context, spec Spec) (Result, error) {
	cs := spec.Chaos
	if cs == nil {
		cs = &ChaosSpec{}
	}
	cfg := chaos.Config{
		Seeds:     cs.Seeds,
		BaseSeed:  spec.Seed,
		Workers:   cs.Workers,
		Dur:       spec.Dur.Sim(),
		Tasks:     cs.Tasks,
		Faults:    cs.Faults,
		Corrupt:   cs.Corrupt,
		Minimize:  cs.Minimize,
		Synthetic: cs.Synthetic,
	}
	// Mirror the chaos.Config defaults up front so the Report header (which
	// prints the config) is identical whether the run came from flags or
	// JSON.
	if cfg.Seeds <= 0 {
		cfg.Seeds = 16
	}
	if cfg.Dur <= 0 {
		cfg.Dur = 150 * sysc.Ms
	}
	if cfg.Tasks <= 0 {
		cfg.Tasks = 6
	}
	if cfg.Faults == 0 {
		cfg.Faults = 5
	}

	wall0 := time.Now()
	if cs.Job != nil {
		return chaosReplay(ctx, spec, cfg, *cs.Job, wall0)
	}

	report, runErr := chaos.RunContext(ctx, cfg)
	wall := time.Since(wall0)

	res := Result{
		Stats:     chaosStats(report, wall),
		Artifacts: map[string][]byte{},
	}
	if wants(spec, ArtifactSummary) {
		res.Artifacts[ArtifactSummary] = []byte(report.Summary())
	}
	if wants(spec, ArtifactRepro) {
		res.Artifacts[ArtifactRepro] = renderRepros(report)
	}
	return res, runErr
}

// chaosReplay runs the single-job failure-replay path.
func chaosReplay(ctx context.Context, spec Spec, cfg chaos.Config, job int, wall0 time.Time) (Result, error) {
	var v chaos.Verdict
	var runErr error
	var traceBuf bytes.Buffer
	if wants(spec, ArtifactTrace) {
		v, runErr = chaos.RunJobTraceContext(ctx, cfg, job, &traceBuf)
	} else {
		var ok bool
		v, ok = chaos.RunJobContext(ctx, cfg, job)
		if !ok {
			runErr = context.Cause(ctx)
		}
	}
	wall := time.Since(wall0)

	report := chaos.Report{Cfg: cfg, Verdicts: []chaos.Verdict{v}}
	res := Result{
		Stats:     chaosStats(report, wall),
		Artifacts: map[string][]byte{},
	}
	if wants(spec, ArtifactTrace) {
		res.Artifacts[ArtifactTrace] = traceBuf.Bytes()
	}
	if wants(spec, ArtifactSummary) {
		res.Artifacts[ArtifactSummary] = []byte(report.Summary())
	}
	if wants(spec, ArtifactRepro) {
		res.Artifacts[ArtifactRepro] = renderRepros(report)
	}
	return res, runErr
}

// chaosStats aggregates the campaign's deterministic digests.
func chaosStats(report chaos.Report, wall time.Duration) Stats {
	s := Stats{
		Scenario: ScenarioChaos,
		Wall:     Duration(wall),
		Jobs:     len(report.Verdicts),
		Failures: len(report.Failures()),
	}
	for _, v := range report.Verdicts {
		s.Ticks += v.Ticks
		s.CtxSwitches += v.CtxSwitches
		s.Preemptions += v.Preemptions
		s.Interrupts += v.Interrupts
	}
	simNs := int64(report.Cfg.Dur/sysc.Ns) * int64(len(report.Verdicts))
	s.SimTime = Duration(simNs)
	if wall > 0 {
		s.SimPerWall = (time.Duration(simNs) * time.Nanosecond).Seconds() / wall.Seconds()
	}
	return s
}

// renderRepros concatenates the repro artifacts of every failing job, each
// under a replayable header.
func renderRepros(report chaos.Report) []byte {
	var b bytes.Buffer
	for _, v := range report.Verdicts {
		if v.Pass {
			continue
		}
		fmt.Fprintf(&b, "--- repro for job %d (replay: chaos -seed %d -job %d", v.Index, report.Cfg.BaseSeed, v.Index)
		if report.Cfg.Corrupt {
			fmt.Fprint(&b, " -corrupt")
		}
		fmt.Fprint(&b, ") ---\n")
		fmt.Fprintln(&b, v.Repro)
	}
	return b.Bytes()
}
