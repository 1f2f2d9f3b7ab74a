package chaos

import (
	"strings"
	"testing"

	"repro/internal/sysc"
	"repro/internal/workload"
)

// TestSyntheticCampaign runs a small campaign over generated task sets:
// every job must pass the oracles, and a second run must print a
// byte-identical summary (the chaos half of the synthetic determinism
// contract).
func TestSyntheticCampaign(t *testing.T) {
	base := Config{
		Seeds:     5,
		BaseSeed:  0xC0FFEE,
		Workers:   1,
		Dur:       80 * sysc.Ms,
		Synthetic: &workload.GenSpec{Interrupts: 2},
	}
	rep := Run(base)
	if got := len(rep.Verdicts); got != base.Seeds {
		t.Fatalf("%d verdicts, want %d", got, base.Seeds)
	}
	for _, v := range rep.Verdicts {
		if !v.Pass {
			t.Errorf("job %d failed:\n%s", v.Index, v.Repro)
		}
		if v.Cycles == 0 {
			t.Errorf("job %d made no activations", v.Index)
		}
	}
	g := rep.Summary()
	if again := Run(base).Summary(); again != g {
		t.Errorf("summaries differ between identical runs:\n--- first ---\n%s--- second ---\n%s", g, again)
	}
	if !strings.Contains(g, "synthetic workload:") {
		t.Errorf("summary missing the synthetic header:\n%s", g)
	}
}

// TestSyntheticTargetsFilterKinds asserts a target set without pools or
// interrupts never draws faults it cannot inject (RandomSchedule used to
// assume the built-in layout).
func TestSyntheticTargetsFilterKinds(t *testing.T) {
	cfg := Config{Synthetic: &workload.GenSpec{Interrupts: -1, Mbfs: -1}}.normalized()
	targets := jobTargets(cfg, 1)
	if len(targets.IntNos) != 0 || targets.Mbf != 0 || targets.Mpf != 0 {
		t.Fatalf("unexpected targets: %+v", targets)
	}
	sched := drawSchedule(cfg, 1)
	if len(sched) != cfg.Faults {
		t.Fatalf("%d faults drawn, want %d", len(sched), cfg.Faults)
	}
	for _, f := range sched {
		switch f.Kind {
		case ETMInflate, TickDelay:
		default:
			t.Errorf("fault kind %v drawn without a target for it", f.Kind)
		}
	}
}
