package experiments

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/sysc"
)

func TestTable1ListsAPIs(t *testing.T) {
	var b strings.Builder
	Table1(&b)
	out := b.String()
	for _, api := range []string{"SIM_CreateThread", "SIM_Wait", "SIM_Sleep",
		"SIM_IntEnter", "SIM_LockDisp", "SIM_HashTB", "SIM_Gantt"} {
		if !strings.Contains(out, api) {
			t.Errorf("Table 1 missing %s", api)
		}
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	// Short sweep: S/R must decrease monotonically with the BFM/widget
	// access rate once the GUI is on, and the GUI run at the maximum rate
	// must be slower than the corresponding no-GUI run. Each run lasts only
	// milliseconds of wall time, so each row's S/R is the median of three
	// repetitions of the sweep; the simulated columns are identical across
	// repetitions.
	cfg := Table2Config{
		SimTime:      500 * sysc.Ms,
		FramePeriods: []sysc.Time{100 * sysc.Ms, 10 * sysc.Ms},
		WorkFactor:   GUIWorkFactor,
	}
	const reps = 3
	var sr [4][reps]float64
	var rows []Table2Row
	for r := 0; r < reps; r++ {
		var b strings.Builder
		rows = Table2(&b, cfg)
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
		for i, row := range rows {
			sr[i][r] = row.SpeedSoverR
		}
	}
	median := func(i int) float64 {
		v := sr[i]
		sort.Float64s(v[:])
		return v[reps/2]
	}
	noGUIMax, guiSlow, guiFast := median(1), median(2), median(3)
	if guiFast >= guiSlow {
		t.Errorf("GUI S/R did not fall with access rate: %v vs %v", guiFast, guiSlow)
	}
	if guiFast >= noGUIMax {
		t.Errorf("GUI at max rate (%.1f) not slower than no-GUI (%.1f)", guiFast, noGUIMax)
	}
	if rows[3].Frames == 0 || rows[3].Refreshes <= rows[2].Refreshes {
		t.Errorf("refresh counts wrong: %+v vs %+v", rows[3], rows[2])
	}
}

func TestFigure6ProducesTrace(t *testing.T) {
	var b strings.Builder
	g := Figure6(&b, 50*sysc.Ms)
	if len(g.Segments) == 0 {
		t.Fatal("no segments")
	}
	if _, _, overlap := g.CheckNoOverlap(); overlap {
		t.Fatal("trace overlaps")
	}
	out := b.String()
	if !strings.Contains(out, "GANTT") || !strings.Contains(out, "T1.lcd") {
		t.Fatalf("figure 6 output:\n%s", out)
	}
}

// TestFigure6ByteStable: the figure prints its per-context breakdown in
// context order, so repeated runs print the same bytes. The breakdown has
// three contexts, so a map-order print would differ between two of the
// runs most of the time.
func TestFigure6ByteStable(t *testing.T) {
	var first string
	for i := 0; i < 3; i++ {
		var b strings.Builder
		Figure6(&b, 20*sysc.Ms)
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("run %d differs:\n%s\nfirst:\n%s", i, b.String(), first)
		}
	}
}

func TestFigure7And8(t *testing.T) {
	var b7 strings.Builder
	Figure7(&b7, 200*sysc.Ms)
	if !strings.Contains(b7.String(), "BATTERY [") {
		t.Fatal("figure 7 missing battery bar")
	}
	var b8 strings.Builder
	Figure8(&b8, 100*sysc.Ms)
	if !strings.Contains(b8.String(), "== TASK ==") {
		t.Fatal("figure 8 missing task listing")
	}
}

func TestFigure4ProducesVCD(t *testing.T) {
	var b strings.Builder
	vcd := Figure4(&b, 100*sysc.Ms)
	if vcd.Len() == 0 {
		t.Fatal("no changes")
	}
	if !strings.Contains(b.String(), "$enddefinitions") {
		t.Fatal("not VCD output")
	}
}

func TestDelayedDispatchLatencyTracksHandler(t *testing.T) {
	for _, hw := range []sysc.Time{0, 2 * sysc.Ms} {
		lat := delayedDispatchLatency(hw)
		if lat != hw {
			t.Errorf("handler %v: latency %v", hw, lat)
		}
	}
}

func TestGranularityTimeoutError(t *testing.T) {
	// A 1.5 ms deadline on a 1 ms tick lands on the 2 ms tick: +0.5 ms.
	_, terr := granularityRun(1 * sysc.Ms)
	if terr != 500*sysc.Us {
		t.Errorf("timeout error = %v, want 500 us", terr)
	}
	// On a 100 us tick the same deadline is exact.
	_, terr = granularityRun(100 * sysc.Us)
	if terr != 0 {
		t.Errorf("timeout error = %v, want 0", terr)
	}
}

func TestAblationSchedulersOrders(t *testing.T) {
	var b strings.Builder
	AblationSchedulers(&b)
	out := b.String()
	if !strings.Contains(out, "RTK-Spec I") || !strings.Contains(out, "TRON") {
		t.Fatalf("output:\n%s", out)
	}
	// Priority kernels complete strictly in priority order.
	if !strings.Contains(out, "ABC") {
		t.Fatalf("priority order missing:\n%s", out)
	}
}

func TestISSBaselineExecutes(t *testing.T) {
	wall, instrs := ISSBaseline(2*sysc.Ms, 10)
	if instrs == 0 || wall <= 0 {
		t.Fatalf("instrs=%d wall=%v", instrs, wall)
	}
	// The firmware loop body is 8 cycles / 5 instructions per iteration:
	// 2 ms at 1 us/cycle is about 250 iterations.
	if instrs < 1000 || instrs > 1500 {
		t.Fatalf("instrs = %d, want ~1250", instrs)
	}
}

func TestCycleSteppedBaselineCounts(t *testing.T) {
	_, cycles := CycleSteppedBaseline(5 * sysc.Ms)
	if cycles != 5000 {
		t.Fatalf("cycles = %d, want 5000 (one per us)", cycles)
	}
}

func TestTable2SweepParallelMatchesSequential(t *testing.T) {
	// The acceptance bar for the sweep runner: the Table 2 grid run across
	// workers must merge to rows identical to the sequential path in every
	// simulated (deterministic) column, byte for byte.
	cfg := Table2Config{
		SimTime:      100 * sysc.Ms,
		FramePeriods: []sysc.Time{0, 50 * sysc.Ms, 10 * sysc.Ms},
		WorkFactor:   GUIWorkFactor,
	}
	render := func(rows []Table2Row) string {
		var b strings.Builder
		for _, r := range rows {
			b.WriteString(r.DeterministicString())
			b.WriteByte('\n')
		}
		return b.String()
	}
	seq := render(Table2Sweep(cfg, 1))
	if !strings.Contains(seq, "gui=false frame=off") ||
		!strings.Contains(seq, "gui=true frame=10 ms") {
		t.Fatalf("sequential sweep missing grid points:\n%s", seq)
	}
	for _, workers := range []int{2, 0} {
		if par := render(Table2Sweep(cfg, workers)); par != seq {
			t.Errorf("workers=%d merged rows differ from sequential:\n--- parallel\n%s--- sequential\n%s",
				workers, par, seq)
		}
	}
}

func TestTable2ParallelPrintsFullGrid(t *testing.T) {
	cfg := Table2Config{
		SimTime:      50 * sysc.Ms,
		FramePeriods: []sysc.Time{0, 10 * sysc.Ms},
		WorkFactor:   GUIWorkFactor,
	}
	var b strings.Builder
	rows := Table2Parallel(&b, cfg, 0)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	out := b.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "REFRESHES") {
		t.Fatalf("parallel table output malformed:\n%s", out)
	}
}
