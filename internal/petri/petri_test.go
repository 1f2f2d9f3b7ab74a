package petri

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sysc"
)

func TestEnergyString(t *testing.T) {
	cases := []struct {
		in   Energy
		want string
	}{
		{0, "0 J"},
		{2 * Joule, "2.000 J"},
		{5 * MilliJ, "5.000 mJ"},
		{7 * MicroJ, "7.000 uJ"},
		{9 * NanoJ, "9.000 nJ"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Energy(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestEnergyConversions(t *testing.T) {
	if WattHour.Joules() != 3600 {
		t.Errorf("WattHour = %v J", WattHour.Joules())
	}
}

func TestCostAdd(t *testing.T) {
	c := Cost{Time: 10 * sysc.Ms, Energy: 4 * MilliJ}
	d := c.Add(Cost{Time: 5 * sysc.Ms, Energy: 1 * MilliJ})
	if d.Time != 15*sysc.Ms || d.Energy != 5*MilliJ {
		t.Fatalf("Add = %+v", d)
	}
}

func TestFiringSequenceCharacteristicVector(t *testing.T) {
	seq := NewFiringSequence(2)
	c := Cost{Time: 2 * sysc.Ms, Energy: 1 * MilliJ}
	for i := 0; i < 4; i++ {
		seq.Record(i%2, c)
	}
	cv := seq.CharacteristicVector()
	if cv[0] != 2 || cv[1] != 2 {
		t.Fatalf("characteristic vector = %v, want [2 2]", cv)
	}
	if seq.Len() != 4 {
		t.Fatalf("len = %d", seq.Len())
	}
	if seq.ETM() != 8*sysc.Ms || seq.EEM() != 4*MilliJ {
		t.Fatalf("ETM=%v EEM=%v", seq.ETM(), seq.EEM())
	}
	seq.Reset()
	if seq.Len() != 0 || seq.ETM() != 0 || seq.EEM() != 0 {
		t.Fatal("reset did not clear sequence")
	}
	if cv2 := seq.CharacteristicVector(); cv2[0] != 0 {
		t.Fatal("reset did not clear counts")
	}
}

// TestAccumulatorCETCEE: AddCost folds a run slice into CET and CEE and
// leaves the cycle count alone.
func TestAccumulatorCETCEE(t *testing.T) {
	acc := Accumulator{Cycles: 3}
	acc.AddCost(Cost{Time: sysc.Ms, Energy: MicroJ})
	acc.AddCost(Cost{Time: 2 * sysc.Ms, Energy: MicroJ})
	if acc.CET != 3*sysc.Ms || acc.CEE != 2*MicroJ || acc.Cycles != 3 {
		t.Fatalf("accumulator = %+v, want CET 3ms, CEE 2uJ, 3 cycles", acc)
	}
}

// Property: over random firings of three transitions, element i of the
// characteristic vector counts the firings of transition i, the counts sum
// to the sequence length, and the total cost equals firings × per-firing
// cost when uniform.
func TestPropertyCharacteristicVectorSum(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		seq := NewFiringSequence(3)
		c := Cost{Time: sysc.Us, Energy: NanoJ}
		rng := rand.New(rand.NewSource(seed))
		var want [3]int
		for i := 0; i < int(steps); i++ {
			tr := rng.Intn(3)
			want[tr]++
			seq.Record(tr, c)
		}
		cv := seq.CharacteristicVector()
		sum := 0
		for _, v := range cv {
			sum += v
		}
		eemErr := math.Abs(float64(seq.EEM() - Energy(steps)*NanoJ))
		return slices.Equal(cv, want[:]) && sum == int(steps) && seq.Len() == int(steps) &&
			seq.ETM() == sysc.Time(steps)*sysc.Us &&
			eemErr < 1e-15 // float accumulation tolerance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
