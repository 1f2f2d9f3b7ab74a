package run

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// simAllocs runs spec for dur and returns the heap allocations the run
// made, counted from runtime.MemStats.Mallocs.
func simAllocs(t *testing.T, spec []byte, dur time.Duration) uint64 {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.Dur = Duration(dur)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Execute(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// steadyAllocsPerSimsec is the allocation rate of a simulation in its
// steady state: the allocations of a 20 s run minus those of a 10 s run,
// per simulated second. Set-up, artifact encoding and warm-up growth
// cancel out of the difference.
func steadyAllocsPerSimsec(t *testing.T, spec []byte) float64 {
	t.Helper()
	short := simAllocs(t, spec, 10*time.Second)
	long := simAllocs(t, spec, 20*time.Second)
	return (float64(long) - float64(short)) / 10
}

// TestVideogameSteadyStateAllocs pins the allocation budget of the
// simulation step path (program machine, SIM_API consume, kernel service
// bodies, BFM accesses) on the benchmark's videogame shape: trace names
// are formed when objects are created, accesses carry operands instead of
// closures, and kernel waits re-arm without closures, so a simulated second
// costs at most a handful of allocations.
func TestVideogameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const budget = 100
	vg := steadyAllocsPerSimsec(t,
		[]byte(`{"gui":false,"frame":"10ms","seed":1,"artifacts":["console.txt"]}`))
	t.Logf("videogame: %.0f allocs per simulated second", vg)
	if vg > budget {
		t.Errorf("videogame: %.0f allocs per simulated second, want <= %d", vg, budget)
	}
}

// TestSyntheticSteadyStateAllocs pins the allocation budget of the
// benchmark's synthetic shape: the bare kernel, the Program machine and the
// metrics.json collector. Most of its steady-state allocations are the
// semantic message-buffer payload copies of the generated SndMbf ops; an
// inline consume (sysc.Coro.Elapse) adds none.
func TestSyntheticSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const budget = 450
	syn := steadyAllocsPerSimsec(t, []byte(`{"scenario":"synthetic","seed":1,`+
		`"synthetic":{"gen":{"tasks":8,"util":0.7,"interrupts":2}},"artifacts":["metrics.json"]}`))
	t.Logf("synthetic: %.0f allocs per simulated second", syn)
	if syn > budget {
		t.Errorf("synthetic: %.0f allocs per simulated second, want <= %d", syn, budget)
	}
}
