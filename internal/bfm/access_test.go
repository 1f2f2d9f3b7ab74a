package bfm_test

import (
	"testing"

	"repro/internal/bfm"
	"repro/internal/sysc"
)

// portRoundTrip returns one select + write + read of an LCD on P1, each
// access built and run with BFM.Do.
func portRoundTrip(tb testing.TB) func() {
	sim := sysc.NewSimulator()
	tb.Cleanup(sim.Shutdown)
	b := bfm.New(sim, nil, bfm.DefaultConfig())
	p := b.Ports[1]
	lcd := p.Attach(bfm.NewLCD(2, 16))
	var v, got byte
	return func() {
		v++
		b.Do(p.Select(lcd))
		b.Do(p.Write('a' + v%26))
		b.Do(p.Read(&got))
	}
}

// TestPortAccessAllocs pins building and running a port access at zero
// heap allocations: the access carries its operands, and its name and
// effect are bound once per port.
func TestPortAccessAllocs(t *testing.T) {
	step := portRoundTrip(t)
	step()
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("%v allocs per port select/write/read, want 0", n)
	}
}

// BenchmarkPortAccess is the cost of one port select, write and read, each
// access built and run with BFM.Do.
func BenchmarkPortAccess(b *testing.B) {
	step := portRoundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
