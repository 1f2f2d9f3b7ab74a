package core

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/sysc"
)

// TestFireDisabledPanics: firing a transition whose input place does not
// hold the token is a broken execution-semantics invariant, and the panic
// names the thread, the arc and the token's place.
func TestFireDisabledPanics(t *testing.T) {
	th := &TThread{subj: event.Subject{Name: "t"}, place: plDormant, seq: petri.NewFiringSequence(len(tthreadArcs))}
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{`"t"`, `"Ex"`, "token at dormant"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %s", msg, want)
			}
		}
		if th.place != plDormant || th.seq.Len() != 0 {
			t.Fatalf("disabled fire moved the token to %d or recorded %d firings",
				th.place, th.seq.Len())
		}
	}()
	th.fire(trEx, Cost{})
}

// BenchmarkTokenFire is the unit cost of one token firing (the layer
// ledger's per-firing figure): the token cycles running -> ready ->
// running, one transition per op, with the bus quiet and with one
// KindToken subscriber. Neither allocates.
func BenchmarkTokenFire(b *testing.B) {
	for _, observed := range []bool{false, true} {
		name := "bus=quiet"
		if observed {
			name = "bus=observed"
		}
		b.Run(name, func(b *testing.B) {
			sim := sysc.NewSimulator()
			defer sim.Shutdown()
			bus := event.NewBus()
			if observed {
				bus.Subscribe(func(event.Event) {}, event.KindToken)
			}
			th := NewSimAPI(sim, nil, bus).newThread("t", KindTask, 10)
			th.place = plRunning
			cost := Cost{Time: sysc.Us}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if th.place == plRunning {
					th.fire(trPx, cost)
				} else {
					th.fire(trEx, cost)
				}
			}
		})
	}
}
