package core

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/petri"
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
