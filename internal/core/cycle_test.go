package core_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/petri"
	"repro/internal/sysc"
	"repro/internal/trace"
)

// cycleBody is the compiled form of the closure body "consume 2 ms, then
// return", and of "consume 2 ms, then Exit": Exit ends the cycle as a
// return does.
type cycleBody struct{}

func (b *cycleBody) Step(tt *core.TThread) core.BodyStep {
	switch tt.StepConsume(cost(2*sysc.Ms, petri.MilliJ), trace.CtxTask, "work") {
	case core.StepWait:
		return core.BodyWait
	case core.StepReset:
		return core.BodyReset
	}
	return core.BodyDone
}

// cycleRun is what one body kind did in one scenario.
type cycleRun struct {
	events []event.Event
	cycles int
	cet    sysc.Time
	cv     []int
}

// TestClosureAndCompiledCyclesAgree runs the same body as a Go closure and
// as a CompiledBody through one cycle driver and requires the two to be
// indistinguishable: the same bus event stream, cycle count, CET and last
// characteristic vector, whether the cycle returns, chains a queued
// activation, is terminated mid-Consume, or exits.
func TestClosureAndCompiledCyclesAgree(t *testing.T) {
	cases := []struct {
		name   string
		exit   bool
		driver func(th *sysc.Thread, api *core.SimAPI, a *core.TThread)
	}{
		{"return", false, nil},
		{"queued activation", false, func(th *sysc.Thread, api *core.SimAPI, a *core.TThread) {
			th.Wait(sysc.Ms)
			api.QueueActivation(a)
		}},
		{"terminate mid-consume", false, func(th *sysc.Thread, api *core.SimAPI, a *core.TThread) {
			th.Wait(sysc.Ms)
			if err := api.Terminate(a); err != nil {
				panic(err)
			}
			th.Wait(4 * sysc.Ms)
			if err := api.Activate(a); err != nil {
				panic(err)
			}
		}},
		{"exit", true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(compiled bool) cycleRun {
				r := newRig()
				defer r.sim.Shutdown()
				var out cycleRun
				r.bus.Subscribe(func(e event.Event) { out.events = append(out.events, e) })
				var a *core.TThread
				if compiled {
					a = r.api.CreateThreadCompiled("a", core.KindTask, 10, &cycleBody{})
				} else {
					a = r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
						tt.Consume(cost(2*sysc.Ms, petri.MilliJ), trace.CtxTask, "work")
						if tc.exit {
							tt.Exit()
						}
					})
				}
				if a.Compiled() != compiled {
					t.Fatalf("Compiled() = %v, want %v", a.Compiled(), compiled)
				}
				if err := r.api.Activate(a); err != nil {
					t.Fatal(err)
				}
				if tc.driver != nil {
					r.sim.Spawn("driver", func(th *sysc.Thread) { tc.driver(th, r.api, a) })
				}
				r.mustRun(t, 20*sysc.Ms)
				out.cycles, out.cet, out.cv = a.Cycles(), a.CET(), a.CharacteristicVector()
				return out
			}
			closure, compiled := run(false), run(true)
			if len(closure.events) == 0 {
				t.Fatal("no events published")
			}
			if !reflect.DeepEqual(closure.events, compiled.events) {
				for i := range min(len(closure.events), len(compiled.events)) {
					if closure.events[i] != compiled.events[i] {
						t.Fatalf("event %d: closure %+v, compiled %+v", i, closure.events[i], compiled.events[i])
					}
				}
				t.Fatalf("closure published %d events, compiled %d", len(closure.events), len(compiled.events))
			}
			if closure.cycles != compiled.cycles || closure.cet != compiled.cet ||
				!reflect.DeepEqual(closure.cv, compiled.cv) {
				t.Fatalf("closure cycles=%d CET=%v S=%v, compiled cycles=%d CET=%v S=%v",
					closure.cycles, closure.cet, closure.cv, compiled.cycles, compiled.cet, compiled.cv)
			}
		})
	}
}

// TestShutdownUnwindsClosureThreads requires Shutdown to end the goroutine
// of every closure T-THREAD, wherever it is parked: inside the body (in
// Consume or BlockCurrent), at the top of its cycle (activated, never
// dispatched), or after its body panicked.
func TestShutdownUnwindsClosureThreads(t *testing.T) {
	work := func(d sysc.Time) func(*core.TThread) {
		return func(tt *core.TThread) { tt.Consume(cost(d, 0), trace.CtxTask, "") }
	}
	cases := []struct {
		name  string
		build func(t *testing.T, r *rig)
	}{
		{"consume", func(t *testing.T, r *rig) {
			_ = r.api.Activate(r.api.CreateThread("a", core.KindTask, 10, work(sysc.Sec)))
			r.mustRun(t, sysc.Ms)
		}},
		{"block", func(t *testing.T, r *rig) {
			_ = r.api.Activate(r.api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
				_ = tt.API().BlockCurrent("never")
			}))
			r.mustRun(t, sysc.Ms)
		}},
		{"never dispatched", func(t *testing.T, r *rig) {
			_ = r.api.Activate(r.api.CreateThread("hog", core.KindTask, 5, work(sysc.Sec)))
			_ = r.api.Activate(r.api.CreateThread("low", core.KindTask, 10, work(sysc.Ms)))
			r.mustRun(t, sysc.Ms)
		}},
		{"panicked", func(t *testing.T, r *rig) {
			_ = r.api.Activate(r.api.CreateThread("bomb", core.KindTask, 10, func(tt *core.TThread) {
				tt.Consume(cost(sysc.Us, 0), trace.CtxTask, "")
				panic("boom")
			}))
			if err := r.sim.Start(sysc.Ms); err == nil {
				t.Fatal("expected the body panic as an error")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			r := newRig()
			tc.build(t, r)
			// A body that swallowed the shutdown unwind would keep its
			// goroutine cycling, and Shutdown would wait on it for ever.
			done := make(chan struct{})
			go func() { r.sim.Shutdown(); close(done) }()
			deadline := time.Now().Add(5 * time.Second)
			select {
			case <-done:
			case <-time.After(time.Until(deadline)):
				t.Fatal("Shutdown did not return")
			}
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Shutdown, want at most %d", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
