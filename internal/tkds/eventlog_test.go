package tkds_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/sched"
	"repro/internal/sysc"
	"repro/internal/tkds"
	"repro/internal/trace"
)

// logRig is a bare SIM_API instance on a priority scheduler with an event
// log subscribed to its bus.
func logRig(t *testing.T, limit int) (*core.SimAPI, *sysc.Simulator, *tkds.EventLog) {
	t.Helper()
	sim := sysc.NewSimulator()
	t.Cleanup(sim.Shutdown)
	bus := event.NewBus()
	event.AttachSimulator(bus, sim)
	api := core.NewSimAPI(sim, sched.NewPriority(), bus)
	return api, sim, tkds.NewEventLog(bus, limit)
}

func mustStart(t *testing.T, sim *sysc.Simulator, until sysc.Time) {
	t.Helper()
	if err := sim.Start(until); err != nil {
		t.Fatal(err)
	}
}

func TestEventLogRecordsKernelDynamics(t *testing.T) {
	api, sim, log := logRig(t, 0)
	lo := api.CreateThread("lo", core.KindTask, 10, func(tt *core.TThread) {
		tt.Consume(core.Cost{Time: 10 * sysc.Ms}, trace.CtxTask, "")
	})
	hi := api.CreateThread("hi", core.KindTask, 1, func(tt *core.TThread) {
		tt.Consume(core.Cost{Time: 2 * sysc.Ms}, trace.CtxTask, "")
	})
	isr := api.CreateThread("isr", core.KindISR, 0, func(tt *core.TThread) {
		tt.Consume(core.Cost{Time: 1 * sysc.Ms}, trace.CtxHandler, "")
	})
	_ = api.Activate(lo)
	sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(2 * sysc.Ms)
		_ = api.Activate(hi)
		th.Wait(5 * sysc.Ms)
		_ = api.EnterInterrupt(isr)
	})
	mustStart(t, sim, sysc.Sec)

	if len(log.ByKind(event.KindActivate)) != 2 {
		t.Fatalf("activates = %d", len(log.ByKind(event.KindActivate)))
	}
	pre := log.ByKind(event.KindPreempt)
	if len(pre) != 1 || pre[0].ThreadName() != "lo" || !strings.Contains(pre[0].Obj, "hi") {
		t.Fatalf("preempts = %+v", pre)
	}
	if len(log.ByKind(event.KindIntEnter)) != 1 || len(log.ByKind(event.KindIntExit)) != 1 {
		t.Fatal("interrupt events missing")
	}
	if len(log.ByKind(event.KindDispatch)) < 3 {
		t.Fatalf("dispatches = %d", len(log.ByKind(event.KindDispatch)))
	}
	if len(log.ByKind(event.KindExit)) != 2 { // two task exits (isr exit is int-exit)
		t.Fatalf("exits = %d", len(log.ByKind(event.KindExit)))
	}
	// Events carry timestamps in order.
	evs := log.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatal("event log out of order")
		}
	}
	var sb strings.Builder
	log.Render(&sb)
	if !strings.Contains(sb.String(), "preempt") || !strings.Contains(sb.String(), "int-enter") ||
		!strings.Contains(sb.String(), "depth 1") {
		t.Fatalf("render:\n%s", sb.String())
	}
}

func TestEventLogBlockRelease(t *testing.T) {
	api, sim, log := logRig(t, 0)
	a := api.CreateThread("a", core.KindTask, 10, func(tt *core.TThread) {
		_ = api.BlockCurrent("sem#7")
	})
	_ = api.Activate(a)
	sim.Spawn("driver", func(th *sysc.Thread) {
		th.Wait(3 * sysc.Ms)
		api.Release(a, nil)
	})
	mustStart(t, sim, sysc.Sec)
	blocks := log.ByKind(event.KindBlock)
	if len(blocks) != 1 || blocks[0].Obj != "sem#7" {
		t.Fatalf("blocks = %+v", blocks)
	}
	if len(log.ByKind(event.KindRelease)) != 1 {
		t.Fatal("release missing")
	}
}

func TestEventLogLimit(t *testing.T) {
	api, sim, log := logRig(t, 2)
	for i := 0; i < 5; i++ {
		a := api.CreateThread("t", core.KindTask, 10, func(tt *core.TThread) {})
		_ = api.Activate(a)
	}
	mustStart(t, sim, 10*sysc.Ms)
	if log.Len() != 2 {
		t.Fatalf("len = %d, want capped 2", log.Len())
	}
}
