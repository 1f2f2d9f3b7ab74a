package event_test

import (
	"io"
	"testing"
	"unsafe"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/sysc"
	"repro/internal/trace"
)

func TestNilBusIsInert(t *testing.T) {
	var b *event.Bus
	if b.Wants(event.KindDispatch) {
		t.Fatal("nil bus wants events")
	}
	b.Publish(event.Event{Kind: event.KindDispatch}) // must not panic
}

func TestWantsTracksSubscriptions(t *testing.T) {
	b := event.NewBus()
	if b.Wants(event.KindRunSlice) {
		t.Fatal("empty bus wants run-slice")
	}
	sub := b.Subscribe(func(event.Event) {}, event.KindRunSlice)
	if !b.Wants(event.KindRunSlice) {
		t.Fatal("bus does not want run-slice after subscribe")
	}
	if b.Wants(event.KindDispatch) {
		t.Fatal("bus wants a kind nobody subscribed to")
	}
	sub.Close()
	if b.Wants(event.KindRunSlice) {
		t.Fatal("bus still wants run-slice after close")
	}
	sub.Close() // second close is harmless
}

func TestPublishRoutesByKind(t *testing.T) {
	b := event.NewBus()
	var got []event.Event
	b.Subscribe(func(e event.Event) { got = append(got, e) },
		event.KindDispatch, event.KindPreempt)
	a, x, c := &event.Subject{Index: 1, Name: "a"}, &event.Subject{Index: 2, Name: "x"}, &event.Subject{Index: 3, Name: "b"}
	b.Publish(event.Event{Kind: event.KindDispatch, Thread: a})
	b.Publish(event.Event{Kind: event.KindBlock, Thread: x}) // not subscribed
	b.Publish(event.Event{Kind: event.KindPreempt, Thread: c})
	if len(got) != 2 || got[0].ThreadName() != "a" || got[1].ThreadName() != "b" {
		t.Fatalf("got %+v", got)
	}
}

func TestSubscribeAllKinds(t *testing.T) {
	b := event.NewBus()
	n := 0
	sub := b.Subscribe(func(event.Event) { n++ })
	for k := 0; k < event.NumKinds(); k++ {
		if !b.Wants(event.Kind(k)) {
			t.Fatalf("kind %v not wanted by catch-all subscriber", event.Kind(k))
		}
		b.Publish(event.Event{Kind: event.Kind(k)})
	}
	if n != event.NumKinds() {
		t.Fatalf("delivered %d of %d", n, event.NumKinds())
	}
	sub.Close()
	for k := 0; k < event.NumKinds(); k++ {
		if b.Wants(event.Kind(k)) {
			t.Fatalf("kind %v still wanted after close", event.Kind(k))
		}
	}
}

func TestMultipleSubscribersInOrder(t *testing.T) {
	b := event.NewBus()
	var order []int
	first := b.Subscribe(func(event.Event) { order = append(order, 1) }, event.KindSvcExit)
	b.Subscribe(func(event.Event) { order = append(order, 2) }, event.KindSvcExit)
	b.Publish(event.Event{Kind: event.KindSvcExit})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order %v", order)
	}
	first.Close()
	order = nil
	b.Publish(event.Event{Kind: event.KindSvcExit})
	if len(order) != 1 || order[0] != 2 {
		t.Fatalf("after close, order %v", order)
	}
	if !b.Wants(event.KindSvcExit) {
		t.Fatal("bus lost interest while a subscriber remains")
	}
}

// TestEventSize pins the event at 64 bytes or less: every publish and every
// handler call copies it, and past 64 bytes the compiler copies it with a
// runtime.duffcopy call instead of inline moves.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event.Event{}); n > 64 {
		t.Fatalf("event.Event is %d bytes, want <= 64 so it is copied inline", n)
	}
}

func TestThreadName(t *testing.T) {
	e := event.Event{Kind: event.KindDispatch}
	if got := e.ThreadName(); got != "" {
		t.Fatalf("kernel-global event names thread %q", got)
	}
	e.Thread = &event.Subject{Index: 1, Name: "w"}
	if got := e.ThreadName(); got != "w" {
		t.Fatalf("ThreadName = %q, want w", got)
	}
}

// TestSubjectCache: a slot answers only for the subject that filled it, so
// another subject on the same index (a thread re-created under its name, or
// one from a different SIM_API) misses.
func TestSubjectCache(t *testing.T) {
	var c event.SubjectCache[int]
	s1 := &event.Subject{Index: 3, Name: "a"}
	s2 := &event.Subject{Index: 3, Name: "a"}
	if _, ok := c.Get(nil); ok {
		t.Fatal("nil subject hit")
	}
	if _, ok := c.Get(s1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(s1, 7)
	if v, ok := c.Get(s1); !ok || v != 7 {
		t.Fatalf("Get(s1) = %d, %v", v, ok)
	}
	if _, ok := c.Get(s2); ok {
		t.Fatal("different subject on the same index hit")
	}
	c.Reset()
	if _, ok := c.Get(s1); ok {
		t.Fatal("hit after Reset")
	}
}

// BenchmarkBusPublish is the bus's own per-event cost: one run-slice event
// fanned out to two subscribers that read it.
func BenchmarkBusPublish(b *testing.B) {
	bus := event.NewBus()
	var n int
	var sum float64
	bus.Subscribe(func(e event.Event) { n += int(e.Ctx) }, event.KindRunSlice)
	bus.Subscribe(func(e event.Event) { sum += float64(e.Energy) }, event.KindRunSlice)
	e := event.Event{Kind: event.KindRunSlice, Ctx: 1, Time: 2, Start: 1, Energy: 1e-3,
		Thread: &event.Subject{Index: 1, Name: "worker"}, Obj: "step"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Seq = uint64(i)
		bus.Publish(e)
	}
	if n != b.N || sum == 0 {
		b.Fatalf("delivered %d of %d", n, b.N)
	}
}

func TestKindNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for k := 0; k < event.NumKinds(); k++ {
		name := event.Kind(k).String()
		if name == "?" || name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
}

// TestAttachSimulator drives a tiny model and checks quiescent/time-advance
// events stream out in time order with matching boundaries.
func TestAttachSimulator(t *testing.T) {
	sim := sysc.NewSimulator()
	b := event.NewBus()
	event.AttachSimulator(b, sim)

	var quiescent, advances []event.Event
	b.Subscribe(func(e event.Event) { quiescent = append(quiescent, e) }, event.KindQuiescent)
	b.Subscribe(func(e event.Event) { advances = append(advances, e) }, event.KindTimeAdvance)

	ev := sim.NewEvent("tick")
	n := 0
	sim.Spawn("ticker", func(th *sysc.Thread) {
		for n < 3 {
			n++
			ev.NotifyAfter(1 * sysc.Ms)
			th.WaitEvent(ev)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	defer sim.Shutdown()

	if len(quiescent) == 0 || len(advances) == 0 {
		t.Fatalf("quiescent=%d advances=%d, want both > 0", len(quiescent), len(advances))
	}
	for _, a := range advances {
		if a.Start >= a.Time {
			t.Fatalf("advance from %v to %v not forward", a.Start, a.Time)
		}
	}
	last := advances[len(advances)-1]
	if last.Time != 3*sysc.Ms {
		t.Fatalf("final advance to %v, want 3ms", last.Time)
	}
}

// TestObserverSlotOnDemand checks that the bus occupies the simulator's
// observer slot only while some subscriber wants quiescent points or clock
// advances, whichever of AttachSimulator and Subscribe comes first.
func TestObserverSlotOnDemand(t *testing.T) {
	nop := func(event.Event) {}
	occupied := func(sim *sysc.Simulator) bool { return sim.Observer() != nil }

	t.Run("subscribe-before-attach", func(t *testing.T) {
		sim, b := sysc.NewSimulator(), event.NewBus()
		sub := b.Subscribe(nop, event.KindQuiescent)
		if occupied(sim) {
			t.Fatal("slot filled before AttachSimulator")
		}
		event.AttachSimulator(b, sim)
		if !occupied(sim) {
			t.Fatal("slot empty with a quiescent subscriber attached first")
		}
		sub.Close()
		if occupied(sim) {
			t.Fatal("slot still filled after the last subscriber closed")
		}
	})

	t.Run("subscribe-after-attach", func(t *testing.T) {
		sim, b := sysc.NewSimulator(), event.NewBus()
		event.AttachSimulator(b, sim)
		if occupied(sim) {
			t.Fatal("slot filled on a bus with no subscriber")
		}
		q := b.Subscribe(nop, event.KindQuiescent)
		ta := b.Subscribe(nop, event.KindTimeAdvance)
		if !occupied(sim) {
			t.Fatal("slot empty after subscribing")
		}
		q.Close()
		if !occupied(sim) {
			t.Fatal("slot emptied while a time-advance subscriber remains")
		}
		ta.Close()
		if occupied(sim) {
			t.Fatal("slot still filled after the last subscriber closed")
		}
		all := b.Subscribe(nop) // every kind
		if !occupied(sim) {
			t.Fatal("slot empty with an all-kinds subscriber")
		}
		all.Close()
		if occupied(sim) {
			t.Fatal("slot still filled after the all-kinds subscriber closed")
		}
	})

	t.Run("metrics-and-perfetto-only", func(t *testing.T) {
		sim, b := sysc.NewSimulator(), event.NewBus()
		event.AttachSimulator(b, sim)
		metrics.Attach(b)
		trace.AttachPerfetto(b, io.Discard)
		if occupied(sim) {
			t.Fatal("metrics or Perfetto filled the observer slot")
		}
	})
}
