package trace

import "repro/internal/event"

// AttachGantt subscribes the Gantt recorder to the event bus: every charged
// run slice (KindRunSlice) becomes one trace segment. This replaces the old
// direct coupling between the core library and the recorder — the Gantt is
// now just one subscriber among many. The returned subscription detaches it.
func AttachGantt(b *event.Bus, g *Gantt) *event.Subscription {
	return b.Subscribe(func(e event.Event) {
		g.Add(Segment{
			Thread: e.ThreadName(),
			Start:  e.Start,
			End:    e.Time,
			Ctx:    Context(e.Ctx),
			Energy: e.Energy,
			Note:   e.Obj,
		})
	}, event.KindRunSlice)
}
