package tkds

import (
	"fmt"
	"io"

	"repro/internal/event"
)

// logKinds are the kernel-dynamics events the event log records: the
// T-THREAD event set and the SIM_API operations of Figure 3.
var logKinds = []event.Kind{
	event.KindDispatch, event.KindPreempt, event.KindBlock, event.KindRelease,
	event.KindIntEnter, event.KindIntExit, event.KindActivate, event.KindExit,
	event.KindTerminate, event.KindSuspend, event.KindResume,
}

// EventLog records kernel-dynamics events for run-time tracing of internal
// state changes (the T-Kernel/DS tracing use case). It is an ordinary bus
// subscriber that keeps the bus events of the logKinds subset.
type EventLog struct {
	events []event.Event
	limit  int
	sub    *event.Subscription
}

// NewEventLog subscribes a recorder to bus, capped at limit events (0 =
// unlimited).
func NewEventLog(bus *event.Bus, limit int) *EventLog {
	l := &EventLog{limit: limit}
	l.sub = bus.Subscribe(func(e event.Event) {
		if l.limit == 0 || len(l.events) < l.limit {
			l.events = append(l.events, e)
		}
	}, logKinds...)
	return l
}

// Close detaches the recorder from its bus; the recorded events remain.
func (l *EventLog) Close() { l.sub.Close() }

// Len returns the number of recorded events.
func (l *EventLog) Len() int { return len(l.events) }

// Events returns a copy of the recorded events.
func (l *EventLog) Events() []event.Event {
	return append([]event.Event(nil), l.events...)
}

// ByKind returns the recorded events of one kind.
func (l *EventLog) ByKind(k event.Kind) []event.Event {
	var out []event.Event
	for _, e := range l.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Render writes the log as one line per event.
func (l *EventLog) Render(w io.Writer) {
	fmt.Fprintf(w, "%-14s %-10s %-16s %s\n", "TIME", "EVENT", "T-THREAD", "DETAIL")
	for _, e := range l.events {
		detail := e.Obj
		if e.Kind == event.KindIntEnter {
			detail = fmt.Sprintf("depth %d", e.Seq)
		}
		fmt.Fprintf(w, "%-14s %-10s %-16s %s\n", e.Time, e.Kind, e.ThreadName(), detail)
	}
}
