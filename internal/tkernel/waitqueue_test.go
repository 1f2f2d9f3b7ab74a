package tkernel

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sysc"
)

// mkTasks builds bare tasks (detached from any kernel) for wait-queue unit
// tests; only the TThread priority matters to the queue.
func mkTasks(t *testing.T, prios ...int) []*Task {
	t.Helper()
	sim := sysc.NewSimulator()
	t.Cleanup(sim.Shutdown)
	api := core.NewSimAPI(sim, sched.NewPriority(), nil)
	var out []*Task
	for i, p := range prios {
		name := fmt.Sprintf("t%d", i)
		tt := api.CreateThread(name, core.KindTask, p, func(*core.TThread) {})
		out = append(out, &Task{id: ID(i + 1), name: name, tt: tt})
	}
	return out
}

func order(q *waitQueue) []ID { return q.ids() }

func eq(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWaitQueueFIFO(t *testing.T) {
	ts := mkTasks(t, 5, 3, 9)
	q := newWaitQueue(TaTFIFO)
	for _, x := range ts {
		q.add(x)
	}
	if !eq(order(&q), []ID{1, 2, 3}) {
		t.Fatalf("order = %v", order(&q))
	}
	q.remove(ts[1])
	if !eq(order(&q), []ID{1, 3}) || q.len() != 2 {
		t.Fatalf("after remove: %v len %d", order(&q), q.len())
	}
	q.remove(ts[1]) // absent: no-op
	if q.len() != 2 {
		t.Fatal("remove of absent task changed population")
	}
	if q.head() != ts[0] {
		t.Fatalf("head = %v", q.head().name)
	}
	var drained []ID
	q.drain(func(x *Task) { drained = append(drained, x.id) })
	if !eq(drained, []ID{1, 3}) || q.len() != 0 || q.head() != nil {
		t.Fatalf("drain = %v, len %d", drained, q.len())
	}
}

func TestWaitQueuePriorityOrder(t *testing.T) {
	// Priorities 5, 3, 9, 3: priority order with FIFO within class.
	ts := mkTasks(t, 5, 3, 9, 3)
	q := newWaitQueue(TaTPRI)
	for _, x := range ts {
		q.add(x)
	}
	if !eq(order(&q), []ID{2, 4, 1, 3}) {
		t.Fatalf("order = %v", order(&q))
	}
	if got := q.prios(); got[0] != 3 || got[1] != 3 || got[2] != 5 || got[3] != 9 {
		t.Fatalf("prios = %v", got)
	}
}

// TestWaitQueueReposition mirrors requeueWaiter: when a queued task's
// priority changes, the node moves to the tail of its new precedence group.
func TestWaitQueueReposition(t *testing.T) {
	ts := mkTasks(t, 5, 6, 7)
	q := newWaitQueue(TaTPRI)
	for _, x := range ts {
		q.add(x)
	}
	// Boost the last waiter above everyone: it must move to the head.
	ts[2].tt.API().SetEffectivePriority(ts[2].tt, 1)
	k := &Kernel{}
	ts[2].wqIn = &q // normally maintained by add; assert it is
	k.requeueWaiter(ts[2])
	if !eq(order(&q), []ID{3, 1, 2}) {
		t.Fatalf("after boost: %v", order(&q))
	}
	// Drop it to the same class as task 1 (prio 5): FIFO puts it behind.
	ts[2].tt.API().SetEffectivePriority(ts[2].tt, 5)
	k.requeueWaiter(ts[2])
	if !eq(order(&q), []ID{1, 3, 2}) {
		t.Fatalf("after drop: %v", order(&q))
	}
}

// TestWaitQueueZeroAllocs asserts the intrusive data path: add/remove/head
// perform no allocations for FIFO and priority queues alike.
func TestWaitQueueZeroAllocs(t *testing.T) {
	ts := mkTasks(t, 4, 2, 6, 2)
	fifo := newWaitQueue(TaTFIFO)
	pri := newWaitQueue(TaTPRI)
	if n := testing.AllocsPerRun(100, func() {
		for _, x := range ts {
			fifo.add(x)
		}
		fifo.head()
		for _, x := range ts {
			fifo.remove(x)
		}
		for _, x := range ts {
			pri.add(x)
		}
		pri.head()
		for _, x := range ts {
			pri.remove(x)
		}
	}); n != 0 {
		t.Fatalf("wait-queue ops allocate: %.1f allocs/run", n)
	}
}

// firedLog is a timer target recording the generation of every entry it
// is fired with.
type firedLog []int

func (l *firedLog) expire(gen int) { *l = append(*l, gen) }

// TestTimerQueueHeapOrder asserts the heap pops in (when, seq) order and
// earliest() tracks the root.
func TestTimerQueueHeapOrder(t *testing.T) {
	var q timerQueue
	if _, ok := q.earliest(); ok {
		t.Fatal("empty queue has an earliest deadline")
	}
	var rec firedLog
	q.add(30*sysc.Ms, &rec, 3)
	q.add(10*sysc.Ms, &rec, 1)
	q.add(20*sysc.Ms, &rec, 2)
	q.add(10*sysc.Ms, &rec, 11) // same instant: seq order after tag 1
	if w, ok := q.earliest(); !ok || w != 10*sysc.Ms {
		t.Fatalf("earliest = %v", w)
	}
	for {
		it, ok := q.popDue(25 * sysc.Ms)
		if !ok {
			break
		}
		it.target.expire(it.gen)
	}
	if fired := []int(rec); len(fired) != 3 || fired[0] != 1 || fired[1] != 11 || fired[2] != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if w, ok := q.earliest(); !ok || w != 30*sysc.Ms {
		t.Fatalf("earliest after pops = %v", w)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
}
