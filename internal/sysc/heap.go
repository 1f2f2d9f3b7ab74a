package sysc

// timedEntry is a pending timed notification. An event holds at most one
// pending notification, so each entry belongs to exactly one event, which
// records the entry's position in Event.heapIdx.
type timedEntry struct {
	when Time
	seq  uint64 // tie-break so equal-time entries fire in schedule order
	ev   *Event
}

// timedQueue is an indexed binary min-heap of timed notifications ordered
// by (when, seq). Entries are held by value and cancellation removes an
// entry at once, so the heap holds exactly the pending notifications and
// steady-state scheduling does not allocate.
type timedQueue struct {
	items []timedEntry
	seq   uint64 // last sequence number drawn
}

// push inserts e's notification at when. seq is a fresh q.seq draw
// (NotifyAfter) or a captured one (LoadState).
func (q *timedQueue) push(e *Event, when Time, seq uint64) {
	e.heapIdx = int32(len(q.items))
	q.items = append(q.items, timedEntry{when: when, seq: seq, ev: e})
	q.up(len(q.items) - 1)
}

// remove deletes e's entry in O(log n).
func (q *timedQueue) remove(e *Event) {
	i, n := int(e.heapIdx), len(q.items)-1
	if i != n {
		q.swap(i, n)
	}
	q.items[n] = timedEntry{}
	q.items = q.items[:n]
	if i != n && !q.down(i) {
		q.up(i)
	}
}

// pop removes the earliest entry and returns its event.
func (q *timedQueue) pop() *Event {
	ev := q.items[0].ev
	q.remove(ev)
	return ev
}

// when returns the time of e's pending entry.
func (q *timedQueue) when(e *Event) Time { return q.items[e.heapIdx].when }

// nextTime returns the time of the earliest entry; ok is false when the
// queue is empty.
func (q *timedQueue) nextTime() (t Time, ok bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].when, true
}

func (q *timedQueue) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *timedQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].ev.heapIdx = int32(i)
	q.items[j].ev.heapIdx = int32(j)
}

func (q *timedQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// down sifts entry i toward the leaves and reports whether it moved.
func (q *timedQueue) down(i int) bool {
	n, i0 := len(q.items), i
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return i > i0
		}
		q.swap(i, smallest)
		i = smallest
	}
}
