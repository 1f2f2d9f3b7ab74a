package event

// SubjectCache memoizes a subscriber's per-thread value (a metrics row, a
// trace row) by Subject.Index, so the steady-state lookup is a slice read
// and a pointer compare instead of hashing the thread's name. A slot only
// answers for the exact *Subject that filled it: a subject from another
// SIM_API, or one rebuilt under a reused name, misses and goes through the
// subscriber's own name-keyed lookup, which stays the source of truth.
type SubjectCache[V any] struct {
	slots []subjectSlot[V]
}

type subjectSlot[V any] struct {
	s *Subject
	v V
}

// Get returns the value cached for s. A nil s always misses.
func (c *SubjectCache[V]) Get(s *Subject) (V, bool) {
	if s != nil && uint(s.Index) < uint(len(c.slots)) {
		if slot := &c.slots[s.Index]; slot.s == s {
			return slot.v, true
		}
	}
	var zero V
	return zero, false
}

// Put caches v for s, replacing whatever held s's slot. The cache grows to
// the largest index put, which stays small because subjects are numbered
// densely.
func (c *SubjectCache[V]) Put(s *Subject, v V) {
	if s == nil {
		return
	}
	for len(c.slots) <= s.Index {
		c.slots = append(c.slots, subjectSlot[V]{})
	}
	c.slots[s.Index] = subjectSlot[V]{s: s, v: v}
}

// Reset forgets every cached value.
func (c *SubjectCache[V]) Reset() { clear(c.slots) }
