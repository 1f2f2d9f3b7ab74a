// Package event is the kernel's unified observation surface: a typed,
// multi-subscriber event bus that every layer of the co-simulator publishes
// into — sysc (quiescent points, timed-phase advances), core (charged run
// slices, T-THREAD token transitions) and tkernel (service call enter/exit,
// dispatch/preempt, interrupts, wait enqueue/release, timer-event fires).
//
// The design follows NISTT's non-intrusive tracing architecture: producers
// never know who is listening, and consumers (Gantt recording, Perfetto
// export, metrics, chaos oracles) attach independently without fighting over
// single-consumer hook slots. Subscription is pay-for-what-you-use — with no
// subscriber for a kind, the publish path is a single bitmask test, and with
// no subscriber to quiescent points or clock advances the simulator's
// observer slot stays empty, so an untraced speed-measure run is not
// distorted by the instrumentation.
//
// The bus is deliberately not goroutine-safe: like the rest of the model it
// belongs to exactly one simulation, whose evaluation phase is sequential.
package event

import (
	"repro/internal/petri"
	"repro/internal/sysc"
)

// Kind discriminates the event types carried by the bus.
type Kind uint8

// Event kinds, grouped by publishing layer.
const (
	// sysc layer.
	KindQuiescent   Kind = iota // model quiescent at Time; Seq = delta count
	KindTimeAdvance             // timed phase moved the clock Start -> Time

	// core layer.
	KindRunSlice // thread charged for [Start, Time); Ctx, Energy, Obj=note
	KindToken    // T-THREAD token transition fired; Code = transition index

	// tkernel layer.
	KindSvcEnter  // service call prologue; Obj = service name
	KindSvcExit   // service call epilogue; Obj = name, Code = resolved ER
	KindDispatch  // Thread became the running task
	KindPreempt   // Thread was preempted; Obj = "by <next>"
	KindBlock     // Thread entered a wait queue; Obj = wait object
	KindRelease   // Thread left a wait queue; Obj = reason ("normal", error)
	KindIntEnter  // interrupt handler entered; Seq = nesting depth
	KindIntExit   // interrupt handler exited
	KindActivate  // task activated (dormant -> ready)
	KindExit      // task exited (running -> dormant)
	KindTerminate // task force-terminated
	KindSuspend   // task suspended
	KindResume    // task resumed
	KindTimerFire // timer event fired; Start = armed time, Seq = timer seq

	nKinds
)

var kindNames = [nKinds]string{
	"quiescent", "time-advance",
	"run-slice", "token",
	"svc-enter", "svc-exit", "dispatch", "preempt", "block", "release",
	"int-enter", "int-exit", "activate", "exit", "terminate",
	"suspend", "resume", "timer-fire",
}

// String returns the kind's short name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// NumKinds returns the number of defined event kinds.
func NumKinds() int { return int(nKinds) }

// Subject names the thread an event is about: the SIM_HashTB identity a
// T-THREAD gets when it is created. Index is dense from 1 within one SIM_API
// and never reused, so subscribers can keep per-thread state in slices
// indexed by it; Name is what their reports and traces show. The publisher
// forms one Subject per thread and every event about that thread carries a
// pointer to it, so a subscriber that cached an Index checks the pointer
// before trusting the slot.
type Subject struct {
	Index int
	Name  string
}

// Event is one observation, passed to handlers by value. It is a flat struct
// so publishing allocates nothing; fields not meaningful for a kind are zero.
// It is at most 64 bytes, so the compiler copies it inline on every hop.
//
// Field conventions per kind:
//
//	Time    when the event happened (always set)
//	Start   RunSlice start / TimeAdvance previous now / TimerFire armed time
//	Thread  the subject thread/task/handler, nil for kernel-global events
//	Ctx     RunSlice execution context (trace.Context numeric value)
//	Code    SvcExit resolved ER / Token transition index
//	Obj     service name, wait object, release reason, slice note, "by X"
//	Energy  RunSlice charged energy
//	Seq     Quiescent delta count / IntEnter nesting depth / TimerFire seq
type Event struct {
	Kind   Kind
	Ctx    uint8
	Code   int32
	Time   sysc.Time
	Start  sysc.Time
	Seq    uint64
	Energy petri.Energy
	Thread *Subject
	Obj    string
}

// ThreadName returns the subject thread's name, "" for a kernel-global
// event.
func (e *Event) ThreadName() string {
	if e.Thread == nil {
		return ""
	}
	return e.Thread.Name
}

// Handler consumes published events. Handlers run synchronously on the
// publishing goroutine inside the simulation's evaluation phase; they must
// observe only — never spawn processes, notify events or call kernel
// services.
type Handler func(Event)

type entry struct {
	id int
	h  Handler
}

// Bus routes events from publishers to per-kind subscriber lists. A nil
// *Bus is valid for publishing checks: Wants reports false and Publish is a
// no-op, so model code can hold an optional bus without guarding every use.
type Bus struct {
	mask   uint32
	subs   [nKinds][]entry
	nextID int

	// obs publishes the milestones of the simulator AttachSimulator bound
	// the bus to (nil before that). It sits in the simulator's observer slot
	// only while the mask wants KindQuiescent or KindTimeAdvance
	// (syncObserver).
	obs *simAdapter
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Wants reports whether any subscriber listens for kind k. Publishers guard
// argument construction with it so an unobserved event costs one bitmask
// test and no formatting or allocation.
func (b *Bus) Wants(k Kind) bool {
	return b != nil && b.mask&(1<<k) != 0
}

// Publish delivers e to every subscriber of e.Kind, in subscription order.
func (b *Bus) Publish(e Event) {
	if b == nil || b.mask&(1<<e.Kind) == 0 {
		return
	}
	for _, s := range b.subs[e.Kind] {
		s.h(e)
	}
}

// Subscription identifies one Subscribe call so it can be undone.
type Subscription struct {
	bus   *Bus
	id    int
	kinds []Kind
}

// Subscribe registers h for the given kinds (all kinds when none are given)
// and returns a handle that detaches it again. Subscribing during a Publish
// of the same kind is not supported. The first subscriber to KindQuiescent
// or KindTimeAdvance puts the bus into its attached simulator's observer
// slot (AttachSimulator).
func (b *Bus) Subscribe(h Handler, kinds ...Kind) *Subscription {
	if len(kinds) == 0 {
		kinds = make([]Kind, nKinds)
		for i := range kinds {
			kinds[i] = Kind(i)
		}
	}
	id := b.nextID
	b.nextID++
	sub := &Subscription{bus: b, id: id, kinds: append([]Kind(nil), kinds...)}
	for _, k := range kinds {
		b.subs[k] = append(b.subs[k], entry{id: id, h: h})
		b.mask |= 1 << k
	}
	b.syncObserver()
	return sub
}

// Close removes the subscription's handler from every kind it was registered
// for and recomputes the wants mask; closing the last subscriber to
// KindQuiescent and KindTimeAdvance empties the attached simulator's
// observer slot. Closing twice is harmless.
func (s *Subscription) Close() {
	if s == nil || s.bus == nil {
		return
	}
	b := s.bus
	s.bus = nil
	for _, k := range s.kinds {
		list := b.subs[k]
		for i := 0; i < len(list); {
			if list[i].id == s.id {
				list = append(list[:i], list[i+1:]...)
			} else {
				i++
			}
		}
		b.subs[k] = list
		if len(list) == 0 {
			b.mask &^= 1 << k
		}
	}
	b.syncObserver()
}
