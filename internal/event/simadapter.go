package event

import "repro/internal/sysc"

// simAdapter bridges the sysc.Observer callbacks onto the bus.
type simAdapter struct {
	b   *Bus
	sim *sysc.Simulator
}

func (a *simAdapter) Quiescent(now sysc.Time) {
	if a.b.Wants(KindQuiescent) {
		a.b.Publish(Event{Kind: KindQuiescent, Time: now, Seq: a.sim.DeltaCount()})
	}
}

func (a *simAdapter) TimeAdvance(from, to sysc.Time) {
	if a.b.Wants(KindTimeAdvance) {
		a.b.Publish(Event{Kind: KindTimeAdvance, Start: from, Time: to})
	}
}

// simKinds are the kinds the simulator's observer slot publishes.
const simKinds = 1<<KindQuiescent | 1<<KindTimeAdvance

// AttachSimulator binds the bus to sim: KindQuiescent is published at every
// quiescent point and KindTimeAdvance whenever the clock moves. The
// simulator has a single observer slot, and the bus fills it only while
// some subscriber wants one of those two kinds — before or after this call,
// in any order — so a run nobody observes at that grain pays one nil test
// per scheduler milestone. Fan-out happens on the bus. A bus drives one
// simulator: attaching it again rebinds it.
func AttachSimulator(b *Bus, sim *sysc.Simulator) {
	b.obs = &simAdapter{b: b, sim: sim}
	b.syncObserver()
}

// syncObserver fills or empties the attached simulator's observer slot to
// match the wants mask.
func (b *Bus) syncObserver() {
	switch {
	case b.obs == nil:
	case b.mask&simKinds != 0:
		b.obs.sim.SetObserver(b.obs)
	default:
		b.obs.sim.SetObserver(nil)
	}
}
