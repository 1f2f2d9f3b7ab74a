package sysc

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// logObserver records every observer callback, and whether a coroutine
// claimed to be stepping while the model was quiescent.
type logObserver struct {
	sim *Simulator
	log *[]string
}

func (o logObserver) Quiescent(now Time) {
	*o.log = append(*o.log, fmt.Sprintf("Q %v cur=%v", now, o.sim.CurrentCoro() != nil))
}

func (o logObserver) TimeAdvance(from, to Time) {
	*o.log = append(*o.log, fmt.Sprintf("T %v->%v", from, to))
}

// elapseModel is one model built for both consume paths. The worker
// coroutine consumes each duration of its script in turn: with inline set
// it first tries Elapse and continues on success; otherwise (and on every
// fallback) it arms WaitTimeout and returns, as the armed path always does.
type elapseModel struct {
	sim    *Simulator
	log    []string
	got    []bool // Elapse results, inline runs only
	worker *Coro
	delta  *Event
}

type elapseScenario struct {
	name string
	// peersFirst spawns processes before the worker, peersAfter after it.
	peersFirst, peersAfter func(m *elapseModel)
	// before runs in the worker's step just before consuming script[i].
	before func(m *elapseModel, i int)
	// drive runs the simulation; nil means Start(20ms).
	drive func(t *testing.T, m *elapseModel)
	want  []bool // Elapse results in the inline run
}

func newElapseModel(sc elapseScenario, inline bool) *elapseModel {
	m := &elapseModel{sim: NewSimulator()}
	m.sim.SetObserver(logObserver{sim: m.sim, log: &m.log})
	if sc.peersFirst != nil {
		sc.peersFirst(m)
	}
	script := []Time{3 * Ms, 2 * Ms, 5 * Ms}
	wake := m.sim.NewEvent("wake")
	never := m.sim.NewEvent("never")
	i, resumed := 0, false
	m.worker = m.sim.SpawnCoro("worker", func(c *Coro) {
		if resumed {
			m.log = append(m.log, fmt.Sprintf("worker %v timedOut=%v", c.Now(), c.TimedOut()))
		}
		for ; i < len(script); i++ {
			if sc.before != nil {
				sc.before(m, i)
			}
			d := script[i]
			resumed = true
			if inline {
				ok := c.Elapse(d)
				m.got = append(m.got, ok)
				if ok {
					m.log = append(m.log, fmt.Sprintf("worker %v timedOut=%v", c.Now(), c.TimedOut()))
					continue
				}
			}
			i++
			c.WaitTimeout(d, wake)
			return
		}
		resumed = false
		c.WaitEvent(never)
	})
	if sc.peersAfter != nil {
		sc.peersAfter(m)
	}
	return m
}

// peerWait spawns a coroutine that waits d once, logs its wake and ends.
func peerWait(m *elapseModel, name string, d Time) {
	started := false
	m.sim.SpawnCoro(name, func(c *Coro) {
		if !started {
			started = true
			c.Wait(d)
			return
		}
		m.log = append(m.log, fmt.Sprintf("%s %v", name, c.Now()))
	})
}

func startUntil(until Time) func(t *testing.T, m *elapseModel) {
	return func(t *testing.T, m *elapseModel) {
		if err := m.sim.Start(until); err != nil {
			t.Fatal(err)
		}
	}
}

// TestElapseMatchesArmedPath drives every scenario twice, once letting the
// worker elapse inline and once on the armed path, and requires identical
// observer logs, identical resumption times and an identical final
// SimState (HeapSeq included). The scenarios cover the uncontested case and
// every fallback.
func TestElapseMatchesArmedPath(t *testing.T) {
	scenarios := []elapseScenario{
		{name: "uncontested", want: []bool{true, true, true}},
		{
			name:       "earlier entry",
			peersFirst: func(m *elapseModel) { peerWait(m, "peer", Ms) },
			want:       []bool{false, true, true},
		},
		{
			name:       "equal-time entry",
			peersFirst: func(m *elapseModel) { peerWait(m, "peer", 3*Ms) },
			want:       []bool{false, true, true},
		},
		{
			name: "runnable peer",
			peersAfter: func(m *elapseModel) {
				m.sim.SpawnCoro("peer", func(c *Coro) {
					m.log = append(m.log, fmt.Sprintf("peer %v", c.Now()))
				})
			},
			want: []bool{false, true, true},
		},
		{
			name: "pending delta",
			peersAfter: func(m *elapseModel) {
				m.delta = m.sim.NewEvent("delta")
				m.sim.SpawnMethod("listener", func() {
					m.log = append(m.log, fmt.Sprintf("delta %v", m.sim.Now()))
				}, m.delta)
			},
			before: func(m *elapseModel, i int) {
				if i == 1 {
					m.delta.NotifyDelta()
				}
			},
			want: []bool{true, false, true},
		},
		{
			name: "horizon",
			drive: func(t *testing.T, m *elapseModel) {
				startUntil(4*Ms)(t, m)
				m.log = append(m.log, fmt.Sprintf("horizon %v", m.sim.Now()))
				startUntil(20*Ms)(t, m)
			},
			want: []bool{true, false, true},
		},
		{
			name: "cancelled StartContext",
			drive: func(t *testing.T, m *elapseModel) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if err := m.sim.StartContext(ctx, 20*Ms); err != context.Canceled {
					t.Fatalf("StartContext = %v, want context.Canceled", err)
				}
				m.log = append(m.log, fmt.Sprintf("cancelled %v", m.sim.Now()))
				startUntil(20*Ms)(t, m)
			},
			want: []bool{false, true, true},
		},
		{
			name: "stopped",
			before: func(m *elapseModel, i int) {
				if i == 2 {
					m.sim.Stop()
				}
			},
			drive: func(t *testing.T, m *elapseModel) {
				startUntil(20*Ms)(t, m)
				m.log = append(m.log, fmt.Sprintf("stopped %v", m.sim.Now()))
				m.sim.stopRequested = false
				startUntil(20*Ms)(t, m)
			},
			want: []bool{true, true, false},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			drive := sc.drive
			if drive == nil {
				drive = startUntil(20 * Ms)
			}
			run := func(inline bool) (*elapseModel, *SimState) {
				m := newElapseModel(sc, inline)
				defer m.sim.Shutdown()
				drive(t, m)
				if m.worker.Elapse(Ms) {
					t.Fatal("Elapse succeeded outside the coroutine's step")
				}
				st, err := m.sim.SaveState()
				if err != nil {
					t.Fatal(err)
				}
				return m, st
			}
			armed, armedState := run(false)
			inline, inlineState := run(true)
			if !reflect.DeepEqual(inline.got, sc.want) {
				t.Errorf("Elapse results = %v, want %v", inline.got, sc.want)
			}
			if !reflect.DeepEqual(inline.log, armed.log) {
				t.Errorf("logs differ:\ninline %q\narmed  %q", inline.log, armed.log)
			}
			if !reflect.DeepEqual(inlineState, armedState) {
				t.Errorf("final state differs:\ninline %+v\narmed  %+v", inlineState, armedState)
			}
		})
	}
}

// TestStartContextCancelledMidRun cancels the context from another
// goroutine while a coroutine lets time pass inline with Elapse: the run
// stops at a quiescent point before its horizon and reports the
// cancellation.
func TestStartContextCancelledMidRun(t *testing.T) {
	sim := NewSimulator()
	defer sim.Shutdown()
	started := make(chan struct{})
	sim.SpawnCoro("worker", func(c *Coro) {
		if started != nil {
			close(started)
			started = nil
		}
		for c.Elapse(Us) {
		}
		c.Wait(Us)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func(started <-chan struct{}) {
		<-started
		cancel()
	}(started)
	const horizon = 1000 * Sec
	if err := sim.StartContext(ctx, horizon); err != context.Canceled {
		t.Fatalf("StartContext = %v, want context.Canceled", err)
	}
	if now := sim.Now(); now >= horizon {
		t.Fatalf("stopped at %v, want before the %v horizon", now, horizon)
	}
}
