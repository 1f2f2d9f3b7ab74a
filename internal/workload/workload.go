// Package workload is the scenario DSL and synthetic task-set generator of
// the RTK-Spec TRON model: a pure-data description of an ITRON application —
// tasks with priorities, periods and execution budgets, a sync-object graph
// (semaphores, mutexes, message buffers, event flags), time-event handlers
// and stochastic interrupt sources — plus a seeded generator that draws
// random-but-valid task sets from a small parameter spec.
//
// A TaskSet is declarative: Build lowers it onto a kernel through the
// tkernel Program IR (CreTskProg / CreCycProg / CreAlmProg / DefIntProg),
// whose bodies the scheduler loop drives inline. Everything stochastic (generator draws, Poisson/Gamma
// interrupt arrivals) comes from seeded sweep.RNG streams, so a TaskSet —
// and every artifact of its run — is a pure function of (spec, seed).
package workload

import "repro/internal/run/opts"

// Duration re-exports the spec wire representation ("250ms" JSON strings).
type Duration = opts.Duration

// Op kinds. Task bodies may use every kind; handler bodies (cyclic, alarm,
// interrupt) are restricted to the non-blocking kinds OpConsume, OpSigSem,
// OpSetFlg and OpWupTsk.
const (
	// OpConsume consumes application execution time/energy (the CET/ETM
	// annotation).
	OpConsume = "consume"
	// OpDlyTsk delays the task for Dur (tk_dly_tsk).
	OpDlyTsk = "dly_tsk"
	// OpSlpTsk sleeps until a wakeup or the timeout (tk_slp_tsk).
	OpSlpTsk = "slp_tsk"
	// OpWupTsk wakes task Obj (tk_wup_tsk).
	OpWupTsk = "wup_tsk"
	// OpLock locks mutex Obj (tk_loc_mtx). On timeout the body skips past
	// the matching OpUnlock. Locks nest by declaration order: an inner lock
	// must name a mutex declared after every mutex currently held.
	OpLock = "lock"
	// OpUnlock unlocks mutex Obj (tk_unl_mtx); must match the innermost
	// held OpLock.
	OpUnlock = "unlock"
	// OpSigSem signals semaphore Obj by Count (tk_sig_sem).
	OpSigSem = "sig_sem"
	// OpWaiSem waits on semaphore Obj for Count (tk_wai_sem).
	OpWaiSem = "wai_sem"
	// OpSndMbf sends a Size-byte message to buffer Obj (tk_snd_mbf).
	OpSndMbf = "snd_mbf"
	// OpRcvMbf receives a message from buffer Obj (tk_rcv_mbf).
	OpRcvMbf = "rcv_mbf"
	// OpSetFlg sets Pattern bits on event flag Obj (tk_set_flg).
	OpSetFlg = "set_flg"
	// OpWaiFlg waits until event flag Obj satisfies (Pattern, Mode)
	// (tk_wai_flg).
	OpWaiFlg = "wai_flg"
)

// Flag wait modes (Op.Mode of an OpWaiFlg).
const (
	// ModeOr waits until any Pattern bit is set (the default).
	ModeOr = "or"
	// ModeAnd waits until all Pattern bits are set.
	ModeAnd = "and"
)

// Arrival kinds (Arrival.Kind).
const (
	// ArrivalPeriodic fires at fixed Period intervals.
	ArrivalPeriodic = "periodic"
	// ArrivalPoisson draws exponential interarrivals with mean Period.
	ArrivalPoisson = "poisson"
	// ArrivalGamma draws Gamma(Shape) interarrivals with mean Period.
	ArrivalGamma = "gamma"
)

// Mutex policies (Mutex.Policy).
const (
	// PolicyInherit is priority inheritance (TA_INHERIT).
	PolicyInherit = "inherit"
	// PolicyCeiling is priority ceiling (TA_CEILING); Ceiling must outrank
	// (be numerically <=) every locker's priority.
	PolicyCeiling = "ceiling"
	// PolicyNone is a plain priority-queued mutex.
	PolicyNone = "none"
)

// TaskSet is a complete declarative scenario: the JSON wire format behind
// run.Spec.Synthetic. All cross-references are by name; Validate checks the
// whole graph before anything is lowered onto a kernel.
type TaskSet struct {
	// Name labels the set in summaries and generated artifacts.
	Name string `json:"name,omitempty"`

	Tasks      []Task      `json:"tasks"`
	Sems       []Sem       `json:"sems,omitempty"`
	Mutexes    []Mutex     `json:"mutexes,omitempty"`
	Mbfs       []Mbf       `json:"mbfs,omitempty"`
	Flags      []Flag      `json:"flags,omitempty"`
	Cyclics    []Cyclic    `json:"cyclics,omitempty"`
	Alarms     []Alarm     `json:"alarms,omitempty"`
	Interrupts []Interrupt `json:"interrupts,omitempty"`
}

// Task is one application task. A periodic task (Period > 0) is released by
// an implicit cyclic handler every Period (first release at Offset, or at
// Period when Offset is 0) and sleeps between activations; an aperiodic
// task (Period == 0) loops its op list freely and must therefore contain at
// least one time-advancing op.
type Task struct {
	Name     string   `json:"name"`
	Priority int      `json:"priority"`
	Period   Duration `json:"period,omitempty"`
	Offset   Duration `json:"offset,omitempty"`
	// CET, when non-zero, documents the task's execution budget per
	// activation and must equal the sum of its OpConsume durations.
	CET Duration `json:"cet,omitempty"`
	Ops []Op     `json:"ops"`
}

// Op is one body operation; which fields matter depends on Op.
type Op struct {
	Op string `json:"op"`
	// Dur is the consumed time (OpConsume) or delay (OpDlyTsk).
	Dur Duration `json:"dur,omitempty"`
	// Energy is the consumed energy in joules (OpConsume).
	Energy float64 `json:"energy,omitempty"`
	// Obj names the referenced object (sem, mutex, mbf, flag or task).
	Obj string `json:"obj,omitempty"`
	// Count is the semaphore count (OpSigSem/OpWaiSem; default 1).
	Count int `json:"count,omitempty"`
	// Size is the message size in bytes (OpSndMbf).
	Size int `json:"size,omitempty"`
	// Pattern is the flag bit pattern (OpSetFlg/OpWaiFlg).
	Pattern uint32 `json:"pattern,omitempty"`
	// Mode is the flag wait mode: ModeOr (default) or ModeAnd (OpWaiFlg).
	Mode string `json:"mode,omitempty"`
	// Clear clears the whole flag pattern on release (OpWaiFlg).
	Clear bool `json:"clear,omitempty"`
	// Timeout bounds blocking ops (waits, locks, sends/receives, sleeps).
	// Zero waits forever.
	Timeout Duration `json:"timeout,omitempty"`
}

// Sem declares a semaphore.
type Sem struct {
	Name string `json:"name"`
	Init int    `json:"init,omitempty"`
	// Max bounds the count (default 1<<30).
	Max int `json:"max,omitempty"`
	// PrioOrder queues waiters by priority instead of FIFO.
	PrioOrder bool `json:"prio_order,omitempty"`
}

// Mutex declares a mutex.
type Mutex struct {
	Name string `json:"name"`
	// Policy is PolicyInherit, PolicyCeiling or PolicyNone (default
	// PolicyInherit).
	Policy string `json:"policy,omitempty"`
	// Ceiling is the ceiling priority (PolicyCeiling only).
	Ceiling int `json:"ceiling,omitempty"`
}

// Mbf declares a message buffer.
type Mbf struct {
	Name   string `json:"name"`
	BufSz  int    `json:"bufsz,omitempty"`  // default 256
	MaxMsg int    `json:"maxmsg,omitempty"` // default 32
	// PrioOrder queues senders by priority instead of FIFO.
	PrioOrder bool `json:"prio_order,omitempty"`
}

// Flag declares an event flag (TA_WMUL: multiple waiters allowed).
type Flag struct {
	Name string `json:"name"`
	Init uint32 `json:"init,omitempty"`
}

// Cyclic declares a cyclic handler running Ops every Interval (first fire
// at Phase, or at Interval when Phase is 0).
type Cyclic struct {
	Name     string   `json:"name"`
	Interval Duration `json:"interval"`
	Phase    Duration `json:"phase,omitempty"`
	Ops      []Op     `json:"ops"`
}

// Alarm declares an alarm handler armed Start after boot. A non-zero Rearm
// re-arms the alarm that long after each firing (a self-rearming alarm);
// zero fires once.
type Alarm struct {
	Name  string   `json:"name"`
	Start Duration `json:"start"`
	Rearm Duration `json:"rearm,omitempty"`
	Ops   []Op     `json:"ops"`
}

// Interrupt declares an external interrupt source: a handler body plus the
// stochastic arrival process of a device model raising it.
type Interrupt struct {
	Name    string  `json:"name"`
	IntNo   int     `json:"intno"`
	Arrival Arrival `json:"arrival"`
	Ops     []Op    `json:"ops"`
}

// Arrival is a seeded, deterministic arrival process. The raise instants
// are a pure function of (run seed, source index, Arrival): equal specs
// replay identical interrupt schedules.
type Arrival struct {
	// Kind is ArrivalPeriodic, ArrivalPoisson or ArrivalGamma.
	Kind string `json:"kind"`
	// Period is the fixed interval (periodic) or mean interarrival
	// (poisson, gamma).
	Period Duration `json:"period"`
	// Shape is the Gamma shape parameter k > 0 (gamma only); larger k
	// means more regular arrivals.
	Shape float64 `json:"shape,omitempty"`
}
