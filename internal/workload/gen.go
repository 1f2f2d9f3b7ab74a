package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/sweep"
)

// GenSpec parameterizes the synthetic task-set generator. The zero value
// means "defaults" (6 tasks, 0.6 utilization, 5–100 ms periods, one object
// per sync class, one interrupt source); a negative object count disables
// that class.
type GenSpec struct {
	// Tasks is the number of periodic tasks (default 6).
	Tasks int `json:"tasks,omitempty"`
	// Util is the total utilization UUniFast distributes (default 0.6).
	Util float64 `json:"util,omitempty"`
	// PeriodMin/PeriodMax bound the log-uniform period draw (defaults
	// 5ms / 100ms).
	PeriodMin Duration `json:"period_min,omitempty"`
	PeriodMax Duration `json:"period_max,omitempty"`
	// Sems, Mutexes, Mbfs, Flags and Interrupts count the generated
	// objects per class (default 1 each; negative disables the class).
	Sems       int `json:"sems,omitempty"`
	Mutexes    int `json:"mutexes,omitempty"`
	Mbfs       int `json:"mbfs,omitempty"`
	Flags      int `json:"flags,omitempty"`
	Interrupts int `json:"interrupts,omitempty"`
}

// normalized resolves defaults and disables.
func (gs GenSpec) Normalized() GenSpec {
	def := func(v, d int) int {
		if v == 0 {
			return d
		}
		if v < 0 {
			return 0
		}
		return v
	}
	gs.Tasks = def(gs.Tasks, 6)
	if gs.Util == 0 {
		gs.Util = 0.6
	}
	if gs.PeriodMin == 0 {
		gs.PeriodMin = Duration(5 * time.Millisecond)
	}
	if gs.PeriodMax == 0 {
		gs.PeriodMax = Duration(100 * time.Millisecond)
	}
	gs.Sems = def(gs.Sems, 1)
	gs.Mutexes = def(gs.Mutexes, 1)
	gs.Mbfs = def(gs.Mbfs, 1)
	gs.Flags = def(gs.Flags, 1)
	gs.Interrupts = def(gs.Interrupts, 1)
	return gs
}

// Validate rejects generator parameters outside the lowering caps.
func (gs GenSpec) Validate() error {
	n := gs.Normalized()
	if n.Tasks < 1 || n.Tasks > maxTasks {
		return fmt.Errorf("workload: gen: tasks %d out of range 1..%d", n.Tasks, maxTasks)
	}
	if !(n.Util > 0) || n.Util > float64(n.Tasks) {
		return fmt.Errorf("workload: gen: util %v out of range", n.Util)
	}
	if n.PeriodMin < Duration(time.Millisecond) || n.PeriodMax < n.PeriodMin {
		return fmt.Errorf("workload: gen: period range %v..%v invalid (min 1ms, max >= min)",
			n.PeriodMin.Std(), n.PeriodMax.Std())
	}
	if n.Sems > maxObjects || n.Mutexes > maxObjects || n.Mbfs > maxObjects || n.Flags > maxObjects {
		return fmt.Errorf("workload: gen: more than %d objects in one class", maxObjects)
	}
	if n.Interrupts > maxInterrupts {
		return fmt.Errorf("workload: gen: more than %d interrupts", maxInterrupts)
	}
	return nil
}

// Generate draws a random-but-valid TaskSet: UUniFast utilizations over
// log-uniform periods with rate-monotonic priorities, sync wiring that the
// validator's deadlock-freedom rules accept by construction (bounded
// timeouts, declaration-order nested locks, a supply cyclic keeping
// semaphores and flags live), and seeded stochastic interrupt sources. The
// result always passes Validate, survives a JSON round trip unchanged, and
// is a pure function of (rng state, gs).
func Generate(rng *sweep.RNG, gs GenSpec) *TaskSet {
	gs = gs.Normalized()
	n := gs.Tasks
	ts := &TaskSet{Name: fmt.Sprintf("gen-t%d-u%02.0f", n, gs.Util*100)}

	for i := 0; i < gs.Sems; i++ {
		ts.Sems = append(ts.Sems, Sem{Name: fmt.Sprintf("s%d", i), Init: 1, PrioOrder: i%2 == 0})
	}
	for i := 0; i < gs.Flags; i++ {
		ts.Flags = append(ts.Flags, Flag{Name: fmt.Sprintf("f%d", i)})
	}
	for i := 0; i < gs.Mbfs; i++ {
		ts.Mbfs = append(ts.Mbfs, Mbf{Name: fmt.Sprintf("b%d", i)})
	}

	// Periods: log-uniform on a 1 ms grid. Priorities: rate monotonic from
	// 5 downward-rank (shorter period = more urgent), ties broken by index.
	utils := uunifast(rng, n, gs.Util)
	periods := make([]Duration, n)
	for i := range periods {
		periods[i] = logUniformMs(rng, gs.PeriodMin, gs.PeriodMax)
	}
	prio := rmPriorities(periods)

	// Mutexes after priorities: a ceiling needs its lockers' minimum
	// priority. Locker sets are fixed by index arithmetic below, so compute
	// them first.
	lockersOf := func(mi int) []int {
		var l []int
		for i := 0; i < n; i++ {
			if gs.Mutexes > 0 && i%3 != 2 && i%gs.Mutexes == mi {
				l = append(l, i)
			}
		}
		return l
	}
	for mi := 0; mi < gs.Mutexes; mi++ {
		m := Mutex{Name: fmt.Sprintf("m%d", mi)}
		lockers := lockersOf(mi)
		if len(lockers) > 0 && rng.Intn(5) < 2 {
			m.Policy = PolicyCeiling
			ceil := maxPriority
			for _, li := range lockers {
				if prio[li] < ceil {
					ceil = prio[li]
				}
			}
			m.Ceiling = ceil
		} else {
			m.Policy = PolicyInherit
		}
		ts.Mutexes = append(ts.Mutexes, m)
	}

	for i := 0; i < n; i++ {
		t := Task{
			Name:     fmt.Sprintf("t%d", i),
			Priority: prio[i],
			Period:   periods[i],
			Offset:   Duration(time.Duration(rng.Intn(int(periods[i].Std()/time.Millisecond))) * time.Millisecond),
		}
		t.Ops, t.CET = genOps(rng, gs, ts, i, utils[i], periods[i])
		ts.Tasks = append(ts.Tasks, t)
	}

	// Supply cyclic: replenishes every semaphore and sets every flag's wait
	// bits, so timeout-bounded waits regularly succeed regardless of how the
	// task graph was wired.
	if gs.Sems > 0 || gs.Flags > 0 {
		c := Cyclic{Name: "supply", Interval: Duration(7 * time.Millisecond)}
		c.Ops = append(c.Ops, Op{Op: OpConsume, Dur: Duration(20 * time.Microsecond), Energy: 1e-9})
		for i := range ts.Sems {
			c.Ops = append(c.Ops, Op{Op: OpSigSem, Obj: ts.Sems[i].Name})
		}
		for i := range ts.Flags {
			c.Ops = append(c.Ops, Op{Op: OpSetFlg, Obj: ts.Flags[i].Name, Pattern: 0xFFFF})
		}
		ts.Cyclics = append(ts.Cyclics, c)
	}

	for i := 0; i < gs.Interrupts; i++ {
		irq := Interrupt{
			Name:    fmt.Sprintf("irq%d", i),
			IntNo:   1 + i,
			Arrival: genArrival(rng),
		}
		irq.Ops = append(irq.Ops, Op{
			Op: OpConsume, Energy: 2e-9,
			Dur: Duration(time.Duration(20+rng.Intn(61)) * time.Microsecond),
		})
		if gs.Sems > 0 {
			irq.Ops = append(irq.Ops, Op{Op: OpSigSem, Obj: ts.Sems[i%gs.Sems].Name})
		} else if gs.Flags > 0 {
			irq.Ops = append(irq.Ops, Op{Op: OpSetFlg, Obj: ts.Flags[i%gs.Flags].Name, Pattern: 1})
		}
		ts.Interrupts = append(ts.Interrupts, irq)
	}

	return ts
}

// genOps builds one task body: the UUniFast budget split into consume
// chunks with sync ops interleaved, every blocking op bounded by the
// task's own period.
func genOps(rng *sweep.RNG, gs GenSpec, ts *TaskSet, i int, util float64, period Duration) ([]Op, Duration) {
	// Execution budget on a 1 µs grid, clamped to [10µs, 80% of period].
	cet := time.Duration(util*float64(period.Std())) / time.Microsecond * time.Microsecond
	if cet < 10*time.Microsecond {
		cet = 10 * time.Microsecond
	}
	if max := period.Std() * 8 / 10; cet > max {
		cet = max / time.Microsecond * time.Microsecond
	}
	chunks := 1 + rng.Intn(3)
	if time.Duration(chunks)*time.Microsecond > cet {
		chunks = 1
	}
	part := cet / time.Duration(chunks) / time.Microsecond * time.Microsecond
	var durs []time.Duration
	rest := cet
	for c := 0; c < chunks-1; c++ {
		durs = append(durs, part)
		rest -= part
	}
	durs = append(durs, rest)

	bound := Duration(period.Std())
	var ops []Op

	// Optional leading wait: semaphore or flag, rotating by index.
	if gs.Sems > 0 && i%3 == 0 {
		ops = append(ops, Op{Op: OpWaiSem, Obj: ts.Sems[i%gs.Sems].Name, Timeout: bound})
	} else if gs.Flags > 0 && i%3 == 1 {
		ops = append(ops, Op{
			Op: OpWaiFlg, Obj: ts.Flags[i%gs.Flags].Name,
			Pattern: 1 << uint(i%16), Mode: ModeOr, Clear: true, Timeout: bound,
		})
	}

	// Consume chunks; one chunk runs inside a declaration-ordered lock
	// region for the 2-of-3 tasks that are lockers.
	locker := gs.Mutexes > 0 && i%3 != 2
	mi := 0
	if gs.Mutexes > 0 {
		mi = i % gs.Mutexes
	}
	for c, d := range durs {
		if locker && c == len(durs)-1 {
			ops = append(ops, Op{Op: OpLock, Obj: ts.Mutexes[mi].Name, Timeout: bound})
			ops = append(ops, Op{Op: OpConsume, Dur: Duration(d), Energy: float64(d) * 1e-12})
			ops = append(ops, Op{Op: OpUnlock, Obj: ts.Mutexes[mi].Name})
		} else {
			ops = append(ops, Op{Op: OpConsume, Dur: Duration(d), Energy: float64(d) * 1e-12})
		}
	}

	// Message traffic: alternate producer/consumer roles per index.
	if gs.Mbfs > 0 {
		b := ts.Mbfs[i%gs.Mbfs].Name
		if i%2 == 0 {
			ops = append(ops, Op{Op: OpSndMbf, Obj: b, Size: 1 + rng.Intn(32), Timeout: bound})
		} else {
			ops = append(ops, Op{Op: OpRcvMbf, Obj: b, Timeout: bound})
		}
	}

	// Trailing signal keeps the semaphore ring live task-to-task too.
	if gs.Sems > 0 {
		ops = append(ops, Op{Op: OpSigSem, Obj: ts.Sems[(i+1)%gs.Sems].Name})
	}
	return ops, Duration(cet)
}

// genArrival draws one stochastic arrival process: kind uniform over the
// three, mean log-uniform in 5–50 ms, gamma shape in [0.5, 4).
func genArrival(rng *sweep.RNG) Arrival {
	a := Arrival{Period: logUniformMs(rng,
		Duration(5*time.Millisecond), Duration(50*time.Millisecond))}
	switch rng.Intn(3) {
	case 0:
		a.Kind = ArrivalPeriodic
	case 1:
		a.Kind = ArrivalPoisson
	default:
		a.Kind = ArrivalGamma
		a.Shape = 0.5 + float64(3.5*rng.Float64())
	}
	return a
}

// uunifast draws n per-task utilizations summing exactly to u
// (Bini & Buttazzo's UUniFast).
func uunifast(rng *sweep.RNG, n int, u float64) []float64 {
	utils := make([]float64, n)
	sum := u
	for i := 0; i < n-1; i++ {
		next := float64(sum * math.Pow(rng.Float64(), 1/float64(n-1-i)))
		utils[i] = sum - next
		sum = next
	}
	utils[n-1] = sum
	return utils
}

// logUniformMs draws log-uniformly from [lo, hi], rounded to 1 ms.
func logUniformMs(rng *sweep.RNG, lo, hi Duration) Duration {
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	d := time.Duration(math.Exp(l + float64((h-l)*rng.Float64())))
	ms := d.Round(time.Millisecond)
	if ms < lo.Std() {
		ms = lo.Std().Round(time.Millisecond)
	}
	if ms > hi.Std() {
		ms = hi.Std().Round(time.Millisecond)
	}
	return Duration(ms)
}

// rmPriorities assigns rate-monotonic priorities starting at 5: the
// shortest period gets 5, ties broken by declaration index.
func rmPriorities(periods []Duration) []int {
	n := len(periods)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for a := 0; a < n; a++ { // stable selection sort: n is tiny
		best := a
		for b := a + 1; b < n; b++ {
			if periods[order[b]] < periods[order[best]] {
				best = b
			}
		}
		order[a], order[best] = order[best], order[a]
	}
	prio := make([]int, n)
	for rank, idx := range order {
		prio[idx] = 5 + rank
	}
	return prio
}

// ParseGenFlag parses the -gen CLI syntax: comma-separated key=value pairs
// ("tasks=8,util=0.65,irqs=2,sems=2,mutexes=1,mbfs=1,flags=1,pmin=5ms,
// pmax=100ms"). An empty string means all defaults.
func ParseGenFlag(s string) (*GenSpec, error) {
	gs := &GenSpec{}
	if strings.TrimSpace(s) == "" {
		return gs, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("workload: gen flag: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "tasks":
			gs.Tasks, err = strconv.Atoi(v)
		case "util":
			gs.Util, err = strconv.ParseFloat(v, 64)
		case "sems":
			gs.Sems, err = parseCount(v)
		case "mutexes":
			gs.Mutexes, err = parseCount(v)
		case "mbfs":
			gs.Mbfs, err = parseCount(v)
		case "flags":
			gs.Flags, err = parseCount(v)
		case "irqs":
			gs.Interrupts, err = parseCount(v)
		case "pmin":
			gs.PeriodMin, err = parseDur(v)
		case "pmax":
			gs.PeriodMax, err = parseDur(v)
		default:
			return nil, fmt.Errorf("workload: gen flag: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("workload: gen flag: %s: %w", k, err)
		}
	}
	if err := gs.Validate(); err != nil {
		return nil, err
	}
	return gs, nil
}

// parseCount parses an object count, mapping an explicit 0 to the
// "disabled" encoding (-1) so it survives normalization.
func parseCount(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		n = -1
	}
	return n, nil
}

func parseDur(v string) (Duration, error) {
	d, err := time.ParseDuration(v)
	return Duration(d), err
}
