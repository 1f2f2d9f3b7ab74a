// Package tkds models T-Kernel/DS, the debugger-support component of
// RTK-Spec TRON: it references kernel resources and internal state through
// the kernel's tk_ref_* functions and renders the object listings of the
// paper's Figure 8, plus a kernel event trace for tracing internal state
// changes at run time.
package tkds

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sysc"
	"repro/internal/tkernel"
)

// DS is a debugger-support session bound to a kernel instance.
type DS struct {
	k    *tkernel.Kernel
	elog *EventLog // the attached kernel-dynamics recorder, nil when none
}

// New attaches debugger support to a kernel.
func New(k *tkernel.Kernel) *DS { return &DS{k: k} }

// ListTasks writes the task listing: ID, name, state, priorities, wait
// object, statistics.
func (d *DS) ListTasks(w io.Writer) {
	fmt.Fprintf(w, "== TASK ==\n")
	fmt.Fprintf(w, "%-4s %-12s %-18s %4s %4s %-18s %4s %4s %12s\n",
		"ID", "NAME", "STATE", "PRI", "BPRI", "WAIT-OBJ", "WUP", "SUS", "CET")
	for _, id := range d.k.TaskList() {
		info, er := d.k.RefTsk(id)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-4d %-12s %-18s %4d %4d %-18s %4d %4d %12s\n",
			id, info.Name, info.State, info.Priority, info.BasePrio,
			dash(info.WaitObj), info.WupCount, info.SusCount, info.CET)
	}
}

// ListSemaphores writes the semaphore listing.
func (d *DS) ListSemaphores(w io.Writer) {
	fmt.Fprintf(w, "== SEMAPHORE ==\n")
	fmt.Fprintf(w, "%-4s %-12s %6s %6s %s\n", "ID", "NAME", "CNT", "MAX", "WAITING")
	for _, id := range d.k.SemList() {
		info, er := d.k.RefSem(id)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-4d %-12s %6d %6d %s\n",
			id, info.Name, info.Count, info.MaxCount, list(info.Waiting))
	}
}

// ListFlags writes the event-flag listing.
func (d *DS) ListFlags(w io.Writer) {
	fmt.Fprintf(w, "== EVENTFLAG ==\n")
	fmt.Fprintf(w, "%-4s %-12s %10s %s\n", "ID", "NAME", "PATTERN", "WAITING")
	for _, id := range d.k.FlgList() {
		info, er := d.k.RefFlg(id)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-4d %-12s 0x%08x %s\n", id, info.Name, info.Pattern, list(info.Waiting))
	}
}

// ListMutexes writes the mutex listing.
func (d *DS) ListMutexes(w io.Writer) {
	fmt.Fprintf(w, "== MUTEX ==\n")
	fmt.Fprintf(w, "%-4s %-12s %-12s %s\n", "ID", "NAME", "OWNER", "WAITING")
	for _, id := range d.k.MtxList() {
		info, er := d.k.RefMtx(id)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-4d %-12s %-12s %s\n", id, info.Name, dash(info.OwnerName), list(info.Waiting))
	}
}

// ListMailboxes writes the mailbox listing.
func (d *DS) ListMailboxes(w io.Writer) {
	fmt.Fprintf(w, "== MAILBOX ==\n")
	fmt.Fprintf(w, "%-4s %-12s %6s %s\n", "ID", "NAME", "MSGS", "WAITING")
	for _, id := range d.k.MbxList() {
		info, er := d.k.RefMbx(id)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-4d %-12s %6d %s\n", id, info.Name, info.Messages, list(info.Waiting))
	}
}

// ListMessageBuffers writes the message-buffer listing.
func (d *DS) ListMessageBuffers(w io.Writer) {
	fmt.Fprintf(w, "== MSGBUF ==\n")
	fmt.Fprintf(w, "%-4s %-12s %6s %6s %-16s %s\n", "ID", "NAME", "MSGS", "FREE", "SND-WAIT", "RCV-WAIT")
	for _, id := range d.k.MbfList() {
		info, er := d.k.RefMbf(id)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-4d %-12s %6d %6d %-16s %s\n",
			id, info.Name, info.Messages, info.FreeBytes,
			list(info.SendWaiting), list(info.RecvWaiting))
	}
}

// ListMemoryPools writes fixed- and variable-pool listings.
func (d *DS) ListMemoryPools(w io.Writer) {
	fmt.Fprintf(w, "== MEMPOOL(F) ==\n")
	fmt.Fprintf(w, "%-4s %-12s %6s %6s %s\n", "ID", "NAME", "FREE", "BLKSZ", "WAITING")
	for _, id := range d.k.MpfList() {
		info, er := d.k.RefMpf(id)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-4d %-12s %6d %6d %s\n",
			id, info.Name, info.Free, info.BlockSize, list(info.Waiting))
	}
	fmt.Fprintf(w, "== MEMPOOL(V) ==\n")
	fmt.Fprintf(w, "%-4s %-12s %8s %8s %s\n", "ID", "NAME", "FREE", "MAXBLK", "WAITING")
	for _, id := range d.k.MplList() {
		info, er := d.k.RefMpl(id)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-4d %-12s %8d %8d %s\n",
			id, info.Name, info.FreeBytes, info.FreeMax, list(info.Waiting))
	}
}

// ListTimeHandlers writes cyclic- and alarm-handler listings.
func (d *DS) ListTimeHandlers(w io.Writer) {
	fmt.Fprintf(w, "== CYCLIC ==\n")
	fmt.Fprintf(w, "%-4s %-12s %-7s %-12s %6s %8s\n", "ID", "NAME", "ACTIVE", "INTERVAL", "FIRES", "OVERRUNS")
	for _, id := range d.k.CycList() {
		info, er := d.k.RefCyc(id)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-4d %-12s %-7v %-12s %6d %8d\n",
			id, info.Name, info.Active, info.Interval, info.Fires, info.Overruns)
	}
	fmt.Fprintf(w, "== ALARM ==\n")
	fmt.Fprintf(w, "%-4s %-12s %-7s %6s\n", "ID", "NAME", "ACTIVE", "FIRES")
	for _, id := range d.k.AlmList() {
		info, er := d.k.RefAlm(id)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-4d %-12s %-7v %6d\n", id, info.Name, info.Active, info.Fires)
	}
}

// ListPorts writes the rendezvous-port listing.
func (d *DS) ListPorts(w io.Writer) {
	fmt.Fprintf(w, "== PORT ==\n")
	fmt.Fprintf(w, "%-4s %-12s %6s %-16s %s\n", "ID", "NAME", "RDV", "CALL-WAIT", "ACP-WAIT")
	for _, id := range d.k.PorList() {
		info, er := d.k.RefPor(id)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-4d %-12s %6d %-16s %s\n",
			id, info.Name, info.OpenRdv, list(info.CallWaiting), list(info.AcceptWait))
	}
}

// ListInterrupts writes the interrupt-handler listing.
func (d *DS) ListInterrupts(w io.Writer) {
	fmt.Fprintf(w, "== INTERRUPT ==\n")
	fmt.Fprintf(w, "%-6s %-12s %6s %6s\n", "INTNO", "NAME", "FIRES", "MISSED")
	for _, n := range d.k.IntList() {
		info, er := d.k.RefInt(n)
		if er != tkernel.EOK {
			continue
		}
		fmt.Fprintf(w, "%-6d %-12s %6d %6d\n", n, info.Name, info.Fires, info.Missed)
	}
}

// Listing writes the full T-Kernel/DS output listing (Figure 8): system
// state header followed by all object-class listings.
func (d *DS) Listing(w io.Writer) {
	sys := d.k.RefSys()
	ver := d.k.RefVer()
	fmt.Fprintf(w, "T-Kernel/DS LISTING — %s (%s)\n", ver.Product, ver.SpecVer)
	fmt.Fprintf(w, "systime=%v tick=%v ticks=%d run=%s handler=%v nest=%d dispatch-dis=%v\n",
		sys.SystemTime, sys.Tick, sys.Ticks, dash(sys.RunTask),
		sys.InHandler, sys.IntNesting, sys.DispatchDis)
	fmt.Fprintln(w, strings.Repeat("-", 78))
	d.ListTasks(w)
	d.ListSemaphores(w)
	d.ListFlags(w)
	d.ListMutexes(w)
	d.ListMailboxes(w)
	d.ListMessageBuffers(w)
	d.ListMemoryPools(w)
	d.ListPorts(w)
	d.ListTimeHandlers(w)
	d.ListInterrupts(w)
}

// EnergyDistribution writes the per-T-THREAD consumed time/energy table of
// Figure 7 through the SIM_API statistics.
func (d *DS) EnergyDistribution(w io.Writer) {
	d.k.API().EnergyReport(w)
}

// TraceEvents samples the SIM_API registry into a compact event summary:
// one line per T-THREAD with its current state, token marking and counters.
func (d *DS) TraceEvents(w io.Writer) {
	fmt.Fprintf(w, "%-16s %-8s %-18s %-10s %8s %12s %12s\n",
		"T-THREAD", "KIND", "STATE", "TOKEN", "CYCLES", "CET", "CEE")
	for _, tt := range d.k.API().Threads() {
		fmt.Fprintf(w, "%-16s %-8s %-18s %-10s %8d %12s %12s\n",
			tt.Name(), tt.Kind(), tt.State(), tt.TokenPlace(),
			tt.Cycles(), tt.CET(), fmt.Sprint(tt.CEE()))
	}
}

// Snapshot returns the full listing as a string at the given label time.
func (d *DS) Snapshot(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- snapshot: %s ---\n", label)
	d.Listing(&b)
	return b.String()
}

func dash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func list(refs []tkernel.WaitRef) string {
	if len(refs) == 0 {
		return "-"
	}
	names := make([]string, len(refs))
	for i, r := range refs {
		names[i] = r.Name
	}
	return strings.Join(names, ",")
}

// AttachEventLog attaches a kernel-dynamics event recorder (dispatches,
// preemptions, blocks, releases, interrupt entries/exits...) capped at
// limit events (0 = unlimited), and returns it. Rendering goes through
// KernelEvents. A recorder attached earlier is detached.
func (d *DS) AttachEventLog(limit int) *EventLog {
	if d.elog != nil {
		d.elog.Close()
	}
	d.elog = NewEventLog(d.k.Bus(), limit)
	return d.elog
}

// KernelEvents writes the recorded kernel-dynamics event trace.
func (d *DS) KernelEvents(w io.Writer) {
	if d.elog == nil {
		fmt.Fprintln(w, "(no event log attached)")
		return
	}
	d.elog.Render(w)
}

// Watch registers a periodic DS dump into sink every interval of simulated
// time (the paper's run-time tracing of kernel internal states). It returns
// a stop function.
func (d *DS) Watch(interval sysc.Time, sink io.Writer) (stop func()) {
	stopped := false
	tk := sysc.NewTicker(d.k.Sim(), "tkds.watch", interval)
	d.k.Sim().SpawnMethod("tkds.dump", func() {
		if stopped {
			return
		}
		fmt.Fprintln(sink, d.Snapshot(fmt.Sprint(d.k.Sim().Now())))
	}, tk.Event())
	return func() { stopped = true }
}
