package tkernel

import "repro/internal/sysc"

// SysInfo is the tk_ref_sys snapshot.
type SysInfo struct {
	SystemTime  sysc.Time
	Tick        sysc.Time
	Ticks       uint64
	RunTask     string // name of the RUNNING task ("" if idle)
	InHandler   bool
	IntNesting  int
	DispatchDis bool
	Tasks       int
	Semaphores  int
	EventFlags  int
	Mutexes     int
	Mailboxes   int
	MsgBuffers  int
	FixedPools  int
	VarPools    int
	CyclicHdrs  int
	AlarmHdrs   int
	Ports       int
}

// VerInfo is the tk_ref_ver snapshot: identification of the simulated
// kernel specification.
type VerInfo struct {
	Maker   string
	Product string
	SpecVer string
	KernVer string
}

// RefVer returns kernel version information (tk_ref_ver).
func (k *Kernel) RefVer() VerInfo {
	return VerInfo{
		Maker:   "RTK-Spec (simulation model)",
		Product: "RTK-Spec TRON / T-Kernel-OS model",
		SpecVer: "µITRON 4.0 / T-Kernel 1.0",
		KernVer: "1.0.0",
	}
}

// RefSys returns a kernel state snapshot (tk_ref_sys).
func (k *Kernel) RefSys() SysInfo {
	info := SysInfo{
		SystemTime:  k.SystemTime(),
		Tick:        k.cfg.Tick,
		Ticks:       k.ticks,
		InHandler:   k.api.InHandler(),
		IntNesting:  k.api.InterruptDepth(),
		DispatchDis: k.disDsp,
		Tasks:       k.tasks.len(),
		Semaphores:  k.sems.len(),
		EventFlags:  k.flags.len(),
		Mutexes:     k.mtxs.len(),
		Mailboxes:   k.mbxs.len(),
		MsgBuffers:  k.mbfs.len(),
		FixedPools:  k.mpfs.len(),
		VarPools:    k.mpls.len(),
		CyclicHdrs:  k.cycs.len(),
		AlarmHdrs:   k.alms.len(),
		Ports:       k.pors.len(),
	}
	if cur := k.api.Current(); cur != nil {
		info.RunTask = cur.Name()
	}
	return info
}

// DisDsp disables task dispatching (tk_dis_dsp). The running task keeps the
// processor until EnaDsp; interrupts still preempt.
func (k *Kernel) DisDsp() ER {
	if k.api.InHandler() {
		return ECTX
	}
	if tt := k.api.ExecutingThread(); tt != nil {
		tt.AwaitCPU()
	}
	if k.disDsp {
		return EOK
	}
	k.disDsp = true
	k.api.LockDispatch()
	return EOK
}

// EnaDsp re-enables task dispatching (tk_ena_dsp).
func (k *Kernel) EnaDsp() ER {
	if k.api.InHandler() {
		return ECTX
	}
	if !k.disDsp {
		return EOK
	}
	k.disDsp = false
	k.api.UnlockDispatch()
	return EOK
}

// TaskList returns the IDs of all existing tasks in ascending order.
func (k *Kernel) TaskList() []ID { return k.tasks.ids() }

// Object-class ID listings for the debugger support layer.
func (k *Kernel) SemList() []ID { return k.sems.ids() }
func (k *Kernel) FlgList() []ID { return k.flags.ids() }
func (k *Kernel) MtxList() []ID { return k.mtxs.ids() }
func (k *Kernel) MbxList() []ID { return k.mbxs.ids() }
func (k *Kernel) MbfList() []ID { return k.mbfs.ids() }
func (k *Kernel) MpfList() []ID { return k.mpfs.ids() }
func (k *Kernel) MplList() []ID { return k.mpls.ids() }
func (k *Kernel) CycList() []ID { return k.cycs.ids() }
func (k *Kernel) AlmList() []ID { return k.alms.ids() }
func (k *Kernel) PorList() []ID { return k.pors.ids() }

// IntList returns the defined interrupt numbers in ascending order.
func (k *Kernel) IntList() []int { return sortedKeys(k.isrs) }
