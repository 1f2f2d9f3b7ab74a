package tkernel

// This file is the kernel's invariant-introspection surface: deterministic
// (ID-ordered) structural snapshots of kernel objects, consumed by the chaos
// oracle layer (internal/chaos) to check wait-queue membership, priority
// inheritance, and resource accounting live during a simulation. The
// snapshot path and the tk_ref_* services return the same unified views
// (TaskInfo, SemInfo, MutexInfo, ...): object identity, queue-order waiter
// priorities and bookkeeping counters are part of every view, so there is a
// single source of truth for kernel-object state.

// WaitRef identifies one waiting task in a kernel object's queue, in queue
// order: its ID, name and current (possibly boosted) priority.
type WaitRef struct {
	ID       ID
	Name     string
	Priority int
}

// SnapshotTasks returns all tasks (including the INIT task, ID 0) in ID
// order: a walk of the task table.
func (k *Kernel) SnapshotTasks() []TaskInfo { return views(&k.tasks, k.taskInfo) }

// SnapshotMutexes returns all mutexes in ID order.
func (k *Kernel) SnapshotMutexes() []MutexInfo { return views(&k.mtxs, k.mtxInfo) }

// SnapshotSemaphores returns all semaphores in ID order.
func (k *Kernel) SnapshotSemaphores() []SemInfo { return views(&k.sems, k.semInfo) }

// SnapshotFixedPools returns all fixed-size pools in ID order.
func (k *Kernel) SnapshotFixedPools() []FixedPoolInfo { return views(&k.mpfs, k.mpfInfo) }

// SnapshotVariablePools returns all variable-size pools in ID order.
func (k *Kernel) SnapshotVariablePools() []VariablePoolInfo { return views(&k.mpls, k.mplInfo) }

// SnapshotMessageBuffers returns all message buffers in ID order.
func (k *Kernel) SnapshotMessageBuffers() []MessageBufferInfo { return views(&k.mbfs, k.mbfInfo) }

// InjectPoolLeak corrupts a fixed pool's bookkeeping for oracle self-testing:
// it removes one block from the free list without recording it as
// outstanding, modeling a kernel accounting bug (a leaked block). The pool
// accounting oracle must flag the pool afterwards. Chaos campaigns use it to
// prove the oracle layer catches real defects; it has no legitimate use in a
// model of a correct kernel.
func (k *Kernel) InjectPoolLeak(id ID) ER {
	p := k.mpfs.get(id)
	if p == nil {
		return ENOEXS
	}
	if len(p.free) == 0 {
		return EOBJ
	}
	p.free = p.free[:len(p.free)-1]
	return EOK
}
