package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tkernel"
)

// Binary snapshot format, version 3. Everything is little-endian with
// fixed-width integers; strings and byte blobs are u32 length + bytes.
// All pointers are flattened to registry indices, all maps are emitted
// in sorted-key order (the Save layers already do this), so encoding is
// a pure function of the captured state: two captures of byte-identical
// simulations encode byte-identically, which is what makes replay-based
// Verify a real integrity check.
//
// Layout: header (magic, version, capture time, producer Spec JSON), then the sysc section, the SIM_API section, the kernel section
// and the workload section. Observer state is not encoded — a restore
// from bytes replays construction, which regenerates observer content
// deterministically. Closures (wait cancellations, timer callbacks) are
// likewise elided: replay re-creates them, and their guard counters ARE
// encoded.

var magic = [8]byte{'R', 'T', 'K', 'S', 'N', 'A', 'P', '1'}

// Version is the binary snapshot format version. Version 1 headers carried
// the T-THREAD engine name; version 2 dropped it with the engine choice;
// version 3 drops the sysc thread section and the per-event thread wait
// lists, since threads are coroutines; version 4 has one kernel timer
// event where the kernel's ticker had two, so the event registry shrank,
// and drops the kernel tick count, which the clock now gives.
const Version uint32 = 4

// relNil marks a nil release code on the wire (release codes are
// otherwise T-Kernel ER values, all small negatives).
const relNil = math.MinInt32

// Meta is the snapshot header: what produced it and where it stops.
type Meta struct {
	At   int64  // capture time, sysc picoseconds
	Spec []byte // canonical producer Spec JSON, for replay
}

type enc struct{ b bytes.Buffer }

func (e *enc) u8(v uint8) { e.b.WriteByte(v) }
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) u32(v uint32) {
	var x [4]byte
	binary.LittleEndian.PutUint32(x[:], v)
	e.b.Write(x[:])
}
func (e *enc) u64(v uint64) {
	var x [8]byte
	binary.LittleEndian.PutUint64(x[:], v)
	e.b.Write(x[:])
}
func (e *enc) i32(v int32)   { e.u32(uint32(v)) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) blob(v []byte) { e.u32(uint32(len(v))); e.b.Write(v) }
func (e *enc) str(v string)  { e.u32(uint32(len(v))); e.b.WriteString(v) }
func (e *enc) i32s(v []int32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i32(x)
	}
}
func (e *enc) ints(v []int) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i32(int32(x))
	}
}

// relCode flattens a task release code: nil or a T-Kernel ER singleton.
func relCode(err error) (int32, error) {
	if err == nil {
		return relNil, nil
	}
	if er, ok := err.(tkernel.ER); ok {
		return int32(er), nil
	}
	return 0, fmt.Errorf("snapshot: release code %v is not a T-Kernel ER", err)
}

// Encode flattens an in-memory checkpoint into the versioned binary
// form. sys must be the system st was captured from (it resolves
// delivery pointers to scratch indices).
func Encode(sys System, st *State, meta Meta) ([]byte, error) {
	e := &enc{}
	e.b.Write(magic[:])
	e.u32(Version)
	e.i64(int64(st.At))
	e.blob(meta.Spec)

	// sysc section.
	s := st.sim
	e.i64(int64(s.Now))
	e.u64(s.DeltaCount)
	e.u64(s.HeapSeq)
	e.u32(uint32(len(s.Heap)))
	for _, h := range s.Heap {
		e.i64(int64(h.When))
		e.u64(h.Seq)
		e.i32(h.Ev)
	}
	e.u32(uint32(len(s.Events)))
	for _, ev := range s.Events {
		e.i32s(ev.CWaiters)
	}
	e.u32(uint32(len(s.Coros)))
	for _, c := range s.Coros {
		e.i32s(c.Waiting)
		e.i32(c.TrigEv)
		e.boolean(c.Armed)
		e.boolean(c.Done)
	}

	// SIM_API section.
	a := st.api
	e.u32(uint32(len(a.Threads)))
	for i := range a.Threads {
		t := &a.Threads[i]
		e.i32(int32(t.ID))
		e.i32(int32(t.Priority))
		e.i32(int32(t.BasePriority))
		e.u8(uint8(t.State))
		e.i32(int32(t.SuspCount))
		e.boolean(t.Terminated)
		e.str(t.WaitObj)
		rel, err := relCode(t.RelCode)
		if err != nil {
			return nil, err
		}
		e.i32(rel)
		e.i32(int32(t.ActCount))
		rel, err = relCode(t.PendingRel)
		if err != nil {
			return nil, err
		}
		e.i32(rel)
		e.boolean(t.HasPendingRel)
		e.boolean(t.CrInBody)
		e.u8(t.Consume.Phase)
		e.i64(int64(t.Consume.Cost.Time))
		e.f64(float64(t.Consume.Cost.Energy))
		e.i32(int32(t.Consume.Ctx))
		e.str(t.Consume.Note)
		e.i64(int64(t.Consume.Total))
		e.i64(int64(t.Consume.Remaining))
		e.i64(int64(t.Consume.Start))
		e.u8(t.Block)
		e.ints(t.Marking)
		e.i32(int32(t.Seq.N))
		e.ints(t.Seq.Counts)
		e.i64(int64(t.Seq.Total.Time))
		e.f64(float64(t.Seq.Total.Energy))
		e.i32(int32(t.Acc.Cycles))
		e.i64(int64(t.Acc.CET))
		e.f64(float64(t.Acc.CEE))
		e.ints(t.LastCV)
	}
	e.ints(a.Ready)
	e.i32(int32(a.Current))
	e.ints(a.IStack)
	e.i32(int32(a.DispatchLocked))
	e.boolean(a.PendingDispatch)
	e.i64(int64(a.Busy))
	e.u64(a.CtxSwitches)
	e.u64(a.Preemptions)
	e.u64(a.Interrupts)
	e.i32(int32(a.MaxIStack))

	// Kernel section.
	k := st.kern
	e.u32(uint32(len(k.Tasks)))
	for i := range k.Tasks {
		t := &k.Tasks[i]
		e.i32(int32(t.ID))
		e.i32(int32(t.WupCount))
		e.i32(int32(t.WaitSeq))
		e.boolean(t.WaitOn != nil)
		e.boolean(t.AwTask)
		e.str(t.AwObj)
		e.u32(uint32(len(t.Owned)))
		for _, id := range t.Owned {
			e.i32(int32(id))
		}
		e.boolean(t.HasMachine)
		e.i32(int32(t.PC))
		e.u8(t.SP)
		e.boolean(t.AwArmed)
	}
	e.u32(uint32(len(k.Sems)))
	for i := range k.Sems {
		sm := &k.Sems[i]
		e.i32(int32(sm.ID))
		e.i32(int32(sm.Count))
		e.u32(uint32(len(sm.Wait)))
		for j := range sm.Wait {
			e.i32(int32(sm.Wait[j]))
			e.i32(int32(sm.Need[j]))
		}
	}
	e.u32(uint32(len(k.Flags)))
	for i := range k.Flags {
		f := &k.Flags[i]
		e.i32(int32(f.ID))
		e.u32(f.Pattern)
		e.u32(uint32(len(f.Wait)))
		for j := range f.Wait {
			e.i32(int32(f.Wait[j]))
			e.u32(f.Waiptn[j])
			e.u32(uint32(f.Mode[j]))
			idx := int32(-1)
			if p := f.Relptn[j]; p != nil {
				n := sys.Inst.ScratchPtnIndex(p)
				if n < 0 {
					return nil, fmt.Errorf("snapshot: flag %d waiter %d delivery pointer is not a task scratch slot", f.ID, j)
				}
				idx = int32(n)
			}
			e.i32(idx)
		}
	}
	e.u32(uint32(len(k.Mtxs)))
	for i := range k.Mtxs {
		m := &k.Mtxs[i]
		e.i32(int32(m.ID))
		e.boolean(m.HasOwner)
		e.i32(int32(m.Owner))
		e.u32(uint32(len(m.Wait)))
		for _, id := range m.Wait {
			e.i32(int32(id))
		}
	}
	e.u32(uint32(len(k.Mbfs)))
	for i := range k.Mbfs {
		b := &k.Mbfs[i]
		e.i32(int32(b.ID))
		e.i32(int32(b.Used))
		e.u32(uint32(len(b.Msgs)))
		for _, msg := range b.Msgs {
			e.blob(msg)
		}
		e.u32(uint32(len(b.SendQ)))
		for j := range b.SendQ {
			e.i32(int32(b.SendQ[j]))
			e.blob(b.SendMsg[j])
		}
		e.u32(uint32(len(b.RecvQ)))
		for j := range b.RecvQ {
			e.i32(int32(b.RecvQ[j]))
			idx := int32(-1)
			if p := b.RecvDst[j]; p != nil {
				n := sys.Inst.ScratchRcvIndex(p)
				if n < 0 {
					return nil, fmt.Errorf("snapshot: mbf %d receiver %d delivery pointer is not a task scratch slot", b.ID, j)
				}
				idx = int32(n)
			}
			e.i32(idx)
		}
	}
	e.u32(uint32(len(k.Cycs)))
	for i := range k.Cycs {
		c := &k.Cycs[i]
		e.i32(int32(c.ID))
		e.boolean(c.Active)
		e.i32(int32(c.Fires))
		e.i32(int32(c.Overruns))
		e.i32(int32(c.Gen))
		e.boolean(c.HasMachine)
		e.i32(int32(c.PC))
		e.u8(c.SP)
	}
	e.u32(uint32(len(k.Alms)))
	for i := range k.Alms {
		al := &k.Alms[i]
		e.i32(int32(al.ID))
		e.boolean(al.Active)
		e.i32(int32(al.Fires))
		e.i32(int32(al.Gen))
		e.boolean(al.HasMachine)
		e.i32(int32(al.PC))
		e.u8(al.SP)
	}
	e.u32(uint32(len(k.Isrs)))
	for i := range k.Isrs {
		is := &k.Isrs[i]
		e.i32(int32(is.IntNo))
		e.i32(int32(is.Fires))
		e.i32(int32(is.Missed))
		e.i32(int32(is.Dropped))
		e.boolean(is.HasMachine)
		e.i32(int32(is.PC))
		e.u8(is.SP)
	}
	timer := k.TimerEntries()
	e.u32(uint32(len(timer)))
	for _, it := range timer {
		e.i64(int64(it.When))
		e.u64(it.Seq)
	}
	e.u64(k.TimerSeq)
	e.i64(int64(k.SysBase))
	e.boolean(k.DisDsp)

	// Workload section.
	in := st.inst
	e.u64(in.Activations)
	e.u32(uint32(len(in.Scratch)))
	for i := range in.Scratch {
		sc := &in.Scratch[i]
		e.i32(int32(sc.Er))
		e.u32(sc.Ptn)
		e.blob(sc.Rcv)
	}
	e.u32(uint32(len(in.Devices)))
	for i := range in.Devices {
		d := &in.Devices[i]
		e.u64(d.RNG)
		e.boolean(d.Started)
	}
	return e.b.Bytes(), nil
}

// DecodeMeta parses and validates a snapshot header. It distinguishes
// structural damage (ErrCorrupt) from honest version/format drift
// (ErrIncompatible).
func DecodeMeta(data []byte) (Meta, error) {
	if len(data) < len(magic)+4 {
		return Meta{}, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(data))
	}
	if !bytes.Equal(data[:len(magic)], magic[:]) {
		return Meta{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	off := len(magic)
	ver := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if ver != Version {
		return Meta{}, fmt.Errorf("%w: format version %d (this build reads %d)", ErrIncompatible, ver, Version)
	}
	if off+8 > len(data) {
		return Meta{}, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	at := int64(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	spec, _, err := readBlob(data, off)
	if err != nil {
		return Meta{}, err
	}
	return Meta{At: at, Spec: spec}, nil
}

func readBlob(data []byte, off int) ([]byte, int, error) {
	if off+4 > len(data) {
		return nil, 0, fmt.Errorf("%w: truncated length", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if n < 0 || off+n > len(data) {
		return nil, 0, fmt.Errorf("%w: blob overruns snapshot (%d bytes at %d)", ErrCorrupt, n, off)
	}
	return data[off : off+n : off+n], off + n, nil
}

// Verify checks that sys — expected to have been replayed from the
// snapshot's embedded Spec to its capture time — reproduces the snapshot
// bit-for-bit. A mismatch means the bytes do not describe a reachable
// state of that Spec: ErrCorrupt.
func Verify(sys System, data []byte) error {
	meta, err := DecodeMeta(data)
	if err != nil {
		return err
	}
	st, err := Capture(sys)
	if err != nil {
		return err
	}
	if int64(st.At) != meta.At {
		return fmt.Errorf("%w: replay stopped at %d ps, snapshot captured at %d ps", ErrCorrupt, st.At, meta.At)
	}
	got, err := Encode(sys, st, meta)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, data) {
		return fmt.Errorf("%w: replayed state does not reproduce the snapshot bytes", ErrCorrupt)
	}
	return nil
}
