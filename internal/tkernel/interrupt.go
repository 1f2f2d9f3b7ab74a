package tkernel

import (
	"repro/internal/core"
)

// ISR is a registered external-interrupt service routine (tk_def_int): a
// handler-level T-THREAD activated by the Interrupt Dispatch module when
// its interrupt number is raised by the hardware (BFM interrupt
// controller).
type ISR struct {
	intno   int
	name    string
	tt      *core.TThread
	fires   int
	missed  int // raises rejected because the ISR was still running
	dropped int // raises suppressed by the interrupt filter (fault injection)
}

// ISRInfo is a snapshot of an interrupt handler's statistics.
type ISRInfo struct {
	IntNo   int
	Name    string
	Fires   int
	Missed  int
	Dropped int
}

// IntDecision is the verdict of an interrupt filter for one raise.
type IntDecision int

// Interrupt-filter verdicts.
const (
	// IntPass delivers the interrupt normally.
	IntPass IntDecision = iota
	// IntDrop suppresses the raise silently, as faulty hardware would: the
	// ISR never fires and the raiser observes E_OK.
	IntDrop
)

// DefInt defines the interrupt handler for interrupt number intno
// (tk_def_int). Redefinition replaces the previous handler; a nil fn
// removes the definition.
func (k *Kernel) DefInt(intno int, name string, fn HandlerFunc) ER {
	if fn == nil {
		return k.defInt(intno, name, nil)
	}
	return k.defInt(intno, name, k.closureHandler(name, core.KindISR, fn))
}

// defInt is tk_def_int for DefInt and DefIntProg: thread creates the
// handler's T-THREAD; nil removes the definition.
func (k *Kernel) defInt(intno int, name string, thread func() *core.TThread) ER {
	return k.call("tk_def_int", func(k *Kernel) (ER, *armedWait) {
		if intno < 0 {
			return EPAR, nil
		}
		if thread == nil {
			delete(k.isrs, intno)
			return EOK, nil
		}
		k.isrs[intno] = &ISR{intno: intno, name: name, tt: thread()}
		return EOK, nil
	})
}

// RaiseInterrupt is the Interrupt Dispatch entry: it identifies and
// responds to an external interrupt by notifying its dedicated service
// routine. Raising an undefined interrupt returns E_NOEXS; raising one
// whose handler is still running (and which the hardware would therefore
// lose) returns E_QOVR and counts as missed. Nested interrupts arise
// naturally when one ISR is raised while another runs.
func (k *Kernel) RaiseInterrupt(intno int) ER {
	isr, ok := k.isrs[intno]
	if !ok {
		return ENOEXS
	}
	if k.intFilter != nil && k.intFilter(intno) == IntDrop {
		isr.dropped++
		return EOK
	}
	if err := k.api.EnterInterrupt(isr.tt); err != nil {
		isr.missed++
		return EQOVR
	}
	isr.fires++
	return EOK
}

// RefInt returns interrupt-handler statistics.
func (k *Kernel) RefInt(intno int) (ISRInfo, ER) {
	isr, ok := k.isrs[intno]
	if !ok {
		return ISRInfo{}, ENOEXS
	}
	return ISRInfo{IntNo: isr.intno, Name: isr.name, Fires: isr.fires,
		Missed: isr.missed, Dropped: isr.dropped}, EOK
}
