package tkernel_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sysc"
	"repro/internal/tkernel"
)

// absentCase is one object class: create makes an object and returns its
// ID, del deletes one, and ref and mutate are the class's tk_ref_* service
// and one service that changes the object.
type absentCase struct {
	class  string
	create func(k *tkernel.Kernel) tkernel.ID
	del    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER
	ref    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER
	mutate func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER
}

func nop(*tkernel.HandlerCtx) {}

var absentCases = []absentCase{
	{class: "task",
		create: func(k *tkernel.Kernel) tkernel.ID { id, _ := k.CreTsk("t", 5, func(*tkernel.Task) {}); return id },
		del:    (*tkernel.Kernel).DelTsk,
		ref:    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.RefTsk(id); return er },
		mutate: (*tkernel.Kernel).WupTsk},
	{class: "sem",
		create: func(k *tkernel.Kernel) tkernel.ID { id, _ := k.CreSem("s", tkernel.TaTFIFO, 0, 4); return id },
		del:    (*tkernel.Kernel).DelSem,
		ref:    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.RefSem(id); return er },
		mutate: func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { return k.SigSem(id, 1) }},
	{class: "flg",
		create: func(k *tkernel.Kernel) tkernel.ID { id, _ := k.CreFlg("f", tkernel.TaWMUL, 0); return id },
		del:    (*tkernel.Kernel).DelFlg,
		ref:    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.RefFlg(id); return er },
		mutate: func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { return k.SetFlg(id, 1) }},
	{class: "mtx",
		create: func(k *tkernel.Kernel) tkernel.ID { id, _ := k.CreMtx("m", tkernel.TaTFIFO, 0); return id },
		del:    (*tkernel.Kernel).DelMtx,
		ref:    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.RefMtx(id); return er },
		mutate: func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { return k.LocMtx(id, tkernel.TmoPol) }},
	{class: "mbx",
		create: func(k *tkernel.Kernel) tkernel.ID { id, _ := k.CreMbx("x", tkernel.TaMFIFO); return id },
		del:    (*tkernel.Kernel).DelMbx,
		ref:    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.RefMbx(id); return er },
		mutate: func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { return k.SndMbx(id, &tkernel.Message{}) }},
	{class: "mbf",
		create: func(k *tkernel.Kernel) tkernel.ID { id, _ := k.CreMbf("b", tkernel.TaTFIFO, 16, 4); return id },
		del:    (*tkernel.Kernel).DelMbf,
		ref:    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.RefMbf(id); return er },
		mutate: func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { return k.SndMbf(id, []byte{1}, tkernel.TmoPol) }},
	{class: "mpf",
		create: func(k *tkernel.Kernel) tkernel.ID { id, _ := k.CreMpf("p", tkernel.TaTFIFO, 2, 8); return id },
		del:    (*tkernel.Kernel).DelMpf,
		ref:    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.RefMpf(id); return er },
		mutate: func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.GetMpf(id, tkernel.TmoPol); return er }},
	{class: "mpl",
		create: func(k *tkernel.Kernel) tkernel.ID { id, _ := k.CreMpl("l", tkernel.TaTFIFO, 64); return id },
		del:    (*tkernel.Kernel).DelMpl,
		ref:    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.RefMpl(id); return er },
		mutate: func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.GetMpl(id, 8, tkernel.TmoPol); return er }},
	{class: "cyc",
		create: func(k *tkernel.Kernel) tkernel.ID { id, _ := k.CreCyc("c", sysc.Ms, 0, nop); return id },
		del:    (*tkernel.Kernel).DelCyc,
		ref:    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.RefCyc(id); return er },
		mutate: (*tkernel.Kernel).StaCyc},
	{class: "alm",
		create: func(k *tkernel.Kernel) tkernel.ID { id, _ := k.CreAlm("a", nop); return id },
		del:    (*tkernel.Kernel).DelAlm,
		ref:    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.RefAlm(id); return er },
		mutate: func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { return k.StaAlm(id, sysc.Ms) }},
	{class: "por",
		create: func(k *tkernel.Kernel) tkernel.ID { id, _ := k.CrePor("r", tkernel.TaTFIFO, 4, 4); return id },
		del:    (*tkernel.Kernel).DelPor,
		ref:    func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER { _, er := k.RefPor(id); return er },
		mutate: func(k *tkernel.Kernel, id tkernel.ID) tkernel.ER {
			_, er := k.CalPor(id, 1, []byte{1}, tkernel.TmoPol)
			return er
		}},
}

// TestAbsentIDsAreNoExs pins the "no such object" answer of every object
// table: a negative ID, the ID one past the last one handed out, a deleted
// ID and, for every class but tasks (where 0 names the caller), ID 0 all
// give E_NOEXS from the class's ref service and from a mutating service.
// Interrupt handlers stay keyed by number, so any non-negative number the
// caller picks works, however large.
func TestAbsentIDsAreNoExs(t *testing.T) {
	const bigIntNo = 1 << 30
	type result struct {
		class, service string
		id             tkernel.ID
		er             tkernel.ER
	}
	var got []result
	var defEr, raiseEr tkernel.ER
	var ints []int
	k, sim := boot(t, func(k *tkernel.Kernel) {
		for _, c := range absentCases {
			deleted, last := c.create(k), c.create(k)
			if deleted <= 0 || last != deleted+1 {
				t.Errorf("%s: created IDs %d, %d", c.class, deleted, last)
			}
			if er := c.del(k, deleted); er != tkernel.EOK {
				t.Errorf("%s: delete %d: %v", c.class, deleted, er)
			}
			absent := []tkernel.ID{-1, last + 1, deleted}
			if c.class != "task" {
				absent = append(absent, 0)
			}
			for _, id := range absent {
				got = append(got, result{c.class, "ref", id, c.ref(k, id)},
					result{c.class, "mutate", id, c.mutate(k, id)})
			}
		}
		defEr = k.DefInt(bigIntNo, "far", func(ctx *tkernel.HandlerCtx) {
			ctx.Work(core.Cost{Time: sysc.Us}, "far")
		})
		raiseEr = k.RaiseInterrupt(bigIntNo)
		ints = k.IntList()
	})
	run(t, sim, 2*sysc.Ms)
	if len(got) != 3*2*len(absentCases)+2*(len(absentCases)-1) {
		t.Fatalf("%d lookups ran", len(got))
	}
	for _, r := range got {
		if r.er != tkernel.ENOEXS {
			t.Errorf("%s %s(%d) = %v, want E_NOEXS", r.class, r.service, r.id, r.er)
		}
	}
	if defEr != tkernel.EOK || raiseEr != tkernel.EOK {
		t.Errorf("DefInt(1<<30) = %v, RaiseInterrupt(1<<30) = %v; want E_OK, E_OK", defEr, raiseEr)
	}
	if !slices.Equal(ints, []int{bigIntNo}) {
		t.Errorf("IntList() = %v, want [%d]", ints, bigIntNo)
	}
	if info, er := k.RefInt(bigIntNo); er != tkernel.EOK || info.Fires != 1 {
		t.Errorf("RefInt(1<<30) = %+v, %v; want one fire", info, er)
	}
}
