package tkernel_test

import (
	"testing"

	"repro/internal/event"
	"repro/internal/run/opts"
	"repro/internal/sysc"
	"repro/internal/tkernel"
)

// svcPairChecker observes svc-enter/svc-exit bus events and asserts LIFO
// pairing: every exit must match the innermost open enter by name.
type svcPairChecker struct {
	t     *testing.T
	stack []string
	exits []svcExit
}

type svcExit struct {
	name string
	er   tkernel.ER
}

func (c *svcPairChecker) handle(e event.Event) {
	switch e.Kind {
	case event.KindSvcEnter:
		c.stack = append(c.stack, e.Obj)
	case event.KindSvcExit:
		if len(c.stack) == 0 {
			c.t.Errorf("svc-exit %q with no open svc-enter", e.Obj)
			return
		}
		top := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		if top != e.Obj {
			c.t.Errorf("svc-exit %q paired against svc-enter %q", e.Obj, top)
		}
		c.exits = append(c.exits, svcExit{name: e.Obj, er: tkernel.ER(e.Code)})
	}
}

// last returns the most recent exit record.
func (c *svcPairChecker) last() svcExit {
	if len(c.exits) == 0 {
		return svcExit{}
	}
	return c.exits[len(c.exits)-1]
}

// noSuch is an ID no kernel object ever receives, driving every looked-up
// service down its early-return E_NOEXS path.
const noSuch = tkernel.ID(9999)

// TestServiceCallEnterExitPairing drives every kernel service call once —
// most through their early-return error paths via a nonexistent object ID,
// the rest through valid paths — and asserts, from bus events alone, that
// (a) every svc-enter is closed by a matching svc-exit and (b) the ER
// published on exit equals the ER the call returned, including for
// early-return errors.
func TestServiceCallEnterExitPairing(t *testing.T) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	bus := event.NewBus()
	k := tkernel.New(sim, tkernel.Config{CommonOptions: opts.CommonOptions{Bus: bus}, Costs: tkernel.ZeroCosts()})
	chk := &svcPairChecker{t: t}
	bus.Subscribe(chk.handle, event.KindSvcEnter, event.KindSvcExit)

	type call struct {
		svc  string
		do   func() tkernel.ER
		want tkernel.ER // EOK entries additionally pin the expected code
	}
	noop := func(*tkernel.Task) {}
	hNoop := func(*tkernel.HandlerCtx) {}
	k.Boot(func(k *tkernel.Kernel) {
		var worker, sem, flg, mbx, mbf, mpf, mpl, mtx, por, alm, cyc tkernel.ID
		calls := []call{
			// Object creation: valid paths.
			{"tk_cre_tsk", func() tkernel.ER { var er tkernel.ER; worker, er = k.CreTsk("w", 10, noop); return er }, tkernel.EOK},
			{"tk_cre_sem", func() tkernel.ER { var er tkernel.ER; sem, er = k.CreSem("s", tkernel.TaTFIFO, 1, 2); return er }, tkernel.EOK},
			{"tk_cre_flg", func() tkernel.ER { var er tkernel.ER; flg, er = k.CreFlg("f", tkernel.TaTFIFO, 0); return er }, tkernel.EOK},
			{"tk_cre_mbx", func() tkernel.ER { var er tkernel.ER; mbx, er = k.CreMbx("x", tkernel.TaTFIFO); return er }, tkernel.EOK},
			{"tk_cre_mbf", func() tkernel.ER { var er tkernel.ER; mbf, er = k.CreMbf("b", tkernel.TaTFIFO, 64, 16); return er }, tkernel.EOK},
			{"tk_cre_mpf", func() tkernel.ER { var er tkernel.ER; mpf, er = k.CreMpf("pf", tkernel.TaTFIFO, 2, 32); return er }, tkernel.EOK},
			{"tk_cre_mpl", func() tkernel.ER { var er tkernel.ER; mpl, er = k.CreMpl("pl", tkernel.TaTFIFO, 256); return er }, tkernel.EOK},
			{"tk_cre_mtx", func() tkernel.ER { var er tkernel.ER; mtx, er = k.CreMtx("m", tkernel.TaTFIFO, 0); return er }, tkernel.EOK},
			{"tk_cre_por", func() tkernel.ER { var er tkernel.ER; por, er = k.CrePor("p", tkernel.TaTFIFO, 16, 16); return er }, tkernel.EOK},
			{"tk_cre_alm", func() tkernel.ER { var er tkernel.ER; alm, er = k.CreAlm("a", hNoop); return er }, tkernel.EOK},
			{"tk_cre_cyc", func() tkernel.ER { var er tkernel.ER; cyc, er = k.CreCyc("c", 10*sysc.Ms, 0, hNoop); return er }, tkernel.EOK},

			// Task management: every service down its E_NOEXS early return.
			{"tk_sta_tsk", func() tkernel.ER { return k.StaTsk(noSuch) }, tkernel.ENOEXS},
			{"tk_ter_tsk", func() tkernel.ER { return k.TerTsk(noSuch) }, tkernel.ENOEXS},
			{"act_tsk", func() tkernel.ER { return k.ActTsk(noSuch, 1) }, tkernel.ENOEXS},
			{"can_act", func() tkernel.ER { _, er := k.CanAct(noSuch); return er }, tkernel.ENOEXS},
			{"tk_chg_pri", func() tkernel.ER { return k.ChgPri(noSuch, 5) }, tkernel.ENOEXS},
			{"tk_wup_tsk", func() tkernel.ER { return k.WupTsk(noSuch) }, tkernel.ENOEXS},
			{"tk_can_wup", func() tkernel.ER { _, er := k.CanWup(noSuch); return er }, tkernel.ENOEXS},
			{"tk_rel_wai", func() tkernel.ER { return k.RelWai(noSuch) }, tkernel.ENOEXS},
			{"tk_sus_tsk", func() tkernel.ER { return k.SusTsk(noSuch) }, tkernel.ENOEXS},
			{"tk_rsm_tsk", func() tkernel.ER { return k.RsmTsk(noSuch) }, tkernel.ENOEXS},
			{"tk_frsm_tsk", func() tkernel.ER { return k.FrsmTsk(noSuch) }, tkernel.ENOEXS},
			{"tk_del_tsk", func() tkernel.ER { return k.DelTsk(noSuch) }, tkernel.ENOEXS},

			// Synchronization / IPC: one valid and one E_NOEXS path each class.
			{"tk_sig_sem", func() tkernel.ER { return k.SigSem(sem, 1) }, tkernel.EOK},
			{"tk_wai_sem", func() tkernel.ER { return k.WaiSem(sem, 1, tkernel.TmoPol) }, tkernel.EOK},
			{"tk_sig_sem", func() tkernel.ER { return k.SigSem(noSuch, 1) }, tkernel.ENOEXS},
			{"tk_wai_sem", func() tkernel.ER { return k.WaiSem(noSuch, 1, tkernel.TmoPol) }, tkernel.ENOEXS},
			{"tk_set_flg", func() tkernel.ER { return k.SetFlg(flg, 1) }, tkernel.EOK},
			{"tk_wai_flg", func() tkernel.ER { _, er := k.WaiFlg(flg, 1, tkernel.TwfANDW, tkernel.TmoPol); return er }, tkernel.EOK},
			{"tk_clr_flg", func() tkernel.ER { return k.ClrFlg(flg, 0) }, tkernel.EOK},
			{"tk_set_flg", func() tkernel.ER { return k.SetFlg(noSuch, 1) }, tkernel.ENOEXS},
			{"tk_clr_flg", func() tkernel.ER { return k.ClrFlg(noSuch, 0) }, tkernel.ENOEXS},
			{"tk_wai_flg", func() tkernel.ER { _, er := k.WaiFlg(noSuch, 1, tkernel.TwfANDW, tkernel.TmoPol); return er }, tkernel.ENOEXS},
			{"tk_snd_mbx", func() tkernel.ER { return k.SndMbx(mbx, &tkernel.Message{}) }, tkernel.EOK},
			{"tk_rcv_mbx", func() tkernel.ER { _, er := k.RcvMbx(mbx, tkernel.TmoPol); return er }, tkernel.EOK},
			{"tk_snd_mbx", func() tkernel.ER { return k.SndMbx(noSuch, &tkernel.Message{}) }, tkernel.ENOEXS},
			{"tk_rcv_mbx", func() tkernel.ER { _, er := k.RcvMbx(noSuch, tkernel.TmoPol); return er }, tkernel.ENOEXS},
			{"tk_snd_mbf", func() tkernel.ER { return k.SndMbf(mbf, []byte("m"), tkernel.TmoPol) }, tkernel.EOK},
			{"tk_rcv_mbf", func() tkernel.ER { _, er := k.RcvMbf(mbf, tkernel.TmoPol); return er }, tkernel.EOK},
			{"tk_snd_mbf", func() tkernel.ER { return k.SndMbf(noSuch, []byte("m"), tkernel.TmoPol) }, tkernel.ENOEXS},
			{"tk_rcv_mbf", func() tkernel.ER { _, er := k.RcvMbf(noSuch, tkernel.TmoPol); return er }, tkernel.ENOEXS},
			{"tk_loc_mtx", func() tkernel.ER { return k.LocMtx(mtx, tkernel.TmoPol) }, tkernel.EOK},
			{"tk_unl_mtx", func() tkernel.ER { return k.UnlMtx(mtx) }, tkernel.EOK},
			{"tk_loc_mtx", func() tkernel.ER { return k.LocMtx(noSuch, tkernel.TmoPol) }, tkernel.ENOEXS},
			{"tk_unl_mtx", func() tkernel.ER { return k.UnlMtx(noSuch) }, tkernel.ENOEXS},

			// Memory pools.
			{"tk_get_mpf", func() tkernel.ER { _, er := k.GetMpf(noSuch, tkernel.TmoPol); return er }, tkernel.ENOEXS},
			{"tk_rel_mpf", func() tkernel.ER { return k.RelMpf(noSuch, nil) }, tkernel.ENOEXS},
			{"tk_get_mpl", func() tkernel.ER { _, er := k.GetMpl(noSuch, 8, tkernel.TmoPol); return er }, tkernel.ENOEXS},
			{"tk_rel_mpl", func() tkernel.ER { return k.RelMpl(noSuch, nil) }, tkernel.ENOEXS},

			// Time-event handlers.
			{"tk_sta_alm", func() tkernel.ER { return k.StaAlm(alm, 50*sysc.Ms) }, tkernel.EOK},
			{"tk_stp_alm", func() tkernel.ER { return k.StpAlm(alm) }, tkernel.EOK},
			{"tk_sta_cyc", func() tkernel.ER { return k.StaCyc(cyc) }, tkernel.EOK},
			{"tk_stp_cyc", func() tkernel.ER { return k.StpCyc(cyc) }, tkernel.EOK},
			{"tk_sta_alm", func() tkernel.ER { return k.StaAlm(noSuch, sysc.Ms) }, tkernel.ENOEXS},
			{"tk_stp_alm", func() tkernel.ER { return k.StpAlm(noSuch) }, tkernel.ENOEXS},
			{"tk_sta_cyc", func() tkernel.ER { return k.StaCyc(noSuch) }, tkernel.ENOEXS},
			{"tk_stp_cyc", func() tkernel.ER { return k.StpCyc(noSuch) }, tkernel.ENOEXS},

			// Rendezvous.
			{"tk_cal_por", func() tkernel.ER { _, er := k.CalPor(noSuch, 1, nil, tkernel.TmoPol); return er }, tkernel.ENOEXS},
			{"tk_acp_por", func() tkernel.ER { _, _, er := k.AcpPor(noSuch, 1, tkernel.TmoPol); return er }, tkernel.ENOEXS},

			// Self-referential task services on valid paths.
			{"tk_slp_tsk", func() tkernel.ER { return k.SlpTsk(tkernel.TmoPol) }, 0},
			{"tk_dly_tsk", func() tkernel.ER { return k.DlyTsk(sysc.Ms) }, tkernel.EOK},
			{"tk_rot_rdq", func() tkernel.ER { return k.RotRdq(10) }, tkernel.EOK},

			// Remaining services: exercised for pairing; ER pinned only to the
			// call's own return below.
			{"tk_rpl_rdv", func() tkernel.ER { return k.RplRdv(0, nil) }, 0},
			{"tk_def_int", func() tkernel.ER { return k.DefInt(1, "irq1", hNoop) }, tkernel.EOK},

			// Object deletion: valid paths close out every created object.
			{"tk_del_sem", func() tkernel.ER { return k.DelSem(sem) }, tkernel.EOK},
			{"tk_del_flg", func() tkernel.ER { return k.DelFlg(flg) }, tkernel.EOK},
			{"tk_del_mbx", func() tkernel.ER { return k.DelMbx(mbx) }, tkernel.EOK},
			{"tk_del_mbf", func() tkernel.ER { return k.DelMbf(mbf) }, tkernel.EOK},
			{"tk_del_mpf", func() tkernel.ER { return k.DelMpf(mpf) }, tkernel.EOK},
			{"tk_del_mpl", func() tkernel.ER { return k.DelMpl(mpl) }, tkernel.EOK},
			{"tk_del_mtx", func() tkernel.ER { return k.DelMtx(mtx) }, tkernel.EOK},
			{"tk_del_por", func() tkernel.ER { return k.DelPor(por) }, tkernel.EOK},
			{"tk_del_alm", func() tkernel.ER { return k.DelAlm(alm) }, tkernel.EOK},
			{"tk_del_cyc", func() tkernel.ER { return k.DelCyc(cyc) }, tkernel.EOK},
			{"tk_del_tsk", func() tkernel.ER { return k.DelTsk(worker) }, tkernel.EOK},
			{"tk_del_sem", func() tkernel.ER { return k.DelSem(noSuch) }, tkernel.ENOEXS},
			{"tk_del_flg", func() tkernel.ER { return k.DelFlg(noSuch) }, tkernel.ENOEXS},
			{"tk_del_mbx", func() tkernel.ER { return k.DelMbx(noSuch) }, tkernel.ENOEXS},
			{"tk_del_mbf", func() tkernel.ER { return k.DelMbf(noSuch) }, tkernel.ENOEXS},
			{"tk_del_mpf", func() tkernel.ER { return k.DelMpf(noSuch) }, tkernel.ENOEXS},
			{"tk_del_mpl", func() tkernel.ER { return k.DelMpl(noSuch) }, tkernel.ENOEXS},
			{"tk_del_mtx", func() tkernel.ER { return k.DelMtx(noSuch) }, tkernel.ENOEXS},
			{"tk_del_por", func() tkernel.ER { return k.DelPor(noSuch) }, tkernel.ENOEXS},
			{"tk_del_alm", func() tkernel.ER { return k.DelAlm(noSuch) }, tkernel.ENOEXS},
			{"tk_del_cyc", func() tkernel.ER { return k.DelCyc(noSuch) }, tkernel.ENOEXS},
		}
		for i, c := range calls {
			er := c.do()
			// want == 0 with a non-EOK call (tk_slp_tsk poll, tk_rpl_rdv on a
			// bad rendezvous number) only pins exit-ER == returned-ER.
			if c.want != 0 && er != c.want {
				t.Errorf("call %d (%s): returned %v, want %v", i, c.svc, er, c.want)
			}
			got := chk.last()
			if got.name != c.svc {
				t.Errorf("call %d (%s): last svc-exit was %q", i, c.svc, got.name)
				continue
			}
			if got.er != er {
				t.Errorf("call %d (%s): exit published ER %v, call returned %v", i, c.svc, got.er, er)
			}
		}
	})
	run(t, sim, sysc.Sec)
	if len(chk.stack) != 0 {
		t.Errorf("unbalanced svc-enter stack at end of run: %v", chk.stack)
	}
	// Every distinct kernel service (59 service names) must have been exercised.
	seen := map[string]bool{}
	for _, e := range chk.exits {
		seen[e.name] = true
	}
	if len(seen) != 59 {
		t.Errorf("exercised %d distinct services, want 59: %v", len(seen), seen)
	}
}
