package tkernel

// Rendezvous ports are the T-Kernel/µITRON client-server synchronization
// object (tk_cre_por family): a client calls a port with a call pattern and
// a message (tk_cal_por) and blocks; a server accepts calls matching an
// accept pattern (tk_acp_por), obtains a rendezvous number, performs the
// service, and replies (tk_rpl_rdv), which releases the client with the
// reply message. The call timeout covers the establishment of the
// rendezvous only — once accepted, the client waits indefinitely for the
// reply, per the specification.

// Port is a rendezvous port. A queued caller's request is its winfo ptn
// (calptn), msg and rcv (the reply slot, kept until the reply); a queued
// acceptor's is its winfo ptn (acpptn), rdvno and rcv (the call-message
// slot).
type Port struct {
	id      ID
	name    string
	attr    Attr
	maxCMsz int // maximum call-message size
	maxRMsz int // maximum reply-message size

	callQ waitQueue // blocked callers
	acpQ  waitQueue // blocked acceptors

	// Wait-object labels, formed at creation: porLabel while a call or
	// accept is queued, rdvLabel while a caller awaits the reply.
	porLabel, rdvLabel string
}

// RdvNo identifies an established rendezvous awaiting its reply.
type RdvNo uint64

// PortInfo is the tk_ref_por snapshot.
type PortInfo struct {
	ID          ID
	Name        string
	CallWaiting []WaitRef
	AcceptWait  []WaitRef
	OpenRdv     int
}

// CrePor creates a rendezvous port (tk_cre_por).
func (k *Kernel) CrePor(name string, attr Attr, maxCMsz, maxRMsz int) (id ID, er ER) {
	er = k.call("tk_cre_por", func(k *Kernel) (ER, *armedWait) {
		if maxCMsz <= 0 || maxRMsz <= 0 {
			return EPAR, nil
		}
		var p *Port
		id, p = k.pors.add()
		*p = Port{
			id: id, name: name, attr: attr, maxCMsz: maxCMsz, maxRMsz: maxRMsz,
			porLabel: objName("por", id, name), rdvLabel: objName("rdv", id, name),
			callQ: newWaitQueue(attr), acpQ: newWaitQueue(TaTFIFO),
		}
		return EOK, nil
	})
	return id, er
}

// DelPor deletes a port: queued callers and acceptors get E_DLT; clients in
// an established rendezvous also get E_DLT (tk_del_por).
func (k *Kernel) DelPor(id ID) ER {
	return k.call("tk_del_por", func(k *Kernel) (ER, *armedWait) {
		p := k.pors.get(id)
		if p == nil {
			return ENOEXS, nil
		}
		p.callQ.drain(func(t *Task) { k.wake(t, EDLT) })
		p.acpQ.drain(func(t *Task) { k.wake(t, EDLT) })
		for _, no := range sortedKeys(k.rdvs) {
			if r := k.rdvs[no]; r.port == id {
				delete(k.rdvs, no)
				k.wake(r.client, EDLT)
			}
		}
		k.pors.del(id)
		return EOK, nil
	})
}

// CalPor calls a port (tk_cal_por): block until a server accepts a call
// whose calptn intersects its accept pattern AND replies. The reply
// message is returned. tmout bounds rendezvous establishment only.
func (k *Kernel) CalPor(id ID, calptn uint32, msg []byte, tmout TMO) (reply []byte, er ER) {
	er = k.call("tk_cal_por", func(k *Kernel) (ER, *armedWait) {
		p := k.pors.get(id)
		if p == nil {
			return ENOEXS, nil
		}
		if calptn == 0 || len(msg) > p.maxCMsz {
			return EPAR, nil
		}
		task, er := k.blockCheck(tmout)
		if er != EOK {
			return er, nil
		}
		own := make([]byte, len(msg))
		copy(own, msg)

		// A matching acceptor already waiting: establish immediately.
		if srv := p.matchAcceptor(calptn); srv != nil {
			p.acpQ.remove(srv)
			*srv.winfo.rdvno = k.establish(p, task)
			*srv.winfo.rcv = own
			k.wake(srv, EOK)
			// Rendezvous established: wait (unbounded) for the reply.
			task.winfo.rcv = &reply
			return EOK, k.armSleep(task, p, p.rdvLabel, TmoFevr)
		}

		if tmout == TmoPol {
			return ETMOUT, nil
		}
		p.callQ.add(task)
		task.winfo.ptn, task.winfo.msg, task.winfo.rcv = calptn, own, &reply
		return EOK, k.armSleep(task, p, p.porLabel, tmout)
	})
	return reply, er
}

// AcpPor accepts a call on a port (tk_acp_por): returns the rendezvous
// number and the call message of the first queued caller whose pattern
// matches acpptn, blocking up to tmout when none is queued.
func (k *Kernel) AcpPor(id ID, acpptn uint32, tmout TMO) (no RdvNo, msg []byte, er ER) {
	er = k.call("tk_acp_por", func(k *Kernel) (ER, *armedWait) {
		p := k.pors.get(id)
		if p == nil {
			return ENOEXS, nil
		}
		if acpptn == 0 {
			return EPAR, nil
		}

		// A matching caller already queued: establish immediately.
		if cl := p.matchCaller(acpptn); cl != nil {
			p.callQ.remove(cl)
			// The caller's timeout no longer applies; it now waits for the
			// reply indefinitely.
			cl.waitSeq++
			cl.tt.SetWaitObject(p.rdvLabel)
			no, msg = k.establish(p, cl), cl.winfo.msg
			return EOK, nil
		}

		if tmout == TmoPol {
			return ETMOUT, nil
		}
		task, er := k.blockCheck(tmout)
		if er != EOK {
			return er, nil
		}
		p.acpQ.add(task)
		task.winfo.ptn, task.winfo.rdvno, task.winfo.rcv = acpptn, &no, &msg
		return EOK, k.armSleep(task, &p.acpQ, p.porLabel, tmout)
	})
	return no, msg, er
}

// RplRdv replies to an established rendezvous, releasing the client with
// the reply message (tk_rpl_rdv).
func (k *Kernel) RplRdv(no RdvNo, reply []byte) ER {
	return k.call("tk_rpl_rdv", func(k *Kernel) (ER, *armedWait) {
		r, ok := k.rdvs[no]
		if !ok {
			return EOBJ, nil
		}
		p := k.pors.get(r.port)
		if p != nil && len(reply) > p.maxRMsz {
			return EPAR, nil
		}
		delete(k.rdvs, no)
		own := make([]byte, len(reply))
		copy(own, reply)
		*r.client.winfo.rcv = own
		r.client.rdvno = 0
		k.wake(r.client, EOK)
		return EOK, nil
	})
}

// RefPor returns the port state (tk_ref_por).
func (k *Kernel) RefPor(id ID) (PortInfo, ER) {
	p := k.pors.get(id)
	if p == nil {
		return PortInfo{}, ENOEXS
	}
	open := 0
	for _, r := range k.rdvs {
		if r.port == id {
			open++
		}
	}
	return PortInfo{ID: p.id, Name: p.name, CallWaiting: p.callQ.refs(),
		AcceptWait: p.acpQ.refs(), OpenRdv: open}, EOK
}

// establish registers a rendezvous for the given client; the reply goes to
// the client's winfo.rcv.
func (k *Kernel) establish(p *Port, client *Task) RdvNo {
	k.nextRdv++
	no := RdvNo(k.nextRdv)
	k.rdvs[no] = portRdv{port: p.id, client: client}
	client.rdvno = no
	return no
}

// cancelWait implements waitObject for a caller (an acceptor waits on
// acpQ): it leaves the call queue, if still queued, and drops its
// rendezvous, if already accepted.
func (p *Port) cancelWait(k *Kernel, t *Task) {
	p.callQ.remove(t)
	k.dropRdvOf(t)
}

// dropRdvOf removes a client's open rendezvous (timeout/forced release).
func (k *Kernel) dropRdvOf(task *Task) {
	if task.rdvno != 0 {
		delete(k.rdvs, task.rdvno)
		task.rdvno = 0
	}
}

// matchAcceptor finds the first waiting acceptor whose pattern intersects
// calptn.
func (p *Port) matchAcceptor(calptn uint32) *Task {
	for t := p.acpQ.head(); t != nil; t = t.wqNext {
		if t.winfo.ptn&calptn != 0 {
			return t
		}
	}
	return nil
}

// matchCaller finds the first queued caller whose pattern intersects
// acpptn.
func (p *Port) matchCaller(acpptn uint32) *Task {
	for t := p.callQ.head(); t != nil; t = t.wqNext {
		if t.winfo.ptn&acpptn != 0 {
			return t
		}
	}
	return nil
}

// portRdv is an accepted, unreplied call: its port (for deletion
// handling) and its client.
type portRdv struct {
	port   ID
	client *Task
}
