package tkernel

// Message is a mailbox message: an arbitrary payload with a message
// priority used when the mailbox orders messages by priority (TA_MPRI).
type Message struct {
	Priority int
	Payload  any
}

// Mailbox is a T-Kernel mailbox (tk_cre_mbx family): senders never block
// (messages are queued by reference), receivers block until a message
// arrives.
type Mailbox struct {
	id   ID
	name string
	attr Attr
	msgs []*Message
	wq   waitQueue
	dest map[*Task]**Message // delivery slot per waiting receiver
}

// MailboxInfo is the tk_ref_mbx snapshot.
type MailboxInfo struct {
	ID       ID
	Name     string
	Messages int
	NextPrio int // priority of the head message (0 if empty)
	Waiting  []WaitRef
}

// CreMbx creates a mailbox (tk_cre_mbx). TaMPRI orders messages by
// priority; the default is FIFO.
func (k *Kernel) CreMbx(name string, attr Attr) (_ ID, er ER) {
	k.enterSvc("tk_cre_mbx")
	defer k.exitSvc("tk_cre_mbx", &er)
	k.nextMbx++
	id := k.nextMbx
	k.mbxs[id] = &Mailbox{id: id, name: name, attr: attr,
		wq: newWaitQueue(attr), dest: map[*Task]**Message{}}
	return id, EOK
}

// DelMbx deletes a mailbox; waiting receivers get E_DLT (tk_del_mbx).
func (k *Kernel) DelMbx(id ID) (er ER) {
	k.enterSvc("tk_del_mbx")
	defer k.exitSvc("tk_del_mbx", &er)
	m, ok := k.mbxs[id]
	if !ok {
		return ENOEXS
	}
	m.wq.drain(func(t *Task) {
		delete(m.dest, t)
		k.wake(t, EDLT)
	})
	delete(k.mbxs, id)
	return EOK
}

// SndMbx sends a message (tk_snd_mbx); never blocks. A waiting receiver is
// handed the message directly.
func (k *Kernel) SndMbx(id ID, msg *Message) (er ER) {
	k.enterSvc("tk_snd_mbx")
	defer k.exitSvc("tk_snd_mbx", &er)
	return k.sndMbxBody(id, msg)
}

// sndMbxBody is the split call body of SndMbx.
func (k *Kernel) sndMbxBody(id ID, msg *Message) ER {
	m, ok := k.mbxs[id]
	if !ok {
		return ENOEXS
	}
	if msg == nil {
		return EPAR
	}
	if t := m.wq.head(); t != nil {
		m.wq.remove(t)
		*m.dest[t] = msg
		delete(m.dest, t)
		k.wake(t, EOK)
		return EOK
	}
	if m.attr&TaMPRI != 0 {
		pos := len(m.msgs)
		for i, x := range m.msgs {
			if msg.Priority < x.Priority {
				pos = i
				break
			}
		}
		m.msgs = append(m.msgs, nil)
		copy(m.msgs[pos+1:], m.msgs[pos:])
		m.msgs[pos] = msg
	} else {
		m.msgs = append(m.msgs, msg)
	}
	return EOK
}

// RcvMbx receives the head message, waiting up to tmout (tk_rcv_mbx).
func (k *Kernel) RcvMbx(id ID, tmout TMO) (_ *Message, er ER) {
	k.enterSvc("tk_rcv_mbx")
	defer k.exitSvc("tk_rcv_mbx", &er)
	var got *Message
	er = k.finish(k.rcvMbxBody(id, tmout, &got))
	return got, er
}

// rcvMbxBody is the split call body of RcvMbx: the message is
// delivered through dst (nil on error paths).
func (k *Kernel) rcvMbxBody(id ID, tmout TMO, dst **Message) (ER, *armedWait) {
	m, ok := k.mbxs[id]
	if !ok {
		return ENOEXS, nil
	}
	if len(m.msgs) > 0 {
		*dst = m.msgs[0]
		m.msgs = m.msgs[1:]
		return EOK, nil
	}
	if tmout == TmoPol {
		return ETMOUT, nil
	}
	task, er := k.blockCheck(tmout)
	if er != EOK {
		return er, nil
	}
	m.wq.add(task)
	m.dest[task] = dst
	return EOK, k.armSleep(task, objName("mbx", m.id, m.name), tmout, func() {
		m.wq.remove(task)
		delete(m.dest, task)
	})
}

// RefMbx returns the mailbox state (tk_ref_mbx).
func (k *Kernel) RefMbx(id ID) (MailboxInfo, ER) {
	m, ok := k.mbxs[id]
	if !ok {
		return MailboxInfo{}, ENOEXS
	}
	info := MailboxInfo{ID: m.id, Name: m.name, Messages: len(m.msgs),
		Waiting: m.wq.refs()}
	if len(m.msgs) > 0 {
		info.NextPrio = m.msgs[0].Priority
	}
	return info, EOK
}
