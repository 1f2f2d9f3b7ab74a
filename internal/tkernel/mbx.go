package tkernel

// Message is a mailbox message: an arbitrary payload with a message
// priority used when the mailbox orders messages by priority (TA_MPRI).
type Message struct {
	Priority int
	Payload  any
}

// Mailbox is a T-Kernel mailbox (tk_cre_mbx family): senders never block
// (messages are queued by reference), receivers block until a message
// arrives. A waiting receiver's delivery slot is its winfo.mbx.
type Mailbox struct {
	id    ID
	name  string
	label string // wait-object label, formed at creation
	attr  Attr
	msgs  []*Message
	wq    waitQueue
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
func (k *Kernel) CreMbx(name string, attr Attr) (id ID, er ER) {
	er = k.call("tk_cre_mbx", func(k *Kernel) (ER, *armedWait) {
		var m *Mailbox
		id, m = k.mbxs.add()
		*m = Mailbox{id: id, name: name, label: objName("mbx", id, name),
			attr: attr, wq: newWaitQueue(attr)}
		return EOK, nil
	})
	return id, er
}

// DelMbx deletes a mailbox; waiting receivers get E_DLT (tk_del_mbx).
func (k *Kernel) DelMbx(id ID) ER {
	return k.call("tk_del_mbx", func(k *Kernel) (ER, *armedWait) {
		m := k.mbxs.get(id)
		if m == nil {
			return ENOEXS, nil
		}
		m.wq.drain(func(t *Task) { k.wake(t, EDLT) })
		k.mbxs.del(id)
		return EOK, nil
	})
}

// SndMbx sends a message (tk_snd_mbx); never blocks. A waiting receiver is
// handed the message directly.
func (k *Kernel) SndMbx(id ID, msg *Message) ER {
	return k.call("tk_snd_mbx", func(k *Kernel) (ER, *armedWait) { return k.sndMbxBody(id, msg), nil })
}

// sndMbxBody is the body of SndMbx, shared with its program op.
func (k *Kernel) sndMbxBody(id ID, msg *Message) ER {
	m := k.mbxs.get(id)
	if m == nil {
		return ENOEXS
	}
	if msg == nil {
		return EPAR
	}
	if t := m.wq.head(); t != nil {
		m.wq.remove(t)
		*t.winfo.mbx = msg
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
func (k *Kernel) RcvMbx(id ID, tmout TMO) (msg *Message, er ER) {
	er = k.call("tk_rcv_mbx", func(k *Kernel) (ER, *armedWait) { return k.rcvMbxBody(id, tmout, &msg) })
	return msg, er
}

// rcvMbxBody is the body of RcvMbx, shared with its program op: the message is
// delivered through dst (nil on error paths).
func (k *Kernel) rcvMbxBody(id ID, tmout TMO, dst **Message) (ER, *armedWait) {
	m := k.mbxs.get(id)
	if m == nil {
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
	task.winfo.mbx = dst
	return EOK, k.armSleep(task, &m.wq, m.label, tmout)
}

// RefMbx returns the mailbox state (tk_ref_mbx).
func (k *Kernel) RefMbx(id ID) (MailboxInfo, ER) {
	m := k.mbxs.get(id)
	if m == nil {
		return MailboxInfo{}, ENOEXS
	}
	info := MailboxInfo{ID: m.id, Name: m.name, Messages: len(m.msgs),
		Waiting: m.wq.refs()}
	if len(m.msgs) > 0 {
		info.NextPrio = m.msgs[0].Priority
	}
	return info, EOK
}
