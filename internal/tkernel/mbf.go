package tkernel

// MessageBuffer is a T-Kernel message buffer (tk_cre_mbf family): messages
// are copied into a ring buffer of bufsz bytes; senders block while the
// buffer lacks space, receivers block while it is empty. A bufsz of zero
// gives fully synchronous send/receive rendezvous.
type MessageBuffer struct {
	id     ID
	name   string
	attr   Attr
	bufsz  int
	maxmsz int
	used   int
	msgs   [][]byte

	sendQ waitQueue
	recvQ waitQueue
	sMsg  map[*Task][]byte  // message a blocked sender wants to enqueue
	rDst  map[*Task]*[]byte // delivery slot of a blocked receiver
}

// MessageBufferInfo is the tk_ref_mbf snapshot.
type MessageBufferInfo struct {
	ID          ID
	Name        string
	BufSize     int
	UsedBytes   int
	FreeBytes   int
	Messages    int
	SendWaiting []WaitRef
	RecvWaiting []WaitRef
}

// CreMbf creates a message buffer with buffer size bufsz and maximum
// message size maxmsz (tk_cre_mbf).
func (k *Kernel) CreMbf(name string, attr Attr, bufsz, maxmsz int) (_ ID, er ER) {
	k.enterSvc("tk_cre_mbf")
	defer k.exitSvc("tk_cre_mbf", &er)
	if bufsz < 0 || maxmsz <= 0 {
		return 0, EPAR
	}
	k.nextMbf++
	id := k.nextMbf
	k.mbfs[id] = &MessageBuffer{
		id: id, name: name, attr: attr, bufsz: bufsz, maxmsz: maxmsz,
		sendQ: newWaitQueue(attr), recvQ: newWaitQueue(TaTFIFO),
		sMsg: map[*Task][]byte{}, rDst: map[*Task]*[]byte{},
	}
	return id, EOK
}

// DelMbf deletes a message buffer; all waiters get E_DLT (tk_del_mbf).
func (k *Kernel) DelMbf(id ID) (er ER) {
	k.enterSvc("tk_del_mbf")
	defer k.exitSvc("tk_del_mbf", &er)
	b, ok := k.mbfs[id]
	if !ok {
		return ENOEXS
	}
	for _, q := range []*waitQueue{&b.sendQ, &b.recvQ} {
		q.drain(func(t *Task) {
			delete(b.sMsg, t)
			delete(b.rDst, t)
			k.wake(t, EDLT)
		})
	}
	delete(k.mbfs, id)
	return EOK
}

// SndMbf sends a message of len(msg) bytes, waiting for space up to tmout
// (tk_snd_mbf). Messages longer than maxmsz are E_PAR.
func (k *Kernel) SndMbf(id ID, msg []byte, tmout TMO) (er ER) {
	k.enterSvc("tk_snd_mbf")
	defer k.exitSvc("tk_snd_mbf", &er)
	return k.finish(k.sndMbfBody(id, msg, tmout))
}

// sndMbfBody is the split call body of SndMbf.
func (k *Kernel) sndMbfBody(id ID, msg []byte, tmout TMO) (ER, *armedWait) {
	b, ok := k.mbfs[id]
	if !ok {
		return ENOEXS, nil
	}
	if len(msg) == 0 || len(msg) > b.maxmsz {
		return EPAR, nil
	}
	own := make([]byte, len(msg))
	copy(own, msg)

	// Direct rendezvous with a waiting receiver when the queue is empty.
	if len(b.msgs) == 0 && b.sendQ.len() == 0 {
		if t := b.recvQ.head(); t != nil {
			b.recvQ.remove(t)
			*b.rDst[t] = own
			delete(b.rDst, t)
			k.wake(t, EOK)
			return EOK, nil
		}
	}
	if b.sendQ.len() == 0 && b.fits(len(own)) {
		b.push(own)
		return EOK, nil
	}
	if tmout == TmoPol {
		return ETMOUT, nil
	}
	task, er := k.blockCheck(tmout)
	if er != EOK {
		return er, nil
	}
	b.sendQ.add(task)
	b.sMsg[task] = own
	return EOK, k.armSleep(task, objName("mbf", b.id, b.name), tmout, func() {
		b.sendQ.remove(task)
		delete(b.sMsg, task)
	})
}

// RcvMbf receives the oldest message, waiting up to tmout (tk_rcv_mbf).
func (k *Kernel) RcvMbf(id ID, tmout TMO) (_ []byte, er ER) {
	k.enterSvc("tk_rcv_mbf")
	defer k.exitSvc("tk_rcv_mbf", &er)
	var got []byte
	er = k.finish(k.rcvMbfBody(id, tmout, &got))
	return got, er
}

// rcvMbfBody is the split call body of RcvMbf: the message is
// delivered through dst (nil on error paths).
func (k *Kernel) rcvMbfBody(id ID, tmout TMO, dst *[]byte) (ER, *armedWait) {
	b, ok := k.mbfs[id]
	if !ok {
		return ENOEXS, nil
	}
	if len(b.msgs) > 0 {
		*dst = b.pop()
		k.mbfDrainSenders(b)
		return EOK, nil
	}
	// Empty buffer: a blocked sender (zero-size rendezvous) hands over
	// directly.
	if t := b.sendQ.head(); t != nil {
		*dst = b.sMsg[t]
		b.sendQ.remove(t)
		delete(b.sMsg, t)
		k.wake(t, EOK)
		k.mbfDrainSenders(b)
		return EOK, nil
	}
	if tmout == TmoPol {
		return ETMOUT, nil
	}
	task, er := k.blockCheck(tmout)
	if er != EOK {
		return er, nil
	}
	b.recvQ.add(task)
	b.rDst[task] = dst
	return EOK, k.armSleep(task, objName("mbf", b.id, b.name), tmout, func() {
		b.recvQ.remove(task)
		delete(b.rDst, task)
	})
}

// mbfDrainSenders moves blocked senders' messages into freed space, in
// queue order.
func (k *Kernel) mbfDrainSenders(b *MessageBuffer) {
	for {
		t := b.sendQ.head()
		if t == nil {
			return
		}
		msg := b.sMsg[t]
		if !b.fits(len(msg)) {
			return
		}
		b.sendQ.remove(t)
		delete(b.sMsg, t)
		b.push(msg)
		k.wake(t, EOK)
	}
}

// fits reports whether a message of n bytes fits the buffer accounting
// (each message carries a 4-byte length header, as in T-Kernel).
func (b *MessageBuffer) fits(n int) bool {
	return b.used+n+4 <= b.bufsz
}

func (b *MessageBuffer) push(msg []byte) {
	b.msgs = append(b.msgs, msg)
	b.used += len(msg) + 4
}

func (b *MessageBuffer) pop() []byte {
	msg := b.msgs[0]
	b.msgs = b.msgs[1:]
	b.used -= len(msg) + 4
	return msg
}

// RefMbf returns the message-buffer state (tk_ref_mbf).
func (k *Kernel) RefMbf(id ID) (MessageBufferInfo, ER) {
	b, ok := k.mbfs[id]
	if !ok {
		return MessageBufferInfo{}, ENOEXS
	}
	return k.mbfInfo(b), EOK
}

// mbfInfo builds the unified view of one message buffer.
func (k *Kernel) mbfInfo(b *MessageBuffer) MessageBufferInfo {
	return MessageBufferInfo{
		ID:          b.id,
		Name:        b.name,
		BufSize:     b.bufsz,
		UsedBytes:   b.used,
		FreeBytes:   b.bufsz - b.used,
		Messages:    len(b.msgs),
		SendWaiting: b.sendQ.refs(),
		RecvWaiting: b.recvQ.refs(),
	}
}
