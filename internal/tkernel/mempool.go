package tkernel

// MemBlock is a block handed out by a memory pool. Data is real usable
// memory backed by the pool arena.
type MemBlock struct {
	Data []byte
	pool ID   // owning pool id
	off  int  // arena offset (variable pools)
	idx  int  // block index (fixed pools)
	live bool // double-free guard
}

// FixedPool is a T-Kernel fixed-size memory pool (tk_cre_mpf family):
// blkcnt blocks of blksz bytes; tk_get_mpf blocks while exhausted. A
// waiter's delivery slot is its winfo.blk.
type FixedPool struct {
	id          ID
	name        string
	label       string // wait-object label, formed at creation
	attr        Attr
	blksz       int
	blkcnt      int
	free        []int // free block indexes (LIFO)
	outstanding int   // blocks currently handed out (accounting invariant)
	arena       []byte
	blocks      []*MemBlock
	wq          waitQueue
}

// FixedPoolInfo is the tk_ref_mpf snapshot.
type FixedPoolInfo struct {
	ID          ID
	Name        string
	BlockSize   int
	Total       int // block count at creation
	Free        int // blocks on the free list
	Outstanding int // blocks handed out and not yet returned
	Waiting     []WaitRef
}

// CreMpf creates a fixed-size pool (tk_cre_mpf).
func (k *Kernel) CreMpf(name string, attr Attr, blkcnt, blksz int) (id ID, er ER) {
	er = k.call("tk_cre_mpf", func(k *Kernel) (ER, *armedWait) {
		if blkcnt <= 0 || blksz <= 0 {
			return EPAR, nil
		}
		var p *FixedPool
		id, p = k.mpfs.add()
		*p = FixedPool{
			id: id, name: name, label: objName("mpf", id, name),
			attr: attr, blksz: blksz, blkcnt: blkcnt,
			arena: make([]byte, blkcnt*blksz),
			wq:    newWaitQueue(attr),
		}
		p.blocks = make([]*MemBlock, blkcnt)
		for i := blkcnt - 1; i >= 0; i-- {
			p.free = append(p.free, i)
			p.blocks[i] = &MemBlock{pool: id, idx: i,
				Data: p.arena[i*blksz : (i+1)*blksz]}
		}
		return EOK, nil
	})
	return id, er
}

// DelMpf deletes a fixed pool; waiters get E_DLT (tk_del_mpf).
func (k *Kernel) DelMpf(id ID) ER {
	return k.call("tk_del_mpf", func(k *Kernel) (ER, *armedWait) {
		p := k.mpfs.get(id)
		if p == nil {
			return ENOEXS, nil
		}
		p.wq.drain(func(t *Task) { k.wake(t, EDLT) })
		k.mpfs.del(id)
		return EOK, nil
	})
}

// GetMpf acquires one block, waiting up to tmout (tk_get_mpf).
func (k *Kernel) GetMpf(id ID, tmout TMO) (blk *MemBlock, er ER) {
	er = k.call("tk_get_mpf", func(k *Kernel) (ER, *armedWait) { return k.getMpfBody(id, tmout, &blk) })
	return blk, er
}

// getMpfBody is the body of GetMpf, shared with its program op: the block is
// delivered through dst (nil on error paths).
func (k *Kernel) getMpfBody(id ID, tmout TMO, dst **MemBlock) (ER, *armedWait) {
	p := k.mpfs.get(id)
	if p == nil {
		return ENOEXS, nil
	}
	if p.wq.len() == 0 && len(p.free) > 0 {
		*dst = p.take()
		return EOK, nil
	}
	if tmout == TmoPol {
		return ETMOUT, nil
	}
	task, er := k.blockCheck(tmout)
	if er != EOK {
		return er, nil
	}
	p.wq.add(task)
	task.winfo.blk = dst
	return EOK, k.armSleep(task, &p.wq, p.label, tmout)
}

func (p *FixedPool) take() *MemBlock {
	i := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	b := p.blocks[i]
	b.live = true
	p.outstanding++
	return b
}

// RelMpf returns a block to its pool (tk_rel_mpf); a waiting task is handed
// the block directly.
func (k *Kernel) RelMpf(id ID, b *MemBlock) ER {
	return k.call("tk_rel_mpf", func(k *Kernel) (ER, *armedWait) { return k.relMpfBody(id, b), nil })
}

// relMpfBody is the body of RelMpf, shared with its program op.
func (k *Kernel) relMpfBody(id ID, b *MemBlock) ER {
	p := k.mpfs.get(id)
	if p == nil {
		return ENOEXS
	}
	if b == nil || b.pool != id || !b.live {
		return EPAR
	}
	b.live = false
	if t := p.wq.head(); t != nil {
		// Direct handoff: the block stays outstanding, ownership moves.
		p.wq.remove(t)
		b.live = true
		*t.winfo.blk = b
		k.wake(t, EOK)
		return EOK
	}
	p.free = append(p.free, b.idx)
	p.outstanding--
	return EOK
}

// RefMpf returns the fixed-pool state (tk_ref_mpf).
func (k *Kernel) RefMpf(id ID) (FixedPoolInfo, ER) {
	p := k.mpfs.get(id)
	if p == nil {
		return FixedPoolInfo{}, ENOEXS
	}
	return k.mpfInfo(p), EOK
}

// mpfInfo builds the unified view of one fixed pool.
func (k *Kernel) mpfInfo(p *FixedPool) FixedPoolInfo {
	return FixedPoolInfo{ID: p.id, Name: p.name, BlockSize: p.blksz,
		Total: p.blkcnt, Free: len(p.free), Outstanding: p.outstanding,
		Waiting: p.wq.refs()}
}

// VariablePool is a T-Kernel variable-size memory pool (tk_cre_mpl family)
// backed by a first-fit free-list allocator with coalescing over a real
// byte arena. A waiter's request is its winfo.cnt (the size) and
// winfo.blk (the delivery slot).
type VariablePool struct {
	id         ID
	name       string
	label      string // wait-object label, formed at creation
	attr       Attr
	arena      []byte
	holes      []hole // sorted by offset, coalesced
	allocBytes int    // bytes currently carved out (accounting invariant)
	wq         waitQueue
}

type hole struct{ off, size int }

// VariablePoolInfo is the tk_ref_mpl snapshot.
type VariablePoolInfo struct {
	ID         ID
	Name       string
	ArenaSize  int
	FreeBytes  int // total free-hole bytes (FreeBytes+AllocBytes == ArenaSize)
	FreeMax    int // largest contiguous allocatable (payload) size
	AllocBytes int // bytes currently carved out (payload + headers)
	Waiting    []WaitRef
}

// align rounds n up to 8 bytes (allocator granule).
func align(n int) int { return (n + 7) &^ 7 }

// CreMpl creates a variable-size pool of mplsz bytes (tk_cre_mpl).
func (k *Kernel) CreMpl(name string, attr Attr, mplsz int) (id ID, er ER) {
	er = k.call("tk_cre_mpl", func(k *Kernel) (ER, *armedWait) {
		if mplsz <= 0 {
			return EPAR, nil
		}
		mplsz = align(mplsz)
		var p *VariablePool
		id, p = k.mpls.add()
		*p = VariablePool{
			id: id, name: name, label: objName("mpl", id, name), attr: attr,
			arena: make([]byte, mplsz),
			holes: []hole{{0, mplsz}},
			wq:    newWaitQueue(attr),
		}
		return EOK, nil
	})
	return id, er
}

// DelMpl deletes a variable pool; waiters get E_DLT (tk_del_mpl).
func (k *Kernel) DelMpl(id ID) ER {
	return k.call("tk_del_mpl", func(k *Kernel) (ER, *armedWait) {
		p := k.mpls.get(id)
		if p == nil {
			return ENOEXS, nil
		}
		p.wq.drain(func(t *Task) { k.wake(t, EDLT) })
		k.mpls.del(id)
		return EOK, nil
	})
}

// alloc carves size bytes (plus an 8-byte header granule) first-fit.
func (p *VariablePool) alloc(size int) (*MemBlock, bool) {
	need := align(size) + 8
	for i, h := range p.holes {
		if h.size < need {
			continue
		}
		off := h.off
		if h.size == need {
			p.holes = append(p.holes[:i], p.holes[i+1:]...)
		} else {
			p.holes[i] = hole{off: h.off + need, size: h.size - need}
		}
		p.allocBytes += need
		return &MemBlock{
			pool: p.id, off: off, live: true,
			Data: p.arena[off+8 : off+need],
		}, true
	}
	return nil, false
}

// release returns a block's extent to the free list, coalescing neighbours.
func (p *VariablePool) release(b *MemBlock) {
	size := len(b.Data) + 8
	p.allocBytes -= size
	pos := len(p.holes)
	for i, h := range p.holes {
		if h.off > b.off {
			pos = i
			break
		}
	}
	p.holes = append(p.holes, hole{})
	copy(p.holes[pos+1:], p.holes[pos:])
	p.holes[pos] = hole{off: b.off, size: size}
	// Coalesce with next, then previous.
	if pos+1 < len(p.holes) && p.holes[pos].off+p.holes[pos].size == p.holes[pos+1].off {
		p.holes[pos].size += p.holes[pos+1].size
		p.holes = append(p.holes[:pos+1], p.holes[pos+2:]...)
	}
	if pos > 0 && p.holes[pos-1].off+p.holes[pos-1].size == p.holes[pos].off {
		p.holes[pos-1].size += p.holes[pos].size
		p.holes = append(p.holes[:pos], p.holes[pos+1:]...)
	}
}

// GetMpl allocates size bytes, waiting up to tmout while space is
// insufficient (tk_get_mpl).
func (k *Kernel) GetMpl(id ID, size int, tmout TMO) (blk *MemBlock, er ER) {
	er = k.call("tk_get_mpl", func(k *Kernel) (ER, *armedWait) { return k.getMplBody(id, size, tmout, &blk) })
	return blk, er
}

// getMplBody is the body of GetMpl, shared with its program op: the block is
// delivered through dst (nil on error paths).
func (k *Kernel) getMplBody(id ID, size int, tmout TMO, dst **MemBlock) (ER, *armedWait) {
	p := k.mpls.get(id)
	if p == nil {
		return ENOEXS, nil
	}
	if size <= 0 || align(size)+8 > len(p.arena) {
		return EPAR, nil
	}
	if p.wq.len() == 0 {
		if b, ok := p.alloc(size); ok {
			*dst = b
			return EOK, nil
		}
	}
	if tmout == TmoPol {
		return ETMOUT, nil
	}
	task, er := k.blockCheck(tmout)
	if er != EOK {
		return er, nil
	}
	p.wq.add(task)
	task.winfo.cnt, task.winfo.blk = size, dst
	return EOK, k.armSleep(task, &p.wq, p.label, tmout)
}

// RelMpl frees a block (tk_rel_mpl) and satisfies queued requests in order.
func (k *Kernel) RelMpl(id ID, b *MemBlock) ER {
	return k.call("tk_rel_mpl", func(k *Kernel) (ER, *armedWait) { return k.relMplBody(id, b), nil })
}

// relMplBody is the body of RelMpl, shared with its program op.
func (k *Kernel) relMplBody(id ID, b *MemBlock) ER {
	p := k.mpls.get(id)
	if p == nil {
		return ENOEXS
	}
	if b == nil || b.pool != id || !b.live {
		return EPAR
	}
	b.live = false
	p.release(b)
	// Grant queued requests in strict queue order while they fit.
	for {
		t := p.wq.head()
		if t == nil {
			return EOK
		}
		blk, ok := p.alloc(t.winfo.cnt)
		if !ok {
			return EOK
		}
		p.wq.remove(t)
		*t.winfo.blk = blk
		k.wake(t, EOK)
	}
}

// RefMpl returns the variable-pool state (tk_ref_mpl).
func (k *Kernel) RefMpl(id ID) (VariablePoolInfo, ER) {
	p := k.mpls.get(id)
	if p == nil {
		return VariablePoolInfo{}, ENOEXS
	}
	return k.mplInfo(p), EOK
}

// mplInfo builds the unified view of one variable pool.
func (k *Kernel) mplInfo(p *VariablePool) VariablePoolInfo {
	info := VariablePoolInfo{ID: p.id, Name: p.name, ArenaSize: len(p.arena),
		AllocBytes: p.allocBytes, Waiting: p.wq.refs()}
	for _, h := range p.holes {
		info.FreeBytes += h.size
		if h.size > info.FreeMax {
			info.FreeMax = h.size
		}
	}
	if info.FreeMax >= 8 {
		info.FreeMax -= 8 // usable payload of the largest hole
	} else {
		info.FreeMax = 0
	}
	return info
}
