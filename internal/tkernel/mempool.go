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
// blkcnt blocks of blksz bytes; tk_get_mpf blocks while exhausted.
type FixedPool struct {
	id          ID
	name        string
	attr        Attr
	blksz       int
	blkcnt      int
	free        []int // free block indexes (LIFO)
	outstanding int   // blocks currently handed out (accounting invariant)
	arena       []byte
	blocks      []*MemBlock
	wq          waitQueue
	dst         map[*Task]**MemBlock
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
func (k *Kernel) CreMpf(name string, attr Attr, blkcnt, blksz int) (_ ID, er ER) {
	k.enterSvc("tk_cre_mpf")
	defer k.exitSvc("tk_cre_mpf", &er)
	if blkcnt <= 0 || blksz <= 0 {
		return 0, EPAR
	}
	k.nextMpf++
	id := k.nextMpf
	p := &FixedPool{
		id: id, name: name, attr: attr, blksz: blksz, blkcnt: blkcnt,
		arena: make([]byte, blkcnt*blksz),
		wq:    newWaitQueue(attr),
		dst:   map[*Task]**MemBlock{},
	}
	p.blocks = make([]*MemBlock, blkcnt)
	for i := blkcnt - 1; i >= 0; i-- {
		p.free = append(p.free, i)
		p.blocks[i] = &MemBlock{pool: id, idx: i,
			Data: p.arena[i*blksz : (i+1)*blksz]}
	}
	k.mpfs[id] = p
	return id, EOK
}

// DelMpf deletes a fixed pool; waiters get E_DLT (tk_del_mpf).
func (k *Kernel) DelMpf(id ID) (er ER) {
	k.enterSvc("tk_del_mpf")
	defer k.exitSvc("tk_del_mpf", &er)
	p, ok := k.mpfs[id]
	if !ok {
		return ENOEXS
	}
	p.wq.drain(func(t *Task) {
		delete(p.dst, t)
		k.wake(t, EDLT)
	})
	delete(k.mpfs, id)
	return EOK
}

// GetMpf acquires one block, waiting up to tmout (tk_get_mpf).
func (k *Kernel) GetMpf(id ID, tmout TMO) (_ *MemBlock, er ER) {
	k.enterSvc("tk_get_mpf")
	defer k.exitSvc("tk_get_mpf", &er)
	var got *MemBlock
	er = k.finish(k.getMpfBody(id, tmout, &got))
	return got, er
}

// getMpfBody is the split call body of GetMpf: the block is
// delivered through dst (nil on error paths).
func (k *Kernel) getMpfBody(id ID, tmout TMO, dst **MemBlock) (ER, *armedWait) {
	p, ok := k.mpfs[id]
	if !ok {
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
	p.dst[task] = dst
	return EOK, k.armSleep(task, objName("mpf", p.id, p.name), tmout, func() {
		p.wq.remove(task)
		delete(p.dst, task)
	})
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
func (k *Kernel) RelMpf(id ID, b *MemBlock) (er ER) {
	k.enterSvc("tk_rel_mpf")
	defer k.exitSvc("tk_rel_mpf", &er)
	return k.relMpfBody(id, b)
}

// relMpfBody is the split call body of RelMpf.
func (k *Kernel) relMpfBody(id ID, b *MemBlock) ER {
	p, ok := k.mpfs[id]
	if !ok {
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
		*p.dst[t] = b
		delete(p.dst, t)
		k.wake(t, EOK)
		return EOK
	}
	p.free = append(p.free, b.idx)
	p.outstanding--
	return EOK
}

// RefMpf returns the fixed-pool state (tk_ref_mpf).
func (k *Kernel) RefMpf(id ID) (FixedPoolInfo, ER) {
	p, ok := k.mpfs[id]
	if !ok {
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
// byte arena.
type VariablePool struct {
	id         ID
	name       string
	attr       Attr
	arena      []byte
	holes      []hole // sorted by offset, coalesced
	allocBytes int    // bytes currently carved out (accounting invariant)
	wq         waitQueue
	reqs       map[*Task]*mplReq
}

type hole struct{ off, size int }

type mplReq struct {
	size int
	dst  **MemBlock
}

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
func (k *Kernel) CreMpl(name string, attr Attr, mplsz int) (_ ID, er ER) {
	k.enterSvc("tk_cre_mpl")
	defer k.exitSvc("tk_cre_mpl", &er)
	if mplsz <= 0 {
		return 0, EPAR
	}
	mplsz = align(mplsz)
	k.nextMpl++
	id := k.nextMpl
	k.mpls[id] = &VariablePool{
		id: id, name: name, attr: attr,
		arena: make([]byte, mplsz),
		holes: []hole{{0, mplsz}},
		wq:    newWaitQueue(attr),
		reqs:  map[*Task]*mplReq{},
	}
	return id, EOK
}

// DelMpl deletes a variable pool; waiters get E_DLT (tk_del_mpl).
func (k *Kernel) DelMpl(id ID) (er ER) {
	k.enterSvc("tk_del_mpl")
	defer k.exitSvc("tk_del_mpl", &er)
	p, ok := k.mpls[id]
	if !ok {
		return ENOEXS
	}
	p.wq.drain(func(t *Task) {
		delete(p.reqs, t)
		k.wake(t, EDLT)
	})
	delete(k.mpls, id)
	return EOK
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
func (k *Kernel) GetMpl(id ID, size int, tmout TMO) (_ *MemBlock, er ER) {
	k.enterSvc("tk_get_mpl")
	defer k.exitSvc("tk_get_mpl", &er)
	var got *MemBlock
	er = k.finish(k.getMplBody(id, size, tmout, &got))
	return got, er
}

// getMplBody is the split call body of GetMpl: the block is
// delivered through dst (nil on error paths).
func (k *Kernel) getMplBody(id ID, size int, tmout TMO, dst **MemBlock) (ER, *armedWait) {
	p, ok := k.mpls[id]
	if !ok {
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
	p.reqs[task] = &mplReq{size: size, dst: dst}
	return EOK, k.armSleep(task, objName("mpl", p.id, p.name), tmout, func() {
		p.wq.remove(task)
		delete(p.reqs, task)
	})
}

// RelMpl frees a block (tk_rel_mpl) and satisfies queued requests in order.
func (k *Kernel) RelMpl(id ID, b *MemBlock) (er ER) {
	k.enterSvc("tk_rel_mpl")
	defer k.exitSvc("tk_rel_mpl", &er)
	return k.relMplBody(id, b)
}

// relMplBody is the split call body of RelMpl.
func (k *Kernel) relMplBody(id ID, b *MemBlock) ER {
	p, ok := k.mpls[id]
	if !ok {
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
		req := p.reqs[t]
		blk, ok := p.alloc(req.size)
		if !ok {
			return EOK
		}
		p.wq.remove(t)
		delete(p.reqs, t)
		*req.dst = blk
		k.wake(t, EOK)
	}
}

// RefMpl returns the variable-pool state (tk_ref_mpl).
func (k *Kernel) RefMpl(id ID) (VariablePoolInfo, ER) {
	p, ok := k.mpls[id]
	if !ok {
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
