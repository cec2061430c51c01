package pipeline

import "pinnedloads/internal/ckptio"

// Decode bounds: every list here is bounded by ROB occupancy or the
// frontend window in a live core; the caps are far above either.
const (
	maxRefs      = 1 << 20
	maxSeqList   = 1 << 20
	maxWindow    = 1 << 16
	maxTableEnts = 1 << 20
)

func (r *ref) walk(s ckptio.State) {
	s.I64(&r.seq)
	s.U64(&r.gen)
}

func walkRefs(s ckptio.State, refs *[]ref) {
	ckptio.Slice(s, refs, maxRefs)
	for i := range *refs {
		(*refs)[i].walk(s)
	}
}

// walk carries a list of live seqs, read straight into the list's own
// storage. Loading rejects one that is not strictly ascending (every seqList
// operation relies on the order) or that names a seq outside the ROB window
// [head, tail), whose slot belongs to another instruction.
func (l *seqList) walk(s ckptio.State, head, tail int64) {
	if s.Loading() {
		l.reset()
	}
	seqs := l.seqs()
	ckptio.Slice(s, &seqs, maxSeqList)
	prev := head - 1
	for i := range seqs {
		s.I64(&seqs[i])
		if s.Loading() && s.Err() == nil && (seqs[i] <= prev || seqs[i] >= tail) {
			s.Failf("seq %d after %d in a list of the ROB window [%d, %d)", seqs[i], prev, head, tail)
		}
		prev = seqs[i]
	}
	if s.Loading() {
		l.buf, l.hi = seqs[:cap(seqs)], len(seqs)
	}
}

func (en *entry) walk(s ckptio.State) {
	s.Inst(&en.inst)
	s.I64(&en.seq)
	s.U64(&en.gen)
	s.I64(&en.winIdx)
	s.Bool(&en.wrong)
	ckptio.Enum(s, &en.state, stDone, "ROB entry state")
	s.I8(&en.depsLeft)
	walkRefs(s, &en.wake)
	s.Bool(&en.addrReady)
	s.Bool(&en.performed)
	s.Bool(&en.forwarded)
	s.Bool(&en.pinned)
	s.Bool(&en.invisible)
	s.Bool(&en.exposeDone)
	s.Bool(&en.pinSafe)
	s.U64(&en.line)
	s.I64(&en.token)
	s.I64(&en.specToken)
	s.U64(&en.archAddr)
	s.Bool(&en.resolved)
	s.Bool(&en.vpReached)
	s.I64(&en.yroot)
	s.U32(&en.lqTag)
	s.Bool(&en.lockIssued)
	s.Bool(&en.held)
	if s.Loading() {
		en.probeEpoch = 0
	}
}

// rebuildCandidates recomputes the load-queue candidate lists and lastOdd
// from the unretired loads, and resets Fence's record of new candidates.
func (c *Core) rebuildCandidates() {
	c.issueCand.reset()
	c.exposeCand.reset()
	c.specCand.reset()
	c.freshFrom = 0 // lastOdd may now be below the one saved, and with it the gate bound
	c.lastOdd = -1
	for _, seq := range c.loadSeqs.seqs() {
		e := c.at(seq)
		if e.inst.Fault || e.inst.TransientAddr != 0 {
			c.lastOdd = seq
		}
		if e.state == stAddrDone {
			c.issueCand.push(seq)
		}
		if e.invisible && e.performed && !e.exposeDone && e.token == 0 {
			c.exposeCand.push(seq)
		}
		if e.specToken != 0 && e.performed && e.inst.TransientAddr != 0 {
			c.specCand.push(seq)
		}
	}
}

// rebuildStoreFilter recounts stFilter from the resolved stores of the store
// queue and the write buffer, so it runs once both are loaded.
func (c *Core) rebuildStoreFilter() {
	c.stFilter = [len(c.stFilter)]uint16{}
	for _, seq := range c.storeSeqs.seqs() {
		if e := c.at(seq); e.addrReady {
			c.stFilter[stHash(e.inst.Addr)]++
		}
	}
	for i := 0; i < c.wb.Len(); i++ {
		c.stFilter[stHash(c.wb.At(i))]++
	}
}

// Barrier returns the cross-core barrier synchronizer (shared by all cores
// of a system; checkpointing serializes it once).
func (c *Core) Barrier() *BarrierSync { return c.bar }

// State walks the barrier synchronizer of a fixed core count.
func (b *BarrierSync) State(s ckptio.State) {
	if !s.GeometryInt(len(b.reached), "barrier sync cores") {
		return
	}
	for i := range b.reached {
		s.I64(&b.reached[i])
	}
}

// State walks the core's complete mutable state: the full ROB ring
// (including slots outside head..tail, so stale refs in the ready queue and
// completion calendar behave identically after restore), the frontend,
// execution queues, write buffer, pin bookkeeping, and the workload
// generator's position. It fails if the workload generator does not support
// checkpointing. Loading restores a core built from the same
// configuration, policy and workload: derived state (the head slot, the
// load-queue candidate lists, the calendar occupancy mask) is rebuilt from
// the restored fields, and the core starts awake.
func (c *Core) State(s ckptio.State) {
	gen, ok := c.gen.(ckptio.Walker)
	if !ok {
		s.Failf("workload generator %T is not checkpointable", c.gen)
		return
	}
	if s.Loading() {
		c.wake()
	}

	ckptio.Ticking(s, &c.now)
	if !s.GeometryInt(len(c.entries), "ROB entries") {
		return
	}
	for i := range c.entries {
		c.entries[i].walk(s)
	}
	s.I64(&c.head)
	s.I64(&c.tail)
	if s.Loading() && s.Err() == nil &&
		(c.head < 0 || c.tail < c.head || c.tail-c.head > int64(len(c.entries))) {
		s.Failf("ROB window [%d, %d) does not fit %d entries", c.head, c.tail, len(c.entries))
	}
	if s.Err() != nil {
		return
	}
	s.Int(&c.loadsInROB)
	s.Int(&c.storesInROB)
	c.fences.walk(s, c.head, c.tail)
	c.loadSeqs.walk(s, c.head, c.tail)
	c.storeSeqs.walk(s, c.head, c.tail)
	if s.Err() != nil {
		return
	}
	if s.Loading() {
		c.headSlot = int(c.head % int64(len(c.entries)))
		c.rebuildCandidates()
	}

	ckptio.Slice(s, &c.window, maxWindow)
	for i := range c.window {
		s.Inst(&c.window[i])
	}
	s.I64(&c.windowBase)
	s.I64(&c.fetchPtr)
	s.Bool(&c.wrongMode)
	s.I64(&c.stallUntil)
	s.Bool(&c.halted)
	s.I64(&c.haltCycle)

	walkRefs(s, &c.readyQ)
	for i := range c.calendar {
		walkRefs(s, &c.calendar[i])
	}
	if s.Loading() {
		c.calMask = 0
		for i := range c.calendar {
			if len(c.calendar[i]) > 0 {
				c.calMask |= 1 << uint(i)
			}
		}
	}
	s.U64(&c.genNext)
	s.I64(&c.retired)
	s.I64(&c.barriersHit)

	ckptio.Queue(s, &c.wb, maxSeqList, ckptio.State.U64)
	if s.Loading() {
		c.rebuildStoreFilter()
	}

	tokens := ckptio.WalkTable[int64](s, &c.tokenSeq, maxTableEnts)
	for tokens.Next() {
		s.I64(&tokens.Key)
		s.I64(&tokens.Val)
	}
	s.I64(&c.nextToken)
	ckptio.Slice(s, &c.lqPerformed, maxSeqList)
	for i := range c.lqPerformed {
		s.I64(&c.lqPerformed[i])
	}

	pinned := ckptio.WalkTable[uint64](s, &c.pinnedRef, maxTableEnts)
	for pinned.Next() {
		s.U64(&pinned.Key)
		s.Int(&pinned.Val)
	}
	s.I64(&c.pinFrontier)

	if s.Present(c.l1CST != nil, "CST") {
		c.l1CST.State(s)
		c.dirCST.State(s)
	}
	if s.Present(c.cpt != nil, "CPT") {
		c.cpt.State(s)
	}

	s.U64(&c.lqTagNext)
	tags := ckptio.WalkTable[uint32](s, &c.tagToSeq, maxTableEnts)
	for tags.Next() {
		s.U32(&tags.Key)
		s.I64(&tags.Val)
	}
	s.Bool(&c.wrapStall)

	ckptio.Slice(s, &c.pinsPerL1Set, maxSeqList)
	for i := range c.pinsPerL1Set {
		s.I32(&c.pinsPerL1Set[i])
	}
	ckptio.Slice(s, &c.pinsPerDirSet, maxSeqList)
	for i := range c.pinsPerDirSet {
		s.I32(&c.pinsPerDirSet[i])
	}

	s.I64(&c.vpFrontier)
	s.I64(&c.pinVPFrontier)
	s.I64(&c.pinPendingSeq)
	s.I64(&c.oldestLoadSeq)
	s.I64(&c.target)
	s.I64(&c.doneCycle)
	s.I64(&c.lastRetiredWin)

	gen.State(s)
}
