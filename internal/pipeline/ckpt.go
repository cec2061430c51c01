package pipeline

import (
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/isa"
)

// Decode bounds: every list here is bounded by ROB occupancy, the write
// buffer or the frontend window in a live core; the caps are far above any.
const (
	maxRefs    = 1 << 20
	maxSeqList = 1 << 20
	maxWindow  = 1 << 16
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

// walk walks the ROB entry in slot of a ring of rob entries. A memory token
// is newToken's n·rob + slot, and the slot is the entry's own, so the walk
// writes n alone (walkToken).
func (en *entry) walk(s ckptio.State, slot, rob int) {
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
	walkToken(s, &en.token, slot, rob)
	walkToken(s, &en.specToken, slot, rob)
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

// walkToken walks a memory token of the entry in slot as its access count
// n, and loading rebuilds n·rob + slot; n 0 is no token.
func walkToken(s ckptio.State, t *int64, slot, rob int) {
	n := uint64(*t) / uint64(rob)
	s.U64(&n)
	if s.Loading() {
		*t = 0
		if n != 0 {
			*t = int64(n)*int64(rob) + int64(slot)
		}
	}
}

// rebuild recomputes the core's indexes over the ROB window [head, tail) in
// one pass: the seq lists and the load count, the load-queue candidate lists
// and lastOdd, the store-address filter (the write buffer's addresses too),
// and the pinned lines. It resets Fence's record of new candidates. Loading
// fails on a live slot that does not hold its own seq, on a pinned load under
// a policy that does not pin, and on more pinned loads than the load queue
// holds.
func (c *Core) rebuild(s ckptio.State) {
	for _, l := range [...]*seqList{&c.fences, &c.loadSeqs, &c.storeSeqs,
		&c.issueCand, &c.exposeCand, &c.specCand} {
		l.reset()
	}
	c.loadsInROB = 0
	c.perfLines = ^uint64(0) // every line may have a performed load; OnInvalidate narrows it
	c.stFilter = [len(c.stFilter)]uint16{}
	for i := 0; i < c.wb.Len(); i++ {
		c.stFilter[stHash(c.wb.At(i))]++
	}
	for c.pinnedLines.Len() > 0 {
		c.pinnedLines.Pop()
	}
	c.freshFrom = 0 // lastOdd may now be below the one saved, and with it the gate bound
	c.lastOdd = -1
	for seq := c.head; seq < c.tail; seq++ {
		e := c.at(seq)
		if e.seq != seq {
			s.Failf("ROB slot of seq %d holds seq %d", seq, e.seq)
			return
		}
		switch e.inst.Op {
		case isa.Load:
			c.loadsInROB++
			c.loadSeqs.push(seq)
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
		case isa.Lock:
			c.loadsInROB++
			c.fences.push(seq)
		case isa.Store:
			c.storeSeqs.push(seq)
			if e.addrReady {
				c.stFilter[stHash(e.inst.Addr)]++
			}
		case isa.Fence, isa.Barrier:
			c.fences.push(seq)
		}
		if !e.pinned {
			continue
		}
		if !c.policy.Pinning() {
			s.Failf("seq %d: pinned load under %v, which does not pin", seq, c.policy)
			return
		}
		if c.pinnedLines.Len() == c.cfg.LQEntries {
			s.Failf("seq %d: more pinned loads than a %d-entry load queue holds", seq, c.cfg.LQEntries)
			return
		}
		c.pinnedLines.Push(e.line)
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
// indexes that rebuild recomputes, the calendar occupancy mask) is rebuilt
// from the restored fields, and the core starts awake.
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
		c.entries[i].walk(s, i, len(c.entries))
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
	ckptio.Queue(s, &c.wb, maxSeqList, ckptio.State.U64)
	if s.Loading() {
		c.headSlot = int(c.head % int64(len(c.entries)))
		if c.rebuild(s); s.Err() != nil {
			return
		}
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

	s.I64(&c.nextToken)
	s.I64(&c.pinFrontier)

	if s.Present(c.l1CST != nil, "CST") {
		c.l1CST.State(s)
		c.dirCST.State(s)
	}
	if s.Present(c.cpt != nil, "CPT") {
		c.cpt.State(s)
	}

	s.U64(&c.lqTagNext)
	if s.Loading() && s.Err() == nil {
		if err := c.pinTagsErr(); err != nil {
			s.Failf("%v", err)
			return
		}
	}
	s.Bool(&c.wrapStall)

	s.I64(&c.vpFrontier)
	s.I64(&c.pinVPFrontier)
	s.I64(&c.pinPendingSeq)
	s.I64(&c.target)
	s.I64(&c.doneCycle)
	s.I64(&c.lastRetiredWin)

	gen.State(s)
}
