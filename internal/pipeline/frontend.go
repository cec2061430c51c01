package pipeline

import (
	"pinnedloads/internal/arch"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/obs"
)

// windowAt returns the correct-path instruction with the given stream
// index, generating forward as needed. The pointer is into the window: it is
// good until the window next grows or is pruned.
func (c *Core) windowAt(idx int64) *isa.Inst {
	for int64(len(c.window))+c.windowBase <= idx {
		c.window = append(c.window, c.gen.Next())
	}
	return &c.window[idx-c.windowBase]
}

// pruneWindow drops retired correct-path instructions from the window.
func (c *Core) pruneWindow(retiredIdx int64) {
	drop := retiredIdx - c.windowBase
	if drop <= 0 {
		return
	}
	// Amortize the copy: only compact once a chunk has accumulated.
	if drop < 64 && int64(len(c.window)) > drop {
		return
	}
	if drop > int64(len(c.window)) {
		drop = int64(len(c.window))
	}
	c.window = append(c.window[:0], c.window[drop:]...)
	c.windowBase += drop
}

// dispatch moves up to IssueWidth instructions into the ROB.
func (c *Core) dispatch() {
	if c.now < c.stallUntil || c.halted {
		return
	}
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.tail-c.head >= int64(len(c.entries)) {
			c.charge(c.cnt.stallROBFull)
			return
		}
		var in *isa.Inst
		winIdx := int64(-1)
		if c.wrongMode {
			// Consumes the generator's wrong-path stream even if the
			// instruction then finds no LQ/SQ entry and is dropped.
			c.active = true
			wrong := c.gen.WrongPath()
			in = &wrong
		} else {
			in = c.windowAt(c.fetchPtr)
			if in.Op == isa.Halt {
				c.halted = true
				c.active = true
				return
			}
			winIdx = c.fetchPtr
		}
		switch in.Op {
		case isa.Load, isa.Lock:
			if c.loadsInROB >= c.cfg.LQEntries {
				c.charge(c.cnt.stallLQFull)
				return
			}
		case isa.Store:
			if len(c.storeSeqs.seqs()) >= c.cfg.SQEntries {
				c.charge(c.cnt.stallSQFull)
				return
			}
		}
		c.insert(in, winIdx)
		if !c.wrongMode {
			c.fetchPtr++
		}
		if in.Op == isa.Branch && !c.wrongMode && in.Mispredict {
			// The frontend follows the wrong path until this branch
			// resolves and redirects.
			c.wrongMode = true
		}
		if in.Op == isa.Branch && in.Taken {
			// A taken branch ends the fetch group: the frontend cannot
			// fetch past a redirection within one cycle.
			return
		}
	}
}

// insert allocates and initializes a ROB entry for in. The slot is reset in
// place, field by field after one clear: a literal assigned to it would be
// built whole on the stack and then copied in.
func (c *Core) insert(in *isa.Inst, winIdx int64) {
	seq := c.tail
	c.tail++
	c.genNext++
	e := c.at(seq)
	wake := e.wake[:0] // reuse the slice backing across generations
	*e = entry{}
	e.inst = *in
	e.seq, e.gen, e.winIdx, e.wrong, e.yroot, e.wake = seq, c.genNext, winIdx, winIdx < 0, -1, wake
	*c.cnt.dispatched++

	switch in.Op {
	case isa.Load:
		c.loadsInROB++
		c.loadSeqs.push(seq)
		e.line = arch.LineAddr(in.Addr)
		e.archAddr = in.Addr
		if in.Fault || in.TransientAddr != 0 {
			c.lastOdd = seq
		}
	case isa.Lock:
		c.loadsInROB++
		c.fences.push(seq)
		e.line = arch.LineAddr(in.Addr)
	case isa.Store:
		c.storeSeqs.push(seq)
		e.line = arch.LineAddr(in.Addr)
	case isa.Fence, isa.Barrier:
		c.fences.push(seq)
	}

	// Resolve data dependences and compute the STT taint root (the
	// youngest load ancestor; see vp.go).
	for _, d := range in.Deps {
		if d <= 0 {
			continue
		}
		p := seq - int64(d)
		if p < c.head || p >= seq {
			continue // producer retired (or out of reach): value ready
		}
		pe := c.at(p)
		if pe.yroot > e.yroot {
			e.yroot = pe.yroot
		}
		if pe.isLoad() && pe.seq > e.yroot {
			e.yroot = pe.seq
		}
		if pe.state != stDone {
			pe.wake = append(pe.wake, ref{seq: seq, gen: e.gen})
			e.depsLeft++
		}
	}

	switch in.Op {
	case isa.Nop, isa.Fence, isa.Barrier:
		// No execution needed; retirement logic provides semantics.
		e.state = stDone
	case isa.Lock:
		// The RMW is performed at the head of the ROB (see retire).
		e.state = stDone
		e.addrReady = true
	default:
		if e.depsLeft == 0 {
			e.state = stReady
			c.readyQ = append(c.readyQ, ref{seq: seq, gen: e.gen})
		}
	}
}

// squashFrom removes entries [from, tail) from the ROB, redirects the
// frontend to refetch, and applies the redirect penalty.
func (c *Core) squashFrom(from int64, cause obs.Cause) {
	if from >= c.tail {
		return
	}
	if from < c.head {
		c.fail("squash before head (%d < %d)", from, c.head)
	}
	*c.cnt.squash[cause]++
	*c.cnt.squashedInsts += uint64(c.tail - from)
	if c.tracing {
		c.rec.Record(obs.Event{Cycle: c.now, Core: int16(c.id), Kind: obs.KindSquash,
			Seq: from, Arg: c.tail - from, Cause: cause})
	}

	refetch := int64(-1) // correct-path stream index to resume from
	for s := from; s < c.tail; s++ {
		e := c.at(s)
		if e.pinned {
			c.fail("squashing pinned load seq=%d cause=%s", s, cause)
		}
		switch e.inst.Op {
		case isa.Load, isa.Lock:
			c.loadsInROB--
		case isa.Store:
			if e.addrReady {
				c.stFilter[stHash(e.inst.Addr)]--
			}
		}
		if e.specToken != 0 {
			// Reverse the load's journaled cache/directory state (RCP).
			c.l1.SpecAbandon(e.specToken)
			e.specToken = 0
		}
		if !e.wrong && refetch < 0 {
			refetch = e.winIdx
		}
		e.state = stWaiting // neutralize stale calendar/ready references
		e.token = 0
	}
	// Trim bookkeeping lists of squashed seqs: the refetch reuses them.
	for _, l := range [...]*seqList{&c.fences, &c.loadSeqs, &c.storeSeqs,
		&c.issueCand, &c.exposeCand, &c.specCand} {
		l.truncate(from)
	}
	c.tail = from
	if c.vpFrontier > from {
		c.vpFrontier = from
	}
	if c.pinVPFrontier > from {
		c.pinVPFrontier = from
	}
	if c.pinFrontier > from {
		c.pinFrontier = from
	}

	// Redirect the frontend.
	c.wrongMode = false
	if refetch >= 0 {
		c.fetchPtr = refetch
	}
	c.stallUntil = c.now + int64(c.cfg.FetchRedirectCycles)
}
