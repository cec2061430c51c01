package pipeline

import (
	"pinnedloads/internal/isa"
	"pinnedloads/internal/obs"
)

// faultFlushPenalty is the extra frontend stall after taking an exception.
const faultFlushPenalty = 30

// retire commits up to IssueWidth instructions from the head of the ROB and
// returns the cycle's cause (Causes): stall.base if it retired any, else
// what holds the head, a held load's wait being its gate's (DESIGN.md §9).
func (c *Core) retire() *uint64 {
	retiredIdx := int64(-1)
	startHead := c.head
	cause := c.cnt.stallFrontend
	for n := 0; n < c.cfg.IssueWidth && c.head < c.tail; n++ {
		e := c.at(c.head)
		if h := c.blocker(e); h != nil {
			cause = h
			break
		}
		// Commit.
		switch e.inst.Op {
		case isa.Load:
			c.loadsInROB--
			c.retireFrom(&c.loadSeqs, e)
			// A faulting load retires from stAddrDone, an RCP load with
			// its validated access still journaled.
			c.issueCand.dropFront(e.seq)
			c.specCand.dropFront(e.seq)
			if e.pinned {
				c.unpin(e)
			}
			e.token = 0
			if e.specToken != 0 {
				// Finalize the reversible access: the deferred LRU updates
				// happen now that the load is architectural (RCP).
				c.l1.SpecCommit(e.specToken)
				e.specToken = 0
			}
		case isa.Store:
			c.retireFrom(&c.storeSeqs, e)
		case isa.Lock:
			c.loadsInROB--
			c.retireFrom(&c.fences, e)
		case isa.Fence, isa.Barrier:
			c.retireFrom(&c.fences, e)
		}
		if e.wrong {
			c.fail("retiring wrong-path entry seq=%d", e.seq)
		}
		if e.winIdx != c.lastRetiredWin+1 {
			c.fail("retirement gap: winIdx %d after %d (op %v)", e.winIdx, c.lastRetiredWin, e.inst.Op)
		}
		c.lastRetiredWin = e.winIdx
		if e.winIdx >= 0 {
			retiredIdx = e.winIdx + 1
		}
		c.head++
		if c.headSlot++; c.headSlot == len(c.entries) {
			c.headSlot = 0
		}
		c.retired++
		*c.cnt.retired++
	}
	if retiredIdx >= 0 {
		c.pruneWindow(retiredIdx)
	}
	if c.head > startHead {
		cause = c.cnt.stallBase
		if c.tracing {
			c.rec.Record(obs.Event{Cycle: c.now, Core: int16(c.id), Kind: obs.KindRetire,
				Seq: c.head, Arg: c.head - startHead})
		}
	}
	return cause
}

// blocker does the head's work at commit — a fault's flush, a store's
// write-buffer push, a barrier's arrival, a lock's read-modify-write — and
// returns the cause that keeps it from committing, nil if it commits.
func (c *Core) blocker(e *entry) *uint64 {
	switch e.inst.Op {
	case isa.Load:
		if e.inst.Fault && e.addrReady {
			// Precise exception at the head: flush younger work, charge the
			// handler penalty, and continue past the faulting instruction
			// as if the OS repaired it.
			*c.cnt.squashFaultTkn++
			c.squashFrom(c.head+1, obs.CauseFault)
			c.stallUntil = c.now + faultFlushPenalty
			return nil
		}
		if !e.performed && e.held {
			return c.cnt.stallHeld
		}
		if !e.performed {
			return c.cnt.stallRetireLoad
		}
		if e.invisible && !e.exposeDone {
			// An invisibly performed load must complete its exposure
			// access before it may retire (InvisiSpec semantics).
			return c.cnt.stallRetireExpose
		}
		if e.specToken != 0 && e.inst.TransientAddr != 0 {
			// A reversibly performed load (RCP) validates its address at
			// the commit point: every older squash source is gone here, so
			// effectiveAddr resolves architecturally. If the speculative
			// access went to a transiently forwarded address instead,
			// reverse the journaled state and re-issue before committing —
			// otherwise the wrong line's install would be finalized. The
			// mid-window squash case is handled by squashFrom; this catches
			// windows that close benignly within one retire sweep, before
			// validateSpecLoads can observe them.
			if c.misspeculatedAddr(e) {
				c.specCand.dropFront(e.seq)
				return c.cnt.stallRetireLoad
			}
		}
	case isa.Store:
		if e.state != stDone {
			return c.cnt.stallExec
		}
		if e.inst.Fault {
			*c.cnt.squashFaultTkn++
			c.squashFrom(c.head+1, obs.CauseFault)
			c.stallUntil = c.now + faultFlushPenalty
			c.stFilter[stHash(e.inst.Addr)]-- // leaves the SQ for nowhere
			return nil
		}
		if c.wb.Len() >= c.cfg.WriteBufferEntries {
			return c.cnt.stallWBFull
		}
		c.wb.Push(e.inst.Addr)
	case isa.Fence:
		if c.wb.Len() > 0 {
			return c.cnt.stallWBDrain
		}
	case isa.Barrier:
		if c.wb.Len() > 0 {
			return c.cnt.stallWBDrain
		}
		if c.bar != nil && !c.bar.arrive(c.id, c.barriersHit+1) {
			return c.cnt.stallBarrier
		}
		c.barriersHit++
	case isa.Lock:
		// The atomic read-modify-write executes at the head, after the
		// write buffer drains, holding the ROB until the line is owned and
		// the RMW merges.
		if !e.performed {
			if c.wb.Len() > 0 {
				return c.cnt.stallWBDrain
			}
			// The RMW attempt touches the line's replacement state or
			// (re)starts an ownership transaction.
			c.active = true
			e.lockIssued = true
			if !c.l1.MergeStore(e.line) {
				c.l1.Acquire(e.line)
				return c.cnt.stallLock
			}
			e.performed = true
		}
	default:
		if e.state != stDone {
			return c.cnt.stallExec
		}
	}
	return nil
}

// retireFrom takes the retiring instruction off the bookkeeping list of its
// kind, where it must be the oldest.
func (c *Core) retireFrom(l *seqList, e *entry) {
	if !l.dropFront(e.seq) {
		c.fail("retiring %v seq=%d is not the oldest of its kind in flight", e.inst.Op, e.seq)
	}
}
