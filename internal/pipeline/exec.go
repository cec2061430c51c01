package pipeline

import (
	"pinnedloads/internal/arch"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/obs"
)

// deref resolves a ref to its live entry, or nil if the generation was
// squashed (or the slot refetched by a different instruction).
func (c *Core) deref(r ref) *entry {
	if !c.valid(r.seq) {
		return nil
	}
	e := c.at(r.seq)
	if e.gen != r.gen {
		return nil
	}
	return e
}

// Functional-unit issue capacities per cycle (within the total width).
const (
	intUnits = 4
	fpUnits  = 2
	agUnits  = 3 // address-generation units (matches the L1 port count)
)

// execute starts up to IssueWidth ready instructions, bounded by the
// functional-unit capacities.
func (c *Core) execute() {
	issued, intUsed, fpUsed, agUsed := 0, 0, 0, 0
	q := c.readyQ
	if len(q) > 0 {
		c.active = true // entries start executing or stale refs drop out
	}
	c.readyQ = c.readyQ[:0]
	for i, r := range q {
		if issued >= c.cfg.IssueWidth {
			c.readyQ = append(c.readyQ, q[i:]...)
			break
		}
		e := c.deref(r)
		if e == nil || e.state != stReady {
			continue
		}
		switch e.inst.Op {
		case isa.FALU:
			if fpUsed >= fpUnits {
				c.readyQ = append(c.readyQ, r)
				continue
			}
			fpUsed++
		case isa.Load, isa.Store:
			if agUsed >= agUnits {
				c.readyQ = append(c.readyQ, r)
				continue
			}
			agUsed++
		default:
			if intUsed >= intUnits {
				c.readyQ = append(c.readyQ, r)
				continue
			}
			intUsed++
		}
		issued++
		e.state = stExec
		lat := int64(e.inst.Lat)
		if lat < 1 {
			lat = 1
		}
		switch e.inst.Op {
		case isa.Branch:
			lat = 1
		case isa.Load, isa.Store:
			// Address generation plus LSQ scheduling. Under the safe
			// schemes this overlaps the wait for the Visibility Point;
			// on the unsafe baseline it is part of the load-to-use path.
			lat = 2
		}
		c.schedule(r, lat)
	}
}

// schedule enqueues a completion event lat cycles from now.
func (c *Core) schedule(r ref, lat int64) {
	if lat < 1 || lat >= int64(len(c.calendar)) {
		c.fail("bad completion latency %d", lat)
	}
	slot := (c.now + lat) & calSlotMask
	c.calendar[slot] = append(c.calendar[slot], r)
	c.calMask |= 1 << uint(slot)
}

// complete processes this cycle's completion events: execution results,
// branch resolution, and load address generation.
func (c *Core) complete() {
	slot := c.now & calSlotMask
	events := c.calendar[slot]
	c.calendar[slot] = c.calendar[slot][:0]
	c.calMask &^= 1 << uint(slot)
	for _, r := range events {
		e := c.deref(r)
		if e == nil || e.state != stExec {
			continue
		}
		switch e.inst.Op {
		case isa.Load:
			// Address generation complete; the load now waits for the
			// policy to let it access memory (issueLoads).
			e.addrReady = true
			c.awaitIssue(e)
			c.effectiveAddr(e)
		case isa.Store:
			e.addrReady = true
			c.stFilter[stHash(e.inst.Addr)]++
			c.finish(e)
			c.aliasCheck(e)
		case isa.Branch:
			e.resolved = true
			winIdx := e.winIdx
			mispredict := e.inst.Mispredict && !e.wrong
			c.finish(e)
			if mispredict {
				// Squash the wrong path (if any was dispatched) and
				// redirect the frontend to the fall-through stream.
				// The redirect must happen even when resolution beat
				// the first wrong-path dispatch.
				c.squashFrom(e.seq+1, obs.CauseBranch)
				c.wrongMode = false
				c.fetchPtr = winIdx + 1
				c.stallUntil = c.now + int64(c.cfg.FetchRedirectCycles)
			}
		default:
			c.finish(e)
		}
	}
}

// effectiveAddr resolves a load's effective address when its operands carry
// transiently forwarded data (inst.TransientAddr != 0): inside a still-open
// speculative window the secret-dependent transient address is live; once
// every older squash source under the full Comprehensive condition set has
// resolved, the operands hold their architectural values and the load uses
// inst's original address. The choice is re-evaluated at every point the
// address is consumed before the load's (visible) memory access — address
// generation, each issue attempt, pin admission, and the IS exposure — so a
// defense that delays the access past the window never touches the secret
// address, while an unprotected issue inside the window does.
func (c *Core) effectiveAddr(e *entry) {
	if e.inst.TransientAddr == 0 || !e.addrReady {
		return
	}
	addr := e.archAddr
	if !c.comprehensivelySafe(e.seq) {
		addr = e.inst.TransientAddr
	}
	if e.inst.Addr != addr {
		e.inst.Addr = addr
		e.line = arch.LineAddr(addr)
		if e.performed {
			c.perfLines |= lineBit(e.line)
		}
		c.active = true
	}
}

// finish marks an entry done and wakes its consumers.
func (c *Core) finish(e *entry) {
	e.state = stDone
	for _, w := range e.wake {
		we := c.deref(w)
		if we == nil {
			continue
		}
		we.depsLeft--
		if we.depsLeft == 0 && we.state == stWaiting {
			we.state = stReady
			c.readyQ = append(c.readyQ, w)
		}
	}
	e.wake = e.wake[:0]
}

// loadPerformed records that a load has its data: it becomes visible to
// the TSO squash machinery and wakes its consumers.
func (c *Core) loadPerformed(e *entry) {
	if e.performed {
		return
	}
	e.performed = true
	c.perfLines |= lineBit(e.line)
	*c.cnt.loadsPerformed++
	c.finish(e)
}

// aliasCheck runs when a store's address resolves: younger loads that
// already performed against the same address were mis-speculated under
// memory-dependence speculation and must be squashed (they read stale
// data). This is the squash source the VP's Alias condition guards.
func (c *Core) aliasCheck(st *entry) {
	for _, seq := range c.loadSeqs.seqs() {
		if seq <= st.seq {
			continue
		}
		// Any load that performed before this store's address resolved
		// cannot have observed the store's value.
		if e := c.at(seq); e.performed && e.inst.Addr == st.inst.Addr {
			c.squashFrom(seq, obs.CauseAlias)
			return
		}
	}
}

// stHash is the stFilter bucket of a store or load address.
func stHash(addr uint64) uint8 { return uint8(addr * 0x9E3779B97F4A7C15 >> 56) }

// tryForward satisfies a load from an older in-flight store (store queue or
// write buffer) with the same address, bypassing the memory system. It
// reports whether forwarding succeeded. storeSeqs holds exactly the
// unretired stores in program order, so walking it backward visits the
// same stores, youngest first, as a full ROB scan from e.seq-1 down to
// head — without touching the non-store entries in between.
func (c *Core) tryForward(e *entry) bool {
	if c.stFilter[stHash(e.inst.Addr)] == 0 {
		return false // no resolved store in flight has this address
	}
	c.forwardScans++
	stores := c.storeSeqs.seqs()
	for i := len(stores) - 1; i >= 0; i-- {
		s := stores[i]
		if s >= e.seq {
			continue
		}
		se := c.at(s)
		if !se.addrReady {
			// Unknown older store address: conventional cores speculate
			// past it (the alias check recovers if it conflicts).
			continue
		}
		if se.inst.Addr == e.inst.Addr {
			e.forwarded = true
			*c.cnt.loadsForwarded++
			c.loadPerformed(e)
			return true
		}
	}
	// Search the write buffer (TSO lets a core read its own buffer).
	for i := 0; i < c.wb.Len(); i++ {
		if c.wb.At(i) == e.inst.Addr {
			e.forwarded = true
			*c.cnt.loadsForwardedWB++
			c.loadPerformed(e)
			return true
		}
	}
	return false
}
