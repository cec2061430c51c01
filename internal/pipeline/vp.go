package pipeline

import (
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/pin"
)

// mcvSafeNow reports whether the load can no longer be squashed by a memory
// consistency violation: it is pinned, or it has been the oldest load in the
// ROB (pinSafe; the aggressive TSO implementation, paper Sections 2 and
// 3.3). Under relaxed consistency load→load order is not enforced, so no
// load can suffer an MCV squash.
func (c *Core) mcvSafeNow(e *entry) bool {
	return c.policy.Consistency == defense.RC || e.pinned || e.pinSafe
}

// frontierPass reports whether the VP frontier may advance past e under the
// given condition mask: e can no longer squash younger instructions for any
// reason the mask covers.
func (c *Core) frontierPass(e *entry, mask defense.Cond) bool {
	switch e.inst.Op {
	case isa.Branch:
		if mask.Has(defense.CondCtrl) && !e.resolved {
			return false
		}
	case isa.Store:
		if mask.Has(defense.CondAlias|defense.CondException) && !e.addrReady {
			return false
		}
		if mask.Has(defense.CondException) && e.inst.Fault {
			return false
		}
	case isa.Load:
		if mask.Has(defense.CondException) && (!e.addrReady || e.inst.Fault) {
			return false
		}
		if mask.Has(defense.CondMCV) && !c.mcvSafeNow(e) {
			return false
		}
	case isa.Fence, isa.Lock, isa.Barrier:
		// Serializing operations hold the frontier until they retire.
		return false
	}
	return true
}

// advanceVP marks the oldest load MCV-safe and advances the VP frontiers.
func (c *Core) advanceVP() {
	if loads := c.loadSeqs.seqs(); len(loads) > 0 {
		// The oldest load can never be squashed by an invalidation or
		// eviction; the property is sticky because loads retire in order.
		if e := c.at(loads[0]); !e.pinSafe {
			e.pinSafe = true
			c.active = true
		}
	}
	// Frontiers can fall behind the head when the entry blocking them
	// retires; instructions that left the ROB trivially pass.
	oldVP := c.vpFrontier
	if c.vpFrontier < c.head {
		c.vpFrontier = c.head
	}
	mask := c.policy.VPConds()
	for c.vpFrontier < c.tail && c.frontierPass(c.at(c.vpFrontier), mask) {
		c.vpFrontier++
	}
	if c.tracing && c.vpFrontier != oldVP {
		c.rec.Record(obs.Event{Cycle: c.now, Core: int16(c.id), Kind: obs.KindVPAdvance,
			Seq: oldVP, Arg: c.vpFrontier})
	}
	if c.policy.Pinning() {
		if c.pinVPFrontier < c.head {
			c.pinVPFrontier = c.head
		}
		pinMask := mask &^ defense.CondMCV
		for c.pinVPFrontier < c.tail && c.frontierPass(c.at(c.pinVPFrontier), pinMask) {
			c.pinVPFrontier++
		}
	}
}

// reachedVP reports (and caches) whether a load has reached its Visibility
// Point under the active policy: every older instruction has passed the
// frontier and the load's own conditions hold.
func (c *Core) reachedVP(e *entry) bool {
	if e.vpReached {
		return true
	}
	if c.vpFrontier < e.seq {
		return false
	}
	mask := c.policy.VPConds()
	if mask.Has(defense.CondException) && (!e.addrReady || e.inst.Fault) {
		return false
	}
	if mask.Has(defense.CondMCV) && e.isLoad() && !c.mcvSafeNow(e) {
		return false
	}
	e.vpReached = true
	c.active = true
	return true
}

// comprehensivelySafe reports whether every instruction older than seq has
// passed the full Comprehensive-model condition set: no older branch,
// store-address, exception, or memory-consistency squash source remains.
// It is independent of the active policy: it asks whether the machine is
// still inside a speculative window in which seq could be squashed, which
// decides whether a load's TransientAddr (transiently forwarded secret) or
// its architectural Addr takes effect. It is independent of the active
// policy but not of the machine's consistency model: under RC no
// memory-consistency squash exists, so CondMCV is not a squash source.
func (c *Core) comprehensivelySafe(seq int64) bool {
	mask := defense.CondsComprehensive
	if c.policy.Consistency == defense.RC {
		mask &^= defense.CondMCV
	}
	for s := c.head; s < seq; s++ {
		if !c.frontierPass(c.at(s), mask) {
			return false
		}
	}
	return true
}

// tainted reports whether the entry's value (for loads: address operands)
// transitively depends on a load that has not yet reached its VP — the STT
// taint condition. The youngest-root optimization is sound because the VP
// passes to younger loads in program order.
func (c *Core) tainted(e *entry) bool {
	r := e.yroot
	if r < 0 || r < c.head {
		return false
	}
	return !c.reachedVP(c.at(r))
}

// pinGovernor pins loads in strict program order (paper Section 5.2) when
// they have met every VP condition except MCV safety, the write buffer can
// absorb all older stores, the line is not in the CPT, and — for Early
// Pinning — the CSTs guarantee cache and directory space.
func (c *Core) pinGovernor() {
	c.pinPendingSeq = -1
	if !c.policy.Pinning() {
		return
	}
	if c.wrapStall {
		// LQ ID tag wraparound: wait for all pinned loads to retire,
		// then clear the CSTs and resume (paper Section 6.2).
		if c.pinnedLines.Len() > 0 {
			return
		}
		if c.l1CST != nil {
			c.l1CST.Clear()
			c.dirCST.Clear()
		}
		c.wrapStall = false
		c.active = true
	}
	if !c.cpt.CanPin() {
		c.charge(c.cnt.pinStallCPTFull)
		return
	}
	if c.pinFrontier < c.head {
		c.pinFrontier = c.head
	}
	for {
		// Advance past non-loads and already-safe loads.
		for c.pinFrontier < c.tail {
			e := c.at(c.pinFrontier)
			if e.isLoad() && !e.pinned && !e.pinSafe {
				break
			}
			if e.inst.Op == isa.Fence || e.inst.Op == isa.Lock || e.inst.Op == isa.Barrier {
				// Never pin loads younger than an in-ROB fence or
				// atomic (paper Section 5).
				return
			}
			c.pinFrontier++
		}
		if c.pinFrontier >= c.tail {
			return
		}
		e := c.at(c.pinFrontier)
		// All VP conditions except MCV must hold for this load.
		if c.pinVPFrontier < e.seq || !e.addrReady || e.inst.Fault {
			return
		}
		// Pin admission consumes the line address; resolve it first. At
		// this point every older load is pinned or MCV-safe, so the
		// architectural address always wins here.
		c.effectiveAddr(e)
		// Write-buffer deadlock check (paper Section 5.1.2): every
		// yet-to-complete older store must fit in the write buffer.
		if c.olderUndrainedStores(e.seq) > c.cfg.WriteBufferEntries {
			c.charge(c.cnt.pinStallWB)
			return
		}
		if c.cpt.Contains(e.line) {
			c.charge(c.cnt.pinStallCPT)
			return
		}
		if c.policy.Variant == defense.LP {
			if !e.performed {
				// Late Pinning issues the load and pins it when the
				// data arrives; meanwhile it may issue to memory.
				c.pinPendingSeq = e.seq
				return
			}
			if !c.l1SetRoom(e.line) {
				c.charge(c.cnt.pinStallL1Set)
				return
			}
			c.commitPin(e)
			continue
		}
		// Early Pinning: consult the Cache Shadow Tables.
		if !c.cstAdmit(e) {
			c.charge(c.cnt.pinStallCST)
			return
		}
		c.commitPin(e)
	}
}

// olderUndrainedStores counts stores older than seq that have not yet
// merged into the cache: write-buffer occupants plus in-ROB stores.
// storeSeqs is sorted in program order, so the scan stops at the first
// younger store.
func (c *Core) olderUndrainedStores(seq int64) int {
	n := c.wb.Len()
	for _, s := range c.storeSeqs.seqs() {
		if s >= seq {
			break
		}
		n++
	}
	return n
}

// cstAdmit checks both CSTs (or the precise trackers when InfiniteCST is
// set) for room to pin e's line.
func (c *Core) cstAdmit(e *entry) bool {
	line := e.line
	if c.l1CST != nil {
		// Every TryPin counts an attempt and may expunge or insert a record,
		// even when it denies the pin.
		c.active = true
	}
	if c.pins(line) > 0 {
		// The line is already pinned by an older load: space is already
		// guaranteed; the CST merely updates the youngest LQ ID.
		if c.l1CST != nil {
			tag := c.peekTag()
			c.l1CST.TryPin(line, c.l1Key(line), tag, c.tagLive, true)
			c.dirCST.TryPin(line, c.dirKey(line), tag, c.tagLive, true)
		}
		return true
	}
	l1Lines, dirLines := c.pinnedInSets(line, true)
	l1Room, dirRoom := l1Lines < c.cfg.L1Ways-1, dirLines < c.cfg.Wd
	if c.l1CST == nil {
		// Infinite (perfectly precise) CST mode.
		return l1Room && dirRoom
	}
	tag := c.peekTag()
	if c.dirCST.TryPin(line, c.dirKey(line), tag, c.tagLive, dirRoom) != pin.PinOK {
		return false
	}
	if c.l1CST.TryPin(line, c.l1Key(line), tag, c.tagLive, l1Room) != pin.PinOK {
		// The dir CST record just inserted references a tag that never
		// commits; it is expunged lazily like any stale record.
		return false
	}
	return l1Room && dirRoom
}

// l1SetRoom reports whether Late Pinning may pin line in its L1 set. One
// way per set is never pinnable: if every way could hold a pinned line, an
// older buffered store whose line maps to the set could never merge, and —
// because a full write buffer stalls retirement — the younger pinned loads
// protecting those ways would never retire either. Reserving a way breaks
// that same-core circular wait (a refinement of paper Section 5.1.2's
// resource guarantee), so a set holds at most L1Ways-1 pinned lines; Early
// Pinning holds it to the same bound in cstAdmit, and a directory set to
// its per-core reservation Wd (paper Section 5.1.4). A line that is
// already pinned needs no new way.
func (c *Core) l1SetRoom(line uint64) bool {
	if c.pins(line) > 0 {
		return true
	}
	l1Lines, _ := c.pinnedInSets(line, false)
	return l1Lines < c.cfg.L1Ways-1
}

// pinnedInSets counts the distinct pinned lines in line's L1 set and, when
// dir is set, in its directory set, for a line that is not pinned yet. It
// walks pinnedLines, the load queue's pinned record: at most LQEntries
// lines, a handful of distinct ones (DESIGN.md §9). A line several loads
// pinned counts once, at its oldest load.
func (c *Core) pinnedInSets(line uint64, dir bool) (l1Lines, dirLines int) {
	l1Key, dirKey := c.l1Key(line), uint32(0)
	if dir {
		dirKey = c.dirKey(line)
	}
	for i := range c.pinnedLines.Len() {
		p := c.pinnedLines.At(i)
		inL1, inDir := c.l1Key(p) == l1Key, dir && c.dirKey(p) == dirKey
		if !inL1 && !inDir || c.pinnedEarlier(p, i) {
			continue
		}
		if inL1 {
			l1Lines++
		}
		if inDir {
			dirLines++
		}
	}
	return l1Lines, dirLines
}

// pinnedEarlier reports whether a load older than the ith pinned one
// pinned line.
func (c *Core) pinnedEarlier(line uint64, i int) bool {
	for j := range i {
		if c.pinnedLines.At(j) == line {
			return true
		}
	}
	return false
}

// l1Key and dirKey produce the CST entry hash keys.
func (c *Core) l1Key(line uint64) uint32 { return uint32(c.cfg.L1Set(line)) }
func (c *Core) dirKey(line uint64) uint32 {
	return uint32(c.cfg.LLCSlice(line)*c.cfg.LLCSets + c.cfg.LLCSet(line))
}

// peekTag returns the LQ ID tag the next pin will use.
func (c *Core) peekTag() uint32 { return uint32(c.lqTagNext) & c.lqTagMask }

// tagLive reports whether an extended LQ ID names a currently pinned load;
// the CST uses it to expunge stale records. Loads pin in program order,
// retire in order and are never squashed, so the pinned ones hold the last
// pinnedLines.Len() IDs issued.
func (c *Core) tagLive(tag uint32) bool {
	return (uint32(c.lqTagNext)-1-tag)&c.lqTagMask < uint32(c.pinnedLines.Len())
}

// commitPin marks the load pinned and advances the pin frontier. The
// pinned-line record is the LQ's (paper Section 6.1.1), so pinning costs no
// L1 port.
func (c *Core) commitPin(e *entry) {
	c.active = true
	e.pinned = true
	e.lqTag = c.peekTag()
	c.lqTagNext++
	if uint32(c.lqTagNext)&c.lqTagMask == 0 {
		// The extended tag space wrapped: stop pinning until all pinned
		// loads retire (rare with 24-bit tags).
		c.wrapStall = true
		*c.cnt.pinWraparound++
	}
	if c.pinnedLines.Len() == c.cfg.LQEntries {
		c.fail("pinning seq %d: more pinned loads than a %d-entry load queue holds", e.seq, c.cfg.LQEntries)
	}
	c.pinnedLines.Push(e.line)
	c.pinFrontier = e.seq + 1
	*c.cnt.pinPinned++
	if c.tracing {
		c.rec.Record(obs.Event{Cycle: c.now, Core: int16(c.id), Kind: obs.KindPin,
			Seq: e.seq, Line: e.line})
	}
}

// unpin releases a pinned load's record at retirement: the oldest pinned
// load retires first, so its line is the front of pinnedLines.
func (c *Core) unpin(e *entry) {
	if c.pinnedLines.Len() == 0 || c.pinnedLines.Pop() != e.line {
		c.fail("retiring pinned seq %d of line %#x, not the oldest pinned load", e.seq, e.line)
	}
	if c.tracing {
		last := int64(0)
		if c.pins(e.line) == 0 {
			last = 1
		}
		c.rec.Record(obs.Event{Cycle: c.now, Core: int16(c.id), Kind: obs.KindUnpin,
			Seq: e.seq, Line: e.line, Arg: last})
	}
}
