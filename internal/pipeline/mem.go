package pipeline

import (
	"math"
	"slices"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/coherence"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
)

// issueLoads sends eligible loads to the memory system, applying the active
// defense scheme's gating rule. It visits the loads in stAddrDone, in program
// order, and keeps the ones still waiting. Past Fence's gate bound every load
// would be denied, so the walk stops there and holdPastBound marks the rest
// held without visiting them.
func (c *Core) issueLoads() {
	cand := c.issueCand.seqs()
	bound := c.gate()
	kept, i := 0, 0
	for ; i < len(cand) && cand[i] <= bound; i++ {
		e := c.at(cand[i])
		if !c.issueLoad(e) {
			break // out of L1 ports: every younger candidate waits too
		}
		if e.state == stAddrDone {
			cand[kept] = cand[i]
			kept++
		}
	}
	c.issueCand.compact(kept, i)
	if c.policy.Scheme == defense.Fence && c.freshFrom < math.MaxInt64 {
		c.holdPastBound(bound)
	}
}

// holdPastBound marks held every candidate past Fence's gate bound. A
// candidate stays held once marked, and in a run the bound falls only at a
// squash, which takes every load past it along; so only the candidates from
// the oldest that became one this cycle (freshFrom) on can be new past it.
func (c *Core) holdPastBound(bound int64) {
	cand := c.issueCand.seqs()
	i, _ := slices.BinarySearch(cand, max(bound+1, c.freshFrom))
	for _, seq := range cand[i:] {
		c.hold(c.at(seq))
	}
	c.freshFrom = math.MaxInt64
}

// hold marks e held by the scheme's gate short of its VP: the cycles it then
// keeps the ROB head waiting for its data are the gate's (retire).
func (c *Core) hold(e *entry) {
	if !e.held {
		e.held = true
		c.active = true
	}
}

// gate returns the seq past which Fence denies every load. Above vpFrontier
// no load has vpReached, at or above pinFrontier none is pinned, and lastOdd
// keeps on the walked side every load that faults (denied, but never held)
// or whose address effectiveAddr may move. The other schemes' predicates
// read more than the load's place in program order, so they have no bound.
func (c *Core) gate() int64 {
	if c.policy.Scheme != defense.Fence {
		return math.MaxInt64
	}
	return max(c.vpFrontier, c.pinFrontier-1, c.pinPendingSeq, c.lastOdd)
}

// issueLoad tries to start e's memory access (or satisfy it by store
// forwarding); e leaves stAddrDone when it succeeds. It reports false when
// the L1 ports are exhausted for this cycle.
func (c *Core) issueLoad(e *entry) bool {
	c.effectiveAddr(e)
	mode := c.mayIssueLoad(e)
	if mode == issueDenied {
		return true
	}
	// Past the gate the load forwards, takes a port, or burns a token on a
	// full MSHR file: the cycle is not a fixed point.
	c.active = true
	if c.tryForward(e) {
		c.countPass(mode)
		return true
	}
	if !c.l1.AcquirePort() {
		return false
	}
	token := c.newToken(e)
	var res coherence.LoadResult
	switch mode {
	case issueSpec:
		// RCP-style reversible access: the load issues eagerly pre-VP;
		// every state change is journaled at the L1/directory and is
		// reversed on squash (SpecAbandon) or finalized at retirement
		// (SpecCommit).
		res = c.l1.LoadSpec(token, e.line)
	case issueInvisible:
		// InvisiSpec-style stateless access: data arrives without any
		// cache or directory footprint; an exposure access follows once
		// the load reaches its VP.
		c.l1.LoadInvisible(token, e.line)
	default:
		res = c.l1.Load(token, e.line)
	}
	if res == coherence.LoadBlocked {
		e.token = 0
		return true
	}
	e.state = stIssued
	c.countPass(mode)
	switch mode {
	case issueSpec:
		e.specToken = token
		*c.cnt.loadsIssuedSpec++
	case issueInvisible:
		e.invisible = true
		*c.cnt.loadsIssuedInvisible++
	default:
		*c.cnt.loadsIssued++
	}
	return true
}

// newToken gives e a fresh memory-access token, which names e's ROB slot,
// seq mod ROBEntries.
func (c *Core) newToken(e *entry) int64 {
	c.nextToken++
	e.token = c.nextToken*int64(len(c.entries)) + e.seq%int64(len(c.entries))
	return e.token
}

// issueMode is the outcome of the defense scheme's issue gate.
type issueMode uint8

const (
	issueDenied issueMode = iota
	issueNormal
	issueDOMHit    // a normal access Delay-On-Miss lets through short of the VP
	issueUntainted // a normal access STT lets through short of the VP
	issueInvisible
	issueSpec
)

// countPass counts a load its scheme's predicate let through short of its
// VP, once the load forwards or issues: a load the L1 turns away (no port,
// or LoadBlocked) passes the gate again on its retry.
func (c *Core) countPass(mode issueMode) {
	switch mode {
	case issueDOMHit:
		*c.cnt.loadsDOMHit++
	case issueUntainted:
		*c.cnt.loadsSTTUntainted++
	}
}

// mayIssueLoad applies the defense scheme's issue gate (paper Table 2).
func (c *Core) mayIssueLoad(e *entry) issueMode {
	c.gateVisits++
	if e.inst.Fault {
		// Address translation faulted; the access never issues and the
		// exception is taken at the head of the ROB.
		return issueDenied
	}
	if c.policy.Scheme == defense.Unsafe {
		return issueNormal
	}
	if c.reachedVP(e) {
		return issueNormal
	}
	if e.pinned {
		// An Early-Pinned load is past its VP by construction; an LP
		// load pinned on data arrival is already performed.
		return issueNormal
	}
	if e.seq == c.pinPendingSeq {
		// Late Pinning: the next-in-order pin candidate may issue; it
		// will be pinned when its data arrives (paper Section 5.2.1).
		return issueNormal
	}
	switch c.policy.Scheme {
	case defense.Fence:
		c.hold(e)
		return issueDenied
	case defense.DOM:
		if c.domProbe(e) {
			return issueDOMHit
		}
		c.hold(e)
		return issueDenied
	case defense.STT:
		if !c.tainted(e) {
			return issueUntainted
		}
		c.hold(e)
		return issueDenied
	case defense.IS:
		// Invisible speculation: pre-VP loads may always access memory,
		// but statelessly (paper Section 1's InvisiSpec example).
		return issueInvisible
	case defense.RCP:
		// Reversible coherence: pre-VP loads access memory eagerly and
		// install state normally; the state is journaled and reversed on
		// a squash instead of being delayed or hidden.
		return issueSpec
	}
	return issueDenied
}

// domProbe is l1.Probe(e.line), remembered per load: a load Delay-On-Miss
// denies asks again every cycle, and the answer cannot change until a line
// enters or leaves the L1 (the tag epoch moves) or the load's effective
// address does.
func (c *Core) domProbe(e *entry) bool {
	if ep := c.l1.TagEpoch(); e.probeEpoch != ep || e.probeLine != e.line {
		e.probeEpoch, e.probeLine = ep, e.line
		e.probeHit = c.l1.Probe(e.line)
	}
	return e.probeHit
}

// exposeLoads issues the post-VP exposure access of invisibly performed
// loads: the second access that makes the line architecturally visible and
// installs it in the cache. A load cannot retire before it is exposed.
func (c *Core) exposeLoads() {
	cand := c.exposeCand.seqs()
	kept, i := 0, 0
	// No load beyond the frontier has reached its VP, and the list is in
	// program order: the walk stops at the first one.
	for ; i < len(cand) && cand[i] <= c.vpFrontier; i++ {
		e := c.at(cand[i])
		if c.reachedVP(e) {
			// The exposure is the load's first visible access; it re-reads
			// the address operands, which post-VP hold architectural values.
			c.effectiveAddr(e)
			if !c.l1.AcquirePort() {
				break
			}
			token := c.newToken(e)
			if c.l1.Load(token, e.line) != coherence.LoadBlocked {
				*c.cnt.loadsExposed++
				continue // in flight: LoadDone marks the load exposed
			}
			e.token = 0
		}
		cand[kept] = cand[i]
		kept++
	}
	c.exposeCand.compact(kept, i)
}

// validateSpecLoads re-resolves the effective address of performed
// reversible accesses (RCP) whose operands carried transiently forwarded
// data. While the speculative window is open the access rightly went to
// the transient address; once every older squash source has resolved the
// operands hold architectural values, and a spec access that went
// elsewhere is misspeculated state. A squash would reverse it via
// SpecAbandon — but the window can also close benignly, with no squash,
// and without this pass the wrong line's journaled install would be
// committed at retirement (exactly the leak the mcv kernel constructs).
// The validation reverses the journaled access and re-issues the load to
// its architectural line, the reversible-coherence analog of InvisiSpec's
// post-VP exposure re-reading its operands.
func (c *Core) validateSpecLoads() {
	cand := c.specCand.seqs()
	kept := 0
	for _, seq := range cand {
		e := c.at(seq)
		if e.token == 0 && c.misspeculatedAddr(e) {
			continue
		}
		cand[kept] = seq
		kept++
	}
	c.specCand.compact(kept, len(cand))
}

// misspeculatedAddr re-resolves a reversibly performed load's address. If
// the access went to a line the operands no longer name, it reverses the
// journaled state, returns the load to stAddrDone to re-issue, and reports
// true.
func (c *Core) misspeculatedAddr(e *entry) bool {
	old := e.line
	c.effectiveAddr(e)
	if e.line == old {
		return false
	}
	c.l1.SpecAbandon(e.specToken)
	e.specToken = 0
	e.performed = false
	c.awaitIssue(e)
	*c.cnt.loadsSpecRevalidated++
	return true
}

// rfoLookahead bounds how many write-buffer entries beyond the head may
// have ownership prefetches outstanding.
const rfoLookahead = 6

// drainWriteBuffer merges up to two buffered stores a cycle into the cache,
// overlapping the ownership (RFO) transactions of the entries behind them —
// the standard store-buffer implementation. Under TSO the stores merge in
// FIFO order (store->store), so the drain stops at the first line not yet
// writable; under RC the constraint disappears and the scan passes such
// entries (fences still drain the whole buffer before retiring, which
// preserves release semantics).
func (c *Core) drainWriteBuffer() {
	for i, merged := 0, 0; i < c.wb.Len() && merged < 2; {
		addr := c.wb.At(i)
		line := arch.LineAddr(addr)
		if !c.l1.HasWritable(line) {
			if c.policy.Consistency != defense.RC {
				c.l1.Acquire(line)
				break
			}
			i++
			continue
		}
		if !c.l1.AcquirePort() {
			return
		}
		c.l1.MergeStore(line)
		c.wb.RemoveAt(i)
		c.stFilter[stHash(addr)]--
		merged++
		*c.cnt.storesMerged++
	}
	for i := 0; i < c.wb.Len() && i < rfoLookahead; i++ {
		c.l1.Acquire(arch.LineAddr(c.wb.At(i)))
	}
}

// --- coherence.CoreHooks implementation ---

// PinnedLine reports whether the core has the line pinned; the coherence
// layer consults it before invalidating or evicting (paper Section 6.1.1).
func (c *Core) PinnedLine(line uint64) bool { return c.pins(line) > 0 }

// pins returns how many pinned loads hold the line.
func (c *Core) pins(line uint64) int {
	n := 0
	for i := range c.pinnedLines.Len() {
		if c.pinnedLines.At(i) == line {
			n++
		}
	}
	return n
}

// OnInvalidate is the conventional TSO LQ snoop: when the L1 loses a line,
// performed yet-to-retire loads of that line are conservatively squashed as
// potential memory-consistency violations — except pinned loads and the
// oldest load (pinSafe), which cannot have been reordered.
// Under RC load→load order is not enforced, so the snoop never squashes.
func (c *Core) OnInvalidate(line uint64) {
	if c.policy.Consistency == defense.RC || c.perfLines&lineBit(line) == 0 {
		return
	}
	var held uint64
	for _, seq := range c.loadSeqs.seqs() {
		e := c.at(seq)
		if !e.performed {
			continue
		}
		held |= lineBit(e.line)
		if e.line != line || e.forwarded || e.pinned || e.pinSafe {
			continue
		}
		c.squashFrom(seq, obs.CauseMCV)
		return
	}
	c.perfLines = held
}

// lineBit is a line's bit in perfLines.
func lineBit(line uint64) uint64 { return 1 << (line * 0x9E3779B97F4A7C15 >> 58) }

// OnInvStar records the line in the Cannot-Pin Table (an Inv* from a
// starving writer arrived, paper Section 5.1.5).
func (c *Core) OnInvStar(line uint64) {
	if c.cpt == nil {
		return
	}
	if !c.cpt.Insert(line) {
		*c.cnt.cptOverflow++
	}
}

// OnClear removes the line from the Cannot-Pin Table.
func (c *Core) OnClear(line uint64) {
	if c.cpt != nil {
		c.cpt.Remove(line)
	}
}

// LoadDone delivers data for an outstanding load access to the ROB slot the
// token names, unless its load was squashed or retired meanwhile.
func (c *Core) LoadDone(token int64) {
	e := &c.entries[uint64(token)%uint64(len(c.entries))]
	if e.token != token || !c.valid(e.seq) {
		return
	}
	e.token = 0
	if e.state == stIssued {
		c.loadPerformed(e)
		switch {
		case e.invisible && c.reachedVP(e):
			// The load reached its VP (e.g. it was pinned) while the
			// invisible access was in flight: the returning data is
			// current and the load is unsquashable, so the access
			// converts to a normal one and no exposure is needed —
			// this is exactly how Pinned Loads removes the double
			// access from invisible-execution schemes.
			e.exposeDone = true
			*c.cnt.loadsExposeSkipped++
		case e.invisible:
			c.exposeCand.insert(e.seq)
		case e.specToken != 0 && e.inst.TransientAddr != 0:
			c.specCand.insert(e.seq)
		}
		return
	}
	if e.invisible && e.performed {
		// The exposure access completed; the load may now retire.
		e.exposeDone = true
	}
}

// LineOwned reports that an ownership transaction completed; the write
// buffer polls HasWritable each cycle, so this only feeds statistics.
func (c *Core) LineOwned(uint64) { *c.cnt.storesOwned++ }

// StoreDeferred records that the store's invalidation was deferred by a
// pinned line elsewhere; the L1 retries automatically.
func (c *Core) StoreDeferred(uint64) { *c.cnt.storesDeferred++ }
