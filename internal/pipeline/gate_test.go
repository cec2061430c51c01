package pipeline

import (
	"slices"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
)

// forwards are the counters only the load-issue stage moves: the two kinds
// of store forwarding.
type forwards struct{ fwd, fwdWB uint64 }

func (c *Core) forwards() forwards { return forwards{*c.cnt.loadsForwarded, *c.cnt.loadsForwardedWB} }

func (a forwards) minus(b forwards) forwards { return forwards{a.fwd - b.fwd, a.fwdWB - b.fwdWB} }

// heldLoads returns the unretired loads marked held.
func (c *Core) heldLoads() []int64 {
	var held []int64
	for _, seq := range c.loadSeqs.seqs() {
		if c.at(seq).held {
			held = append(held, seq)
		}
	}
	return held
}

// expectReachedVP is reachedVP without the memo: the Visibility Point
// conditions read straight from the frontier and the entry.
func (c *Core) expectReachedVP(e *entry) bool {
	if e.vpReached {
		return true
	}
	mask := c.policy.VPConds()
	switch {
	case c.vpFrontier < e.seq:
		return false
	case mask.Has(defense.CondException) && (!e.addrReady || e.inst.Fault):
		return false
	case mask.Has(defense.CondMCV) && e.isLoad() && !c.mcvSafeNow(e):
		return false
	}
	return true
}

// issueWalk is what a walk of every candidate expects of issueLoads.
type issueWalk struct {
	denied []int64 // held by the gate: they must stay candidates, held
	passed []int64 // let through to forward or take a port: they must leave the candidates unless the L1 blocks them
	ports  int     // L1 ports in use after the walk
	fwd    forwards
}

// expectIssue recomputes what issueLoads is about to do without its gate
// bound, DOM probe memo or store-address filter: every candidate in program
// order, the whole Table 2 gate for each, a fresh L1 probe, a scan of the
// whole ROB and write buffer for a forwarding store, until the L1 ports run
// out. Past the ports only Fence's gate bound holds a load, and no load past
// it may pass. It writes nothing: not the VP and probe memos, not an
// effective address, no counter, no mark.
func (c *Core) expectIssue(t *testing.T) issueWalk {
	w, walking := issueWalk{ports: c.l1.PortsUsed()}, true
	for _, seq := range c.issueCand.seqs() {
		e := c.at(seq)
		addr := e.inst.Addr
		if e.inst.TransientAddr != 0 && e.addrReady {
			addr = e.archAddr
			if !c.comprehensivelySafe(seq) {
				addr = e.inst.TransientAddr
			}
		}
		pass := c.policy.Scheme == defense.Unsafe || c.expectReachedVP(e) || e.pinned || seq == c.pinPendingSeq
		past := seq > c.gate()
		switch {
		case past && (pass || e.inst.Fault):
			t.Fatalf("core %d @%d: load %d past the gate bound %d may issue or faults", c.id, c.now, seq, c.gate())
		case past:
			w.denied = append(w.denied, seq)
			continue
		case !walking, e.inst.Fault:
			continue
		case pass:
		case c.policy.Scheme == defense.Fence:
			w.denied = append(w.denied, seq)
			continue
		case c.policy.Scheme == defense.DOM:
			if !c.l1.Probe(arch.LineAddr(addr)) {
				w.denied = append(w.denied, seq)
				continue
			}
		case c.policy.Scheme == defense.STT:
			if r := e.yroot; r >= c.head && !c.expectReachedVP(c.at(r)) {
				w.denied = append(w.denied, seq)
				continue
			}
		}
		if c.expectForward(seq, addr, &w.fwd) {
			w.passed = append(w.passed, seq)
			continue
		}
		if w.ports == c.cfg.L1Ports {
			walking = false
			continue
		}
		w.ports++
		w.passed = append(w.passed, seq)
	}
	return w
}

// checkIssue holds what issueLoads did to the walk taken before it, from
// cand, the candidates it started with, and held, the loads held then. A
// denied load stays a candidate and is held from now on; a passed load
// leaves the candidates, or stays one only when the L1 blocked it (every
// MSHR busy, or one already fetching its line); a load the walk does not
// reach stays as it was; the ports and forwardings match. So a stale gate
// verdict shows on the cycle it is used, held mark or not.
func (c *Core) checkIssue(t *testing.T, cand, held []int64, w issueWalk, before forwards) {
	t.Helper()
	lines := c.l1.MSHRLines()
	for _, seq := range cand {
		e := c.at(seq)
		waits := e.state == stAddrDone
		switch passed := slices.Contains(w.passed, seq); {
		case passed && waits && len(lines) < c.cfg.L1MSHRs && !slices.Contains(lines, e.line):
			t.Fatalf("core %d @%d: issueLoads kept load %d waiting, a walk of every candidate lets %v through (denies %v, held before %v)",
				c.id, c.now, seq, w.passed, w.denied, held)
		case !passed && !waits:
			t.Fatalf("core %d @%d: issueLoads issued load %d, a walk of every candidate lets only %v through (denies %v, held before %v)",
				c.id, c.now, seq, w.passed, w.denied, held)
		}
	}
	for _, seq := range c.loadSeqs.seqs() {
		if c.at(seq).held != (slices.Contains(held, seq) || slices.Contains(w.denied, seq)) {
			t.Fatalf("core %d @%d: issueLoads left load %d held=%v; held before %v, a walk of every candidate denies %v (vp %d, pin %d, pending %d, odd %d, candidates %v)",
				c.id, c.now, seq, c.at(seq).held, held, w.denied, c.vpFrontier, c.pinFrontier, c.pinPendingSeq, c.lastOdd, cand)
		}
	}
	if got := c.l1.PortsUsed(); got != w.ports {
		t.Fatalf("core %d @%d: issueLoads left %d L1 ports in use, a walk of every candidate %d", c.id, c.now, got, w.ports)
	}
	if got := c.forwards().minus(before); got != w.fwd {
		t.Fatalf("core %d @%d: issueLoads forwarded %+v, a walk of every candidate forwards %+v", c.id, c.now, got, w.fwd)
	}
}

// expectForward looks for the store a load at seq with the given address
// forwards from: any older resolved store in the ROB, else the write buffer.
func (c *Core) expectForward(seq int64, addr uint64, n *forwards) bool {
	for s := seq - 1; s >= c.head; s-- {
		if se := c.at(s); se.isStore() && se.addrReady && se.inst.Addr == addr {
			n.fwd++
			return true
		}
	}
	for i := 0; i < c.wb.Len(); i++ {
		if c.wb.At(i) == addr {
			n.fwdWB++
			return true
		}
	}
	return false
}

// tickChecked is Core.Tick with the oracle around the issue stage. The
// stages are spelled out again because the expectation must be taken from
// the state issueLoads starts in; a copy that drifts from Tick shows when
// TestCandidateListsMatchFullWalk's machines end on other counters than the
// same machines run through Tick itself. A slept cycle replays a quiet tick
// over unchanged state, so the walk lets no load through and every load it
// denies is held already.
func tickChecked(t *testing.T, c *Core, now int64) {
	t.Helper()
	c.now = now
	input := c.inputDue(now)
	before := c.forwards()
	var want forwards
	if c.asleep && !input {
		w := c.expectIssue(t)
		if len(w.passed) > 0 || slices.ContainsFunc(w.denied, func(seq int64) bool { return !c.at(seq).held }) {
			t.Fatalf("core %d @%d: a slept cycle, a walk of every candidate lets %v through and denies %v (held: %v)", c.id, now, w.passed, w.denied, c.heldLoads())
		}
		want = w.fwd
		c.sleepThrough(1)
	} else {
		watched := !input && len(c.readyQ) == 0
		if watched {
			c.arm()
		}
		c.active = false
		c.nCharges = 0
		c.complete()
		c.advanceVP()
		c.pinGovernor()
		c.validateSpecLoads()
		cand, held := slices.Clone(c.issueCand.seqs()), c.heldLoads()
		w := c.expectIssue(t)
		c.issueLoads()
		c.checkIssue(t, cand, held, w, before)
		want = w.fwd
		c.exposeLoads()
		c.execute()
		c.charge(c.retire())
		c.drainWriteBuffer()
		c.dispatch()
		if c.cpt != nil {
			c.cpt.Sample()
		}
		if c.target > 0 && c.doneCycle < 0 && c.retired >= c.target {
			c.doneCycle = now
			c.active = true
		}
		if c.haltCycle < 0 && c.halted && c.head == c.tail {
			c.haltCycle = now
			c.active = true
		}
		c.settle(watched)
	}
	if got := c.forwards().minus(before); got != want {
		t.Fatalf("core %d @%d: the cycle forwarded %+v, a walk of every candidate forwards %+v", c.id, now, got, want)
	}
}

// faultStream holds a window of loads behind a branch that waits 40 cycles
// for its operand, with a faulting load in the middle of the window: the
// candidates on both sides of it are denied cycle after cycle while it sits
// in issueCand, denied without a stall count, until the fault is taken at
// the head. The loads thrash one L1 set (Delay-On-Miss denies them), every
// other one takes its address from the first (STT taints it), and one reads
// what the store ahead of it wrote.
func faultStream() *trace.Script {
	cfg := arch.PaperConfig(1)
	insts := []isa.Inst{
		{Op: isa.ALU, Lat: 40},
		{Op: isa.Branch, Deps: [2]int32{1}},
	}
	for i := uint64(0); i < 12; i++ {
		load := isa.Inst{Op: isa.Load, Addr: 0x300000 + i*uint64(cfg.L1Sets)*arch.LineBytes, Fault: i == 6}
		if i%2 == 1 {
			load.Deps = [2]int32{int32(3 * i)}
		}
		if i == 4 {
			load.Addr = 0x500000 + 2*64
		}
		insts = append(insts, load,
			isa.Inst{Op: isa.Store, Addr: 0x500000 + i*64, Fault: i == 9},
			isa.Inst{Op: isa.ALU, Lat: 1})
	}
	return &trace.Script{ScriptName: "fault-stream", Insts: [][]isa.Inst{insts}, Loop: true}
}

// transientStream holds a load with a transient address behind a branch
// that resolves while two long ALU operations keep the load from the ROB
// head: the branch's resolution moves the load to its architectural line,
// which the L1 holds, while the load is still short of its VP and the tag
// epoch has not moved. Delay-On-Miss, denying the transient line's miss,
// must probe the architectural line afresh and let the load issue.
func transientStream() *trace.Script {
	insts := []isa.Inst{
		{Op: isa.ALU, Lat: 40},
		{Op: isa.ALU, Lat: 40, Deps: [2]int32{1}},
		{Op: isa.ALU, Lat: 10},
		{Op: isa.Branch, Deps: [2]int32{1}},
		{Op: isa.Load, Addr: 0x600000, TransientAddr: 0x700000},
	}
	return &trace.Script{ScriptName: "transient-stream", Insts: [][]isa.Inst{insts}, Loop: true}
}
