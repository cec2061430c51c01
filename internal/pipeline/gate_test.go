package pipeline

import (
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
)

// issueCounts are the counters only the load-issue stage moves: the three
// denial stalls of the issue gate and the two kinds of store forwarding.
type issueCounts struct {
	fence, domMiss, sttTainted, fwd, fwdWB uint64
}

func (c *Core) issueCounts() issueCounts {
	return issueCounts{*c.cnt.stallFence, *c.cnt.stallDOMMiss, *c.cnt.stallSTTTainted,
		*c.cnt.loadsForwarded, *c.cnt.loadsForwardedWB}
}

func (a issueCounts) minus(b issueCounts) issueCounts {
	return issueCounts{a.fence - b.fence, a.domMiss - b.domMiss, a.sttTainted - b.sttTainted,
		a.fwd - b.fwd, a.fwdWB - b.fwdWB}
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

// expectIssue recomputes what issueLoads is about to add to issueCounts
// without its gate bound, DOM probe memo or store-address filter: every
// candidate in program order, the whole Table 2 gate for each, a fresh L1
// probe, a scan of the whole ROB and write buffer for a forwarding store,
// until the L1 ports run out. It writes nothing: not the VP and probe memos,
// not an effective address, no counter.
func (c *Core) expectIssue() issueCounts {
	var n issueCounts
	ports := c.l1.PortsUsed()
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
		switch {
		case e.inst.Fault:
			continue
		case pass:
		case c.policy.Scheme == defense.Fence:
			n.fence++
			continue
		case c.policy.Scheme == defense.DOM:
			if !c.l1.Probe(arch.LineAddr(addr)) {
				n.domMiss++
				continue
			}
		case c.policy.Scheme == defense.STT:
			if r := e.yroot; r >= c.head && !c.expectReachedVP(c.at(r)) {
				n.sttTainted++
				continue
			}
		}
		if c.expectForward(seq, addr, &n) {
			continue
		}
		if ports == c.cfg.L1Ports {
			break
		}
		ports++
	}
	return n
}

// expectForward looks for the store a load at seq with the given address
// forwards from: any older resolved store in the ROB, else the write buffer.
func (c *Core) expectForward(seq int64, addr uint64, n *issueCounts) bool {
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

// tickChecked is Core.Tick with the oracle in front of the issue stage. The
// stages are spelled out again because the expectation must be taken from
// the state issueLoads starts in; a copy that drifts from Tick shows when
// TestCandidateListsMatchFullWalk's machines end on other counters than the
// same machines run through Tick itself. A slept cycle replays a quiet tick's
// deltas over unchanged state, so the expectation holds for it as it stands.
func tickChecked(t *testing.T, c *Core, now int64) {
	t.Helper()
	c.now = now
	input := c.inputDue(now)
	before := c.issueCounts()
	var want issueCounts
	if c.asleep && !input {
		want = c.expectIssue()
		c.sleepThrough(1)
	} else {
		watched := !input && len(c.readyQ) == 0
		if watched {
			c.snapshotCounters()
			c.arm()
		}
		c.active = false
		c.complete()
		c.drainUnpins()
		c.advanceVP()
		c.pinGovernor()
		c.validateSpecLoads()
		want = c.expectIssue()
		c.issueLoads()
		if got := c.issueCounts().minus(before); got != want {
			t.Fatalf("core %d @%d: issueLoads added %+v, a walk of every candidate adds %+v (vp %d, pin %d, pending %d, odd %d, candidates %v)",
				c.id, now, got, want, c.vpFrontier, c.pinFrontier, c.pinPendingSeq, c.lastOdd, c.issueCand.seqs())
		}
		c.exposeLoads()
		c.execute()
		c.retire()
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
	if got := c.issueCounts().minus(before); got != want {
		t.Fatalf("core %d @%d: the cycle added %+v to the issue-stage counters, a walk of every candidate adds %+v",
			c.id, now, got, want)
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

// TestDenialSummaryConservativeTSO runs the oracle on the configuration the
// machines of TestCandidateListsMatchFullWalk leave out: a load is MCV-safe
// only at the ROB head, so STT's taint roots and Fence's gate bound, with and
// without pinning, turn on head, not on the oldest-load mark.
func TestDenialSummaryConservativeTSO(t *testing.T) {
	for _, tc := range []struct {
		pol   defense.Policy
		stall string
	}{
		{defense.Policy{Scheme: defense.STT, Variant: defense.Comp}, "stall.stt_tainted"},
		{defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}, "stall.fence"},
		{defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, "stall.fence"},
	} {
		for _, src := range []trace.Source{trace.ByName("mcf_r"), faultStream()} {
			m := newMachine(src, tc.pol, func(cfg *arch.Config) { cfg.AggressiveTSO = false })
			for m.cycle < 8_000 {
				m.step(t)
			}
			if m.count.Get(tc.stall) == 0 {
				t.Fatalf("%s on %s: %s never moved", tc.pol, src.Name(), tc.stall)
			}
		}
	}
}
