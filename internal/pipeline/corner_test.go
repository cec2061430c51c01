package pipeline

import (
	"reflect"
	"slices"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/coherence"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// run drives a core built by buildCore for n cycles.
func run(c *Core, mem *coherence.System, n int) {
	base := c.now
	for i := int64(1); i <= int64(n); i++ {
		mem.Tick(base + i)
		c.Tick(base + i)
	}
}

func TestStoreFaultFlush(t *testing.T) {
	c, mem, count := buildCore(t, defense.Policy{Scheme: defense.Unsafe},
		[]isa.Inst{
			{Op: isa.Store, Addr: 0x4000, Fault: true},
			{Op: isa.ALU, Lat: 1},
		})
	run(c, mem, 3000)
	if count.Get("squash.fault_taken") == 0 {
		t.Fatal("store fault never taken")
	}
	if c.Retired() < 10 {
		t.Fatal("no progress past store faults")
	}
}

func TestNopAndFenceRetire(t *testing.T) {
	c, mem, _ := buildCore(t, defense.Policy{Scheme: defense.Unsafe},
		[]isa.Inst{
			{Op: isa.Nop},
			{Op: isa.Fence},
			{Op: isa.ALU, Lat: 1},
		})
	run(c, mem, 500)
	if c.Retired() < 30 {
		t.Fatalf("nop/fence stream retired only %d", c.Retired())
	}
}

func TestWrongPathLoadsAreTransient(t *testing.T) {
	// A mispredicted branch precedes loads; wrong-path loads may issue
	// under Unsafe (transient execution) but none may retire.
	c, mem, count := buildCore(t, defense.Policy{Scheme: defense.Unsafe},
		[]isa.Inst{
			{Op: isa.Load, Addr: 0x4000},
			{Op: isa.Branch, Taken: true, Mispredict: true, Deps: [2]int32{1}},
			{Op: isa.ALU, Lat: 1},
		})
	run(c, mem, 3000)
	if count.Get("squash.branch") == 0 {
		t.Fatal("no branch squashes")
	}
	if count.Get("squashed_insts") == 0 {
		t.Fatal("wrong path never dispatched")
	}
	// Retirement continuity assertions inside retire() guarantee no
	// wrong-path instruction retired.
}

func TestROBFillsUnderLongMiss(t *testing.T) {
	// With every load missing to DRAM under Fence-Comp, the ROB must
	// back up (rob_full stalls) without deadlock.
	var insts []isa.Inst
	for i := 0; i < 8; i++ {
		insts = append(insts, isa.Inst{Op: isa.Load, Addr: 0x40000000 + uint64(i)*64*64})
		insts = append(insts, isa.Inst{Op: isa.ALU, Lat: 1})
	}
	c, mem, count := buildCore(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}, insts)
	run(c, mem, 20000)
	// Depending on the load fraction, either the ROB or the LQ backs up.
	if count.Get("stall.rob_full") == 0 && count.Get("stall.lq_full") == 0 {
		t.Fatal("no backpressure under serialized misses")
	}
	if c.Retired() == 0 {
		t.Fatal("no progress")
	}
}

func TestLQFullStall(t *testing.T) {
	// An all-load stream under Fence-Comp must hit the LQ limit.
	c, mem, count := buildCore(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Comp},
		[]isa.Inst{{Op: isa.Load, Addr: 0x4000}})
	run(c, mem, 5000)
	if count.Get("stall.lq_full") == 0 {
		t.Fatal("LQ never filled")
	}
	if c.Retired() == 0 {
		t.Fatal("no progress")
	}
}

func TestSQFullStall(t *testing.T) {
	c, mem, count := buildCore(t, defense.Policy{Scheme: defense.Unsafe},
		[]isa.Inst{{Op: isa.Store, Addr: 0x40000000}})
	run(c, mem, 5000)
	if count.Get("stall.sq_full") == 0 && count.Get("stall.wb_full") == 0 {
		t.Fatal("store stream never hit a queue limit")
	}
	if c.Retired() == 0 {
		t.Fatal("no progress")
	}
}

func TestMSHRFullStall(t *testing.T) {
	// More concurrent misses than MSHRs under Unsafe.
	cfg := arch.PaperConfig(1)
	cfg.L1MSHRs = 2
	cfg.Prefetch = false
	count := &stats.Counters{}
	mem := coherence.NewSystem(&cfg, count)
	var insts []isa.Inst
	for i := 0; i < 16; i++ {
		insts = append(insts, isa.Inst{Op: isa.Load, Addr: 0x40000000 + uint64(i)*64*64})
	}
	w := &trace.Script{ScriptName: "mshr", Insts: [][]isa.Inst{insts}, Loop: true}
	c := NewCore(0, &cfg, defense.Policy{Scheme: defense.Unsafe},
		mem.L1(0), w.Generator(0, 1), NewBarrierSync(1), count)
	// A cycle that ends with every MSHR busy and a load still waiting to
	// issue, which Unsafe never denies.
	full := false
	for now := int64(1); now <= 5000; now++ {
		mem.Tick(now)
		c.Tick(now)
		full = full || len(c.l1.MSHRLines()) == cfg.L1MSHRs && len(c.issueCand.seqs()) > 0
	}
	if !full {
		t.Fatal("MSHR limit never hit")
	}
	if c.Retired() == 0 {
		t.Fatal("no progress")
	}
}

// TestGatePassCountsOncePerLoad: loads.dom_hit and loads.stt_untainted count
// loads their gate let through short of the VP, not gate passes. A
// Delay-On-Miss hit kept from the L1's ports for k cycles, and an untainted
// STT miss that finds every MSHR busy cycle after cycle, each add 1 when the
// load issues; an exposure turned away the same way adds 1 to loads.exposed
// when it goes out.
func TestGatePassCountsOncePerLoad(t *testing.T) {
	const a, b, c = 0x40000000, 0x40100000, 0x40200000
	// slow is a chain of n 60-cycle operations, each waiting for the one
	// before it (the first for the instruction ahead of the chain).
	slow := func(n int) []isa.Inst {
		ops := make([]isa.Inst, n)
		for i := range ops {
			ops[i] = isa.Inst{Op: isa.ALU, Lat: 60, Deps: [2]int32{1}}
		}
		return ops
	}
	for _, tc := range []struct {
		name    string
		pol     defense.Policy
		counter string
		insts   []isa.Inst
		starve  bool   // keep the ports from the counted load's first pass for 8 cycles
		want    uint64 // its count at the end: the loads let through short of the VP
	}{
		// The last load waits, denied, for load 0's fill of line a, and is
		// then a Delay-On-Miss hit while the chain of operations that waits
		// for that fill keeps the branch ahead of it open.
		{"DOM-hit-no-port", defense.Policy{Scheme: defense.DOM, Variant: defense.Comp}, "loads.dom_hit", slices.Concat(
			[]isa.Inst{{Op: isa.Load, Addr: a}}, slow(5),
			[]isa.Inst{{Op: isa.Branch, Deps: [2]int32{1}}, {Op: isa.Load, Addr: a}},
		), true, 1},
		// Behind an open branch, the untainted miss to b takes the only MSHR
		// and the one to c is turned away until b's fill is back.
		{"STT-untainted-MSHR-full", defense.Policy{Scheme: defense.STT, Variant: defense.Comp}, "loads.stt_untainted", slices.Concat(
			slow(10),
			[]isa.Inst{{Op: isa.Branch, Deps: [2]int32{1}}, {Op: isa.Load, Addr: b}, {Op: isa.Load, Addr: c}},
		), false, 2},
		// Both loads perform invisibly behind the open branch; once it
		// resolves, both reach the Spectre VP, the exposure of b takes the
		// only MSHR and that of c is turned away until b's fill is back.
		{"IS-exposure-MSHR-full", defense.Policy{Scheme: defense.IS, Variant: defense.Spectre}, "loads.exposed", slices.Concat(
			slow(10),
			[]isa.Inst{{Op: isa.Branch, Deps: [2]int32{1}}, {Op: isa.Load, Addr: b}, {Op: isa.Load, Addr: c}},
		), false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(&trace.Script{ScriptName: tc.name, Insts: [][]isa.Inst{tc.insts}}, tc.pol,
				func(cfg *arch.Config) { cfg.L1MSHRs, cfg.Prefetch = 1, false })
			core := m.cores[0]
			last := int64(len(tc.insts) - 1)
			starved, retries := 0, 0
			for m.cycle < 2_000 && core.haltCycle < 0 {
				m.cycle++
				m.mem.Tick(m.cycle)
				// Past the gate: an untainted load always, under DOM once the
				// line is in.
				passing := core.tail > last && core.at(last).state == stAddrDone &&
					(!tc.starve || core.l1.Probe(arch.LineAddr(a)))
				exposing := func() bool {
					e := core.at(last)
					return tc.pol.Scheme == defense.IS && core.tail > last && e.performed && !e.exposeDone && e.token == 0
				}
				if exposing() && core.expectReachedVP(core.at(last)) {
					passing = true
				}
				if tc.starve && passing && starved < 8 {
					for core.l1.AcquirePort() {
					}
					starved++
				}
				core.Tick(m.cycle)
				if passing && (core.at(last).state == stAddrDone || exposing()) {
					retries++ // let through by the gate and sent back by the L1
				}
			}
			if core.haltCycle < 0 {
				t.Fatal("the script did not finish")
			}
			if tc.starve && starved < 8 {
				t.Fatalf("the counted load was kept from the ports %d cycles, want 8", starved)
			}
			if retries < 8 {
				t.Fatalf("the counted load passed its gate and was sent back %d times, want at least 8", retries)
			}
			if got := m.count.Get(tc.counter); got != tc.want {
				t.Fatalf("%s = %d after %d retries, want %d", tc.counter, got, retries, tc.want)
			}
		})
	}
}

func TestHaltDrainsPipeline(t *testing.T) {
	c, mem, _ := buildCore(t, defense.Policy{Scheme: defense.Unsafe},
		nil) // empty non-loop script: immediate Halt
	run(c, mem, 100)
	if !c.Halted() {
		t.Fatal("core did not halt on an empty script")
	}
}

func TestForwardedLoadNotMCVSquashed(t *testing.T) {
	// Store-to-load forwarded loads read the core's own store data and
	// must be exempt from invalidation squashes.
	c, mem, count := buildCore(t, defense.Policy{Scheme: defense.Unsafe},
		[]isa.Inst{
			{Op: isa.Store, Addr: 0x4000},
			{Op: isa.Load, Addr: 0x4000, Deps: [2]int32{1}},
		})
	run(c, mem, 500)
	if count.Get("loads.forwarded")+count.Get("loads.forwarded_wb") == 0 {
		t.Fatal("no forwarding")
	}
	// Invalidate the line externally: no squash may result from the
	// forwarded loads.
	before := count.Get("squash.mcv")
	c.OnInvalidate(arch.LineAddr(0x4000))
	if count.Get("squash.mcv") != before {
		t.Fatal("forwarded load was MCV-squashed")
	}
}

func TestCPTBlocksPinning(t *testing.T) {
	c, mem, count := buildCore(t, defense.Policy{Scheme: defense.Fence, Variant: defense.EP},
		[]isa.Inst{
			{Op: isa.Load, Addr: 0x4000},
			{Op: isa.ALU, Lat: 1},
		})
	run(c, mem, 200)
	pinned := count.Get("pin.pinned")
	if pinned == 0 {
		t.Fatal("no pinning before CPT insertion")
	}
	// An Inv* for the hot line blocks further pins of it.
	c.OnInvStar(arch.LineAddr(0x4000))
	run(c, mem, 200)
	if count.Get("pin.stall_cpt") == 0 {
		t.Fatal("CPT never blocked a pin")
	}
	// A Clear releases it.
	c.OnClear(arch.LineAddr(0x4000))
	stalls := count.Get("pin.stall_cpt")
	run(c, mem, 200)
	if count.Get("pin.pinned") <= pinned {
		t.Fatal("pinning did not resume after Clear")
	}
	_ = stalls
}

func TestSpectreVariantSkipsMemConditions(t *testing.T) {
	// Under the Spectre mask, a load with unresolved older store
	// addresses still reaches its VP once branches are resolved.
	c, mem, _ := buildCore(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Spectre},
		[]isa.Inst{
			{Op: isa.FALU, Lat: 6},
			{Op: isa.Store, Addr: 0x8000, Deps: [2]int32{1, 1}}, // slow address
			{Op: isa.Load, Addr: 0x4000},
			{Op: isa.ALU, Lat: 1},
		})
	run(c, mem, 2000)
	if c.Retired() < 40 {
		t.Fatalf("Spectre-gated stream retired only %d", c.Retired())
	}
}

func TestTakenBranchEndsFetchGroup(t *testing.T) {
	// A stream of taken branches limits dispatch to ~1 branch per cycle,
	// so IPC stays near 1 even though everything is independent.
	c, mem, _ := buildCore(t, defense.Policy{Scheme: defense.Unsafe},
		[]isa.Inst{{Op: isa.Branch, Taken: true}})
	run(c, mem, 1000)
	if c.Retired() > 1100 {
		t.Fatalf("taken-branch stream retired %d in 1000 cycles; fetch break broken", c.Retired())
	}
	if c.Retired() < 500 {
		t.Fatalf("taken-branch stream too slow: %d", c.Retired())
	}
}

func TestSquashedCandidatesLeaveNoStaleSeq(t *testing.T) {
	// A squash hands its seqs to the refetched path, so a candidate the
	// squash left behind would name a different instruction: here the
	// wrong path parks loads in stAddrDone (Fence denies them) on seqs
	// that the correct path refills with ALU ops and, at loadSeq, a load
	// still waiting for its address operand. Treating that load as
	// stAddrDone would send it to the L1 before its address exists.
	const (
		wrongAddr = 0x7000_0000
		rightAddr = 0x4000
		loadSeq   = 15
	)
	insts := []isa.Inst{
		{Op: isa.FALU, Lat: 40},
		{Op: isa.Branch, Mispredict: true, Deps: [2]int32{1}},
	}
	for len(insts) < loadSeq-1 {
		insts = append(insts, isa.Inst{Op: isa.ALU, Lat: 1})
	}
	insts = append(insts,
		isa.Inst{Op: isa.FALU, Lat: 40},
		isa.Inst{Op: isa.Load, Addr: rightAddr, Deps: [2]int32{1}})

	cfg := arch.PaperConfig(1)
	count := &stats.Counters{}
	mem := coherence.NewSystem(&cfg, count)
	w := &trace.Script{ScriptName: "stale-seq", Insts: [][]isa.Inst{insts},
		Wrong: isa.Inst{Op: isa.Load, Addr: wrongAddr}}
	c := NewCore(0, &cfg, defense.Policy{Scheme: defense.Fence, Variant: defense.Comp},
		mem.L1(0), w.Generator(0, 1), NewBarrierSync(1), count)

	var parked []int64 // wrong-path candidates on the cycle before the squash
	var staleGen uint64
	squashed := false
	for i := int64(1); i <= 2000 && !c.Halted(); i++ {
		if !squashed {
			parked = append(parked[:0], c.issueCand.seqs()...)
			if c.valid(loadSeq) {
				staleGen = c.at(loadSeq).gen
			}
		}
		mem.Tick(i)
		c.Tick(i)
		if err := c.Check(); err != nil {
			t.Fatal(err)
		}
		if !squashed && count.Get("squash.branch") == 1 {
			squashed = true
			if !slices.Contains(parked, loadSeq) {
				t.Fatalf("wrong path never parked a load at seq %d: %v", loadSeq, parked)
			}
			if c.tail != 2 || len(c.issueCand.seqs()) != 0 {
				t.Fatalf("after the squash: tail %d, issue candidates %v", c.tail, c.issueCand.seqs())
			}
		}
		if squashed && slices.Contains(c.issueCand.seqs(), loadSeq) {
			if e := c.at(loadSeq); e.gen == staleGen || !e.addrReady || e.inst.Addr != rightAddr {
				t.Fatalf("cycle %d: seq %d is an issue candidate as gen %d (squashed gen %d), addrReady=%v addr=%#x",
					i, loadSeq, e.gen, staleGen, e.addrReady, e.inst.Addr)
			}
		}
	}
	if !squashed || !c.Halted() {
		t.Fatalf("squashed=%v halted=%v", squashed, c.Halted())
	}
	if got := count.Get("loads.issued"); got != 1 {
		t.Fatalf("%d loads reached the L1, want only the refetched one", got)
	}
	if mem.L1(0).Probe(arch.LineAddr(wrongAddr)) || !mem.L1(0).Probe(arch.LineAddr(rightAddr)) {
		t.Fatal("the L1 holds the wrong path's line, or not the refetched load's")
	}
}

// TestStaleTokenLeavesTheSlotsNewLoad squashes a load while its fill is in
// flight, refetches a load into the same ROB slot and then delivers the old
// load's token: a token names a slot, and the slot no longer holds it, so
// the new load must stay as it was.
func TestStaleTokenLeavesTheSlotsNewLoad(t *testing.T) {
	var insts []isa.Inst
	for i := range 8 {
		insts = append(insts, isa.Inst{Op: isa.Load, Addr: 0x40000000 + uint64(i)*64*64}, isa.Inst{Op: isa.ALU, Lat: 1})
	}
	c, mem, _ := buildCore(t, defense.Policy{Scheme: defense.Unsafe}, insts)
	seq, token := int64(-1), int64(0)
	for seq < 0 {
		if c.now == 1_000 {
			t.Fatal("no load had a fill in flight")
		}
		run(c, mem, 1)
		for s := c.head; s < c.tail; s++ {
			if e := c.at(s); e.state == stIssued && e.token != 0 && slices.Contains(c.l1.MSHRLines(), e.line) {
				seq, token = s, e.token
				break
			}
		}
	}
	slot := seq % int64(len(c.entries))
	c.squashFrom(seq, obs.CauseMCV)
	// The refetched load issues, and its access is in flight too.
	for !c.valid(seq) || c.at(seq).state != stIssued {
		if c.valid(seq) && c.at(seq).performed {
			t.Fatal("the refetched load performed before the test saw it issued")
		}
		run(c, mem, 1)
	}
	e := c.at(seq)
	if e != &c.entries[slot] || e.inst.Op != isa.Load || e.token == 0 || e.token == token {
		t.Fatalf("seq %d refetched as %v holding token %d (old %d), or not into slot %d", seq, e.inst.Op, e.token, token, slot)
	}
	before := *e
	before.wake = slices.Clone(e.wake)
	c.LoadDone(token)
	if !reflect.DeepEqual(*e, before) {
		t.Fatalf("the squashed load's token changed the new load in its slot:\n got %+v\nwant %+v", *e, before)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}
