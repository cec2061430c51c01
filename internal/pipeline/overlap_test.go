package pipeline

import (
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/coherence"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// outstandingDemandLoads counts issued, not-yet-performed loads.
func (c *Core) outstandingDemandLoads() int {
	n := 0
	for _, seq := range c.loadSeqs.seqs() {
		if e := c.at(seq); e.state == stIssued && !e.performed {
			n++
		}
	}
	return n
}

// missStream is a loop of independent loads that all miss the L1 (8-line
// stride through a large region), the Figure 2 scenario.
func missStream() *trace.Script {
	var insts []isa.Inst
	for i := 0; i < 32; i++ {
		insts = append(insts, isa.Inst{Op: isa.Load, Addr: 0x100000 + uint64(i)*8*64})
		insts = append(insts, isa.Inst{Op: isa.ALU, Lat: 1})
	}
	return &trace.Script{ScriptName: "miss-stream", Insts: [][]isa.Inst{insts}, Loop: true}
}

// maxOverlap runs the miss stream under the policy and returns the maximum
// number of concurrently outstanding demand loads.
func maxOverlap(t *testing.T, pol defense.Policy) int {
	t.Helper()
	cfg := arch.PaperConfig(1)
	cfg.Prefetch = false
	count := &stats.Counters{}
	mem := coherence.NewSystem(&cfg, count)
	w := missStream()
	c := NewCore(0, &cfg, pol, mem.L1(0), w.Generator(0, 1), NewBarrierSync(1), count)
	max := 0
	for i := 1; i <= 20000; i++ {
		mem.Tick(int64(i))
		c.Tick(int64(i))
		if n := c.outstandingDemandLoads(); n > max {
			max = n
		}
	}
	if c.Retired() == 0 {
		t.Fatal("no progress")
	}
	return max
}

// TestLoadOverlapSemantics verifies the concurrency structure of paper
// Figures 2(b)-(f): the safe Comprehensive baseline has at most one load
// outstanding; aggressive Late Pinning at most two (the oldest plus the
// pin-pending one); Early Pinning overlaps many; Unsafe overlaps most.
func TestLoadOverlapSemantics(t *testing.T) {
	comp := maxOverlap(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Comp})
	lp := maxOverlap(t, defense.Policy{Scheme: defense.Fence, Variant: defense.LP})
	ep := maxOverlap(t, defense.Policy{Scheme: defense.Fence, Variant: defense.EP})
	unsafe := maxOverlap(t, defense.Policy{Scheme: defense.Unsafe})

	if comp > 1 {
		t.Errorf("Comp overlap = %d, want <= 1 (only the oldest load may issue)", comp)
	}
	if lp > 2 {
		t.Errorf("LP overlap = %d, want <= 2 (oldest + pin-pending)", lp)
	}
	if ep <= 2 {
		t.Errorf("EP overlap = %d, want > 2 (pinned loads issue in parallel)", ep)
	}
	if unsafe < ep {
		t.Errorf("Unsafe overlap (%d) below EP (%d)", unsafe, ep)
	}
	t.Logf("overlap: comp=%d lp=%d ep=%d unsafe=%d", comp, lp, ep, unsafe)
}
