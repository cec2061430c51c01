package pipeline

import (
	"slices"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/ckptio/ckpttest"
	"pinnedloads/internal/coherence"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// pinStream mixes mispredicted branches with L1-missing loads so loads sit
// speculative long enough for the pin governor to pin them, and squashes
// exercise the unpin and state-rewind paths.
func pinStream() *trace.Script {
	var insts []isa.Inst
	for i := 0; i < 24; i++ {
		if i%4 == 0 {
			insts = append(insts, isa.Inst{Op: isa.Branch, Taken: i%8 == 0, Mispredict: i%8 == 4})
		}
		insts = append(insts, isa.Inst{Op: isa.Load, Addr: 0x200000 + uint64(i)*8*64})
		insts = append(insts, isa.Inst{Op: isa.ALU, Lat: 2})
	}
	return &trace.Script{ScriptName: "pin-stream", Insts: [][]isa.Inst{insts}, Loop: true}
}

// TestScanStateInvariants is the pinStream workload of the candidate-list
// oracle under every scheme that exercises the optimized scan paths; RCP
// issues its reversible accesses and IS its exposures under memory tokens.
func TestScanStateInvariants(t *testing.T) {
	for _, pol := range []defense.Policy{
		{Scheme: defense.Unsafe},
		{Scheme: defense.Fence, Variant: defense.Comp},
		{Scheme: defense.DOM, Variant: defense.LP},
		{Scheme: defense.DOM, Variant: defense.EP},
		{Scheme: defense.STT, Variant: defense.Comp},
		{Scheme: defense.STT, Variant: defense.LP},
		{Scheme: defense.IS, Variant: defense.Comp},
		{Scheme: defense.IS, Variant: defense.EP},
		{Scheme: defense.RCP, Variant: defense.Comp},
	} {
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			m := newMachine(pinStream(), pol)
			for m.cycle < 12_000 {
				m.step(t)
			}
			if m.cores[0].Retired() == 0 {
				t.Fatal("no progress")
			}
			if pol.Pinning() && m.count.Get("pin.pinned") == 0 {
				t.Fatal("pin-heavy workload never pinned; invariant check is vacuous")
			}
			for scheme, counter := range map[defense.Scheme]string{defense.RCP: "loads.issued_spec", defense.IS: "loads.exposed"} {
				if pol.Scheme == scheme && m.count.Get(counter) == 0 {
					t.Fatalf("%s never counted %s: its tokens went unchecked", pol, counter)
				}
			}
		})
	}
}

// machine is a whole system assembled from this side of the import graph
// (core imports pipeline, so these tests cannot use core.System): the
// workload's cores over one memory hierarchy, stepped like stepCycle.
type machine struct {
	cfg   arch.Config
	count stats.Counters
	mem   *coherence.System
	cores []*Core
	cycle int64
}

func newMachine(w trace.Source, pol defense.Policy, tweak ...func(*arch.Config)) *machine {
	m := &machine{cfg: arch.PaperConfig(w.Cores())}
	for _, f := range tweak {
		f(&m.cfg)
	}
	m.mem = coherence.NewSystem(&m.cfg, &m.count)
	bar := NewBarrierSync(m.cfg.Cores)
	for i := 0; i < m.cfg.Cores; i++ {
		m.cores = append(m.cores, NewCore(i, &m.cfg, pol, m.mem.L1(i), w.Generator(i, 1), bar, &m.count))
	}
	if warmer, ok := w.(trace.Warmer); ok {
		for i := range m.cores {
			m.mem.Prewarm(warmer.WarmRanges(i))
		}
	}
	return m
}

// step advances one cycle, holding every core to Check both after the memory
// system moved (fills, invalidations and the squashes they cause happen
// there) and after the core's own stages, and what the issue stage did to
// expectIssue (tickChecked).
func (m *machine) step(t *testing.T) {
	t.Helper()
	m.cycle++
	m.mem.Tick(m.cycle)
	for _, ticked := range []bool{false, true} {
		for _, c := range m.cores {
			if ticked {
				tickChecked(t, c, m.cycle)
			}
			if err := c.Check(); err != nil {
				t.Fatalf("after Tick %v: %v", ticked, err)
			}
		}
	}
}

// tick steps the machine one cycle through Core.Tick itself.
func (m *machine) tick() {
	m.cycle++
	m.mem.Tick(m.cycle)
	for _, c := range m.cores {
		c.Tick(m.cycle)
	}
}

// parts describes the first walk line on which m's state parts from plain's,
// or returns "".
func (m *machine) parts(plain *machine) string {
	e := ckptio.NewEncoder()
	plain.state(ckptio.SaveTo(e))
	return ckpttest.Diverges(e.Bytes(), m.state)
}

// state walks the machine's counters and what a snapshot of it holds.
func (m *machine) state(s ckptio.State) {
	m.count.State(s)
	m.mem.State(s)
	m.cores[0].Barrier().State(s)
	for _, c := range m.cores {
		c.State(s)
	}
}

func (m *machine) halted() bool {
	for _, c := range m.cores {
		if !c.Halted() {
			return false
		}
	}
	return true
}

// TestCandidateListsMatchFullWalk is the differential oracle for the
// event-driven load queue: under every kind of policy that reaches a distinct
// maintenance path, on stalled, busy, sharing and adversarial workloads, Check
// holds twice every cycle, and what issueLoads did equals expectIssue's walk
// of every candidate (gate_test.go); the alias and mcv kernels carry
// transient addresses and the fault stream a faulting load, which the gate
// bound must leave on the walked side, and the transient stream moves a
// denied load's line under a Delay-On-Miss verdict. Restores are
// core.FuzzDerivedState's.
func TestCandidateListsMatchFullWalk(t *testing.T) {
	workloads := []struct {
		src    trace.Source
		cycles int64 // attack kernels run to their halt instead
	}{
		{trace.ByName("mcf_r"), 12_000},
		{trace.ByName("gcc_r"), 6_000},
		{trace.ByName("ocean_cp"), 3_000},
		{&trace.Attack{AttackKind: "spectre_v1", Secret: 1}, 0},
		{&trace.Attack{AttackKind: "alias", Secret: 1}, 0},
		{&trace.Attack{AttackKind: "mcv", Secret: 1}, 0},
		{&trace.Attack{AttackKind: "interference", Secret: 1}, 0},
		{faultStream(), 6_000},
		{transientStream(), 6_000},
	}
	policies := []defense.Policy{
		{Scheme: defense.Unsafe},
		{Scheme: defense.Fence, Variant: defense.EP},
		{Scheme: defense.Fence, Variant: defense.Comp},
		{Scheme: defense.Fence, Variant: defense.LP},
		{Scheme: defense.DOM, Variant: defense.Comp},
		{Scheme: defense.DOM, Variant: defense.EP},
		{Scheme: defense.STT, Variant: defense.LP},
		{Scheme: defense.IS, Variant: defense.Comp},
		{Scheme: defense.RCP, Variant: defense.Comp},
		{Scheme: defense.Unsafe, Consistency: defense.RC},
	}
	const attackLimit = 60_000
	for _, pol := range policies {
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			// Peak occupancy per list across the policy's workloads, so a
			// list this policy must exercise cannot pass by staying empty.
			var peakIssue, peakExpose, peakSpec, memos int
			var squashed uint64
			for _, w := range workloads {
				limit := w.cycles
				if limit == 0 {
					limit = attackLimit
				}
				// A plain machine ticks through Core.Tick beside the checked one
				// and must move every counter alike on every cycle, and hold the
				// same state every 4 096 cycles and at the end, so that a
				// tickChecked drifted from Tick fails on its first wrong cycle.
				m, plain := newMachine(w.src, pol), newMachine(w.src, pol)
				mh, ph := ckpttest.Counters(&m.count), ckpttest.Counters(&plain.count)
				for m.cycle < limit && !m.halted() {
					m.step(t)
					plain.tick()
					if !slices.EqualFunc(mh, ph, func(a, b *uint64) bool { return *a == *b }) || m.cycle%4096 == 0 || m.cycle == limit || m.halted() {
						if at := m.parts(plain); at != "" {
							t.Fatalf("%s @%d: tickChecked and Tick part at %s", w.src.Name(), m.cycle, at)
						}
					}
					for _, c := range m.cores {
						peakIssue = max(peakIssue, len(c.issueCand.seqs()))
						peakExpose = max(peakExpose, len(c.exposeCand.seqs()))
						peakSpec = max(peakSpec, len(c.specCand.seqs()))
						for seq := c.head; pol.Scheme == defense.DOM && seq < c.tail; seq++ {
							if c.at(seq).probeEpoch == c.l1.TagEpoch() {
								memos++
							}
						}
					}
				}
				if w.cycles == 0 && !m.halted() {
					t.Fatalf("%s did not halt in %d cycles", w.src.Name(), attackLimit)
				}
				squashed += m.count.Get("squashed_insts")
				if w.src.Name() == "fault-stream" && m.count.Get("squash.fault_taken") == 0 {
					t.Fatal("the fault stream never took its fault")
				}
			}
			if squashed == 0 {
				t.Fatal("no squash in any workload")
			}
			switch pol.Scheme {
			case defense.Fence, defense.DOM, defense.STT:
				if peakIssue == 0 {
					t.Fatal("a delaying scheme never held a load back across a cycle boundary")
				}
			}
			if pol.Scheme == defense.IS && peakExpose == 0 {
				t.Fatal("IS never had a load waiting for exposure")
			}
			if pol.Scheme == defense.RCP && peakSpec == 0 {
				t.Fatal("RCP never had a transient-operand load to revalidate")
			}
			if pol.Scheme == defense.DOM && memos == 0 {
				t.Fatal("DOM never carried a live probe memo across a cycle boundary")
			}
		})
	}
}
