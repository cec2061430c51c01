package pipeline

import (
	"cmp"
	"maps"
	"slices"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/ckptio/ckpttest"
	"pinnedloads/internal/coherence"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// bruteForceCandidates recomputes the bookkeeping lists the way the cycle
// loop found its work before they existed: the unretired loads, stores and
// serializing ops by walking the whole ROB, and each load-queue candidate
// list by the filter its stage applied to every unretired load.
func (c *Core) bruteForceCandidates() (loads, stores, fences, issue, expose, spec []int64) {
	for seq := c.head; seq < c.tail; seq++ {
		e := c.at(seq)
		switch e.inst.Op {
		case isa.Load:
			loads = append(loads, seq)
		case isa.Store:
			stores = append(stores, seq)
		case isa.Fence, isa.Lock, isa.Barrier:
			fences = append(fences, seq)
		}
		if !e.isLoad() {
			continue
		}
		if e.state == stAddrDone {
			issue = append(issue, seq)
		}
		if e.invisible && !e.exposeDone && e.performed && e.token == 0 {
			expose = append(expose, seq)
		}
		if e.specToken != 0 && e.performed && e.inst.TransientAddr != 0 {
			spec = append(spec, seq)
		}
	}
	return
}

// checkCandidates verifies every seq list against the brute-force walk,
// every live Delay-On-Miss probe memo against a fresh Probe, the
// store-address filter against a recount, and the tables against the ROB.
func checkCandidates(t *testing.T, c *Core, when string) {
	t.Helper()
	checkStoreFilter(t, c, when)
	checkTables(t, c, when)
	loads, stores, fences, issue, expose, spec := c.bruteForceCandidates()
	for _, l := range []struct {
		name string
		got  []int64
		want []int64
	}{
		{"loadSeqs", c.loadSeqs.seqs(), loads},
		{"storeSeqs", c.storeSeqs.seqs(), stores},
		{"fences", c.fences.seqs(), fences},
		{"issueCand", c.issueCand.seqs(), issue},
		{"exposeCand", c.exposeCand.seqs(), expose},
		{"specCand", c.specCand.seqs(), spec},
	} {
		if !slices.Equal(l.got, l.want) {
			t.Fatalf("core %d @%d %s: %s = %v, full walk says %v (ROB [%d, %d))",
				c.id, c.now, when, l.name, l.got, l.want, c.head, c.tail)
		}
	}
	if got := int(c.head % int64(len(c.entries))); c.headSlot != got {
		t.Fatalf("core %d @%d %s: headSlot %d, head %% len is %d", c.id, c.now, when, c.headSlot, got)
	}
	for seq := c.head; seq < c.tail; seq++ {
		e := c.at(seq)
		if e.seq != seq {
			t.Fatalf("core %d @%d %s: slot of seq %d holds seq %d", c.id, c.now, when, seq, e.seq)
		}
		if e.probeEpoch == c.l1.TagEpoch() && e.probeHit != c.l1.Probe(e.probeLine) {
			t.Fatalf("core %d @%d %s: seq %d remembers Probe(%#x) = %v at epoch %d, a fresh Probe disagrees",
				c.id, c.now, when, seq, e.probeLine, e.probeHit, e.probeEpoch)
		}
	}
}

// checkSetPins verifies the incremental per-set pin counts against a full
// recomputation from pinnedRef, the authoritative pinned-line map.
func checkSetPins(t *testing.T, c *Core, cycle int) {
	t.Helper()
	wantL1 := map[uint32]int32{}
	wantDir := map[uint32]int32{}
	for line, n := range c.pinnedRef.All() {
		if n > 0 {
			wantL1[c.l1Key(line)]++
			wantDir[c.dirKey(line)]++
		}
	}
	check := func(name string, arr []int32, want map[uint32]int32) {
		for key, n := range arr {
			if n != want[uint32(key)] {
				t.Fatalf("cycle %d: %s[%d] = %d, recompute says %d",
					cycle, name, key, n, want[uint32(key)])
			}
		}
		for key, n := range want {
			if int(key) >= len(arr) && n != 0 {
				t.Fatalf("cycle %d: %s misses key %d (want %d)", cycle, name, key, n)
			}
		}
	}
	check("pinsPerL1Set", c.pinsPerL1Set, wantL1)
	check("pinsPerDirSet", c.pinsPerDirSet, wantDir)
}

// checkTables recomputes the core's three tables from the ROB — the memory
// token of every entry that holds one, the extended LQ ID and the line of
// every pinned load — and holds each table to its recomputation, and to the
// load-queue bound it is sized by.
func checkTables(t *testing.T, c *Core, when string) {
	t.Helper()
	tokens := map[uint64]int64{}
	tags := map[uint64]int64{}
	pins := map[uint64]int{}
	for seq := c.head; seq < c.tail; seq++ {
		e := c.at(seq)
		if e.token != 0 {
			tokens[uint64(e.token)] = seq
		}
		if e.pinned {
			tags[uint64(e.lqTag)] = seq
			pins[e.line]++
		}
	}
	for _, tc := range []struct {
		name      string
		got, want map[uint64]int64
	}{
		{"tokenSeq", maps.Collect(c.tokenSeq.All()), tokens},
		{"tagToSeq", maps.Collect(c.tagToSeq.All()), tags},
	} {
		if !maps.Equal(tc.got, tc.want) {
			t.Fatalf("core %d @%d %s: %s holds %v, the ROB says %v", c.id, c.now, when, tc.name, tc.got, tc.want)
		}
	}
	if got := maps.Collect(c.pinnedRef.All()); !maps.Equal(got, pins) {
		t.Fatalf("core %d @%d %s: pinnedRef holds %v, the ROB's pinned loads say %v", c.id, c.now, when, got, pins)
	}
	if n := max(len(tokens), len(tags), len(pins)); n > c.cfg.LQEntries {
		t.Fatalf("core %d @%d %s: %d entries in a table bounded by a %d-entry load queue", c.id, c.now, when, n, c.cfg.LQEntries)
	}
}

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

// TestScanStateInvariants runs pin-heavy workloads under every scheme that
// exercises the optimized scan paths and cross-checks, every cycle, the
// derived data structures the scans rely on against their authoritative
// sources, and the core's tables against the ROB: RCP issues its reversible
// accesses and IS its exposures under memory tokens too.
func TestScanStateInvariants(t *testing.T) {
	policies := []defense.Policy{
		{Scheme: defense.Unsafe},
		{Scheme: defense.Fence, Variant: defense.Comp},
		{Scheme: defense.DOM, Variant: defense.LP},
		{Scheme: defense.DOM, Variant: defense.EP},
		{Scheme: defense.STT, Variant: defense.Comp},
		{Scheme: defense.STT, Variant: defense.LP},
		{Scheme: defense.IS, Variant: defense.Comp},
		{Scheme: defense.IS, Variant: defense.EP},
		{Scheme: defense.RCP, Variant: defense.Comp},
	}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := arch.PaperConfig(1)
			count := &stats.Counters{}
			mem := coherence.NewSystem(&cfg, count)
			w := pinStream()
			c := NewCore(0, &cfg, pol, mem.L1(0), w.Generator(0, 1), NewBarrierSync(1), count)
			for i := 1; i <= 12000; i++ {
				mem.Tick(int64(i))
				c.Tick(int64(i))
				checkCandidates(t, c, "after Tick")
				checkSetPins(t, c, i)
			}
			if c.Retired() == 0 {
				t.Fatal("no progress")
			}
			if pol.Pinning() && count.Get("pin.pinned") == 0 {
				t.Fatal("pin-heavy workload never pinned; invariant check is vacuous")
			}
			for scheme, counter := range map[defense.Scheme]string{defense.RCP: "loads.issued_spec", defense.IS: "loads.exposed"} {
				if pol.Scheme == scheme && count.Get(counter) == 0 {
					t.Fatalf("%s never counted %s: its tokens went unchecked", pol, counter)
				}
			}
		})
	}
}

// machine is a whole system assembled from this side of the import graph
// (core imports pipeline, so these tests cannot use core.System): the
// workload's cores over one memory hierarchy, stepped like stepCycle, with
// their events recorded.
type machine struct {
	cfg   arch.Config
	count stats.Counters
	mem   *coherence.System
	cores []*Core
	cycle int64
	plain bool // step with Core.Tick itself, not tickChecked
	ring  *obs.Ring
	cnt   []*uint64 // every counter, in name order
}

func newMachine(w trace.Source, pol defense.Policy, tweak ...func(*arch.Config)) *machine {
	m := &machine{cfg: arch.PaperConfig(w.Cores()), ring: obs.NewRing(64)}
	for _, f := range tweak {
		f(&m.cfg)
	}
	m.mem = coherence.NewSystem(&m.cfg, &m.count)
	bar := NewBarrierSync(m.cfg.Cores)
	for i := 0; i < m.cfg.Cores; i++ {
		c := NewCore(i, &m.cfg, pol, m.mem.L1(i), w.Generator(i, 1), bar, &m.count)
		c.SetRecorder(m.ring)
		m.cores = append(m.cores, c)
	}
	if warmer, ok := w.(trace.Warmer); ok {
		for i := range m.cores {
			m.mem.Prewarm(warmer.WarmRanges(i))
		}
	}
	m.cnt = ckpttest.Counters(&m.count)
	return m
}

// step advances one cycle, checking the derived state of every core both
// after the memory system moved (fills, invalidations and the squashes
// they cause happen there) and after the core's own stages, and — unless
// the machine is plain — what the issue stage counted against expectIssue.
func (m *machine) step(t *testing.T) {
	t.Helper()
	m.cycle++
	m.mem.Tick(m.cycle)
	for _, c := range m.cores {
		checkCandidates(t, c, "after mem.Tick")
	}
	for _, c := range m.cores {
		if m.plain {
			c.Tick(m.cycle)
		} else {
			tickChecked(t, c, m.cycle)
		}
		checkCandidates(t, c, "after Tick")
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

func (m *machine) Cycle() int64        { return m.cycle }
func (m *machine) Events() []obs.Event { return m.ring.Events() }

func (m *machine) State(s ckptio.State) {
	m.count.State(s)
	m.mem.State(s)
	m.cores[0].Barrier().State(s)
	for _, c := range m.cores {
		c.State(s)
	}
}

// counters walks every counter's value: the cheap walk the forks are held
// to on every cycle.
func (m *machine) counters(s ckptio.State) {
	for _, h := range m.cnt {
		s.U64(h)
	}
}

// fork is the way that steps like its source: a fresh plain machine that
// restores what a machine of the same spec, ticked unchecked, holds on the
// first cycle until accepts (or once it halts), and hands itself to
// restored, if set.
func fork(t *testing.T, w trace.Source, pol defense.Policy, until, step func(*machine) bool,
	restored func(*machine)) ckpttest.Way[*machine] {
	return ckpttest.Way[*machine]{Name: "restored", Step: step, New: func() *machine {
		src := newMachine(w, pol)
		for !until(src) && !src.halted() {
			src.cycle++
			src.mem.Tick(src.cycle)
			for _, c := range src.cores {
				c.Tick(src.cycle)
			}
		}
		e := ckptio.NewEncoder()
		src.State(ckptio.SaveTo(e))
		m := newMachine(w, pol)
		m.plain = true
		d := ckptio.NewDecoder(e.Bytes())
		m.State(ckptio.LoadFrom(d))
		if err := cmp.Or(e.Err(), d.Done()); err != nil {
			t.Fatal(err)
		}
		m.cycle = src.cycle
		for _, c := range m.cores {
			checkCandidates(t, c, "after restore")
		}
		if restored != nil {
			restored(m)
		}
		return m
	}}
}

// TestCandidateListsMatchFullWalk is the differential oracle for the
// event-driven load queue: under every kind of policy that reaches a
// distinct maintenance path, on stalled, busy, sharing and adversarial
// workloads, the incrementally maintained lists must equal the full walk
// twice every cycle — so also on the cycle after every squash — and the
// lists a restore rebuilds must equal the ones the original run carried. It
// is also the oracle of the issue stage's derived state: every cycle of
// every core, the denial stalls and forwardings issueLoads counted must equal
// expectIssue's walk of every candidate (gate_test.go), which the gate bound
// and the DOM/STT denial summary skip and the store-address filter cuts
// short; the alias and mcv kernels carry transient addresses and the fault
// stream a faulting load, the loads the bound must leave on the walked side.
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
		pol := pol
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
				step := func(m *machine) bool {
					if m.cycle >= limit || m.halted() {
						return false
					}
					m.step(t)
					return true
				}
				original := ckpttest.Way[*machine]{Name: "original", New: func() *machine { return newMachine(w.src, pol) },
					Step: func(m *machine) bool {
						if !step(m) {
							return false
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
						return true
					}}
				// A restore into a fresh machine mid-run: the rebuilt lists are
				// checked before its first cycle and on every cycle it then runs
				// beside the original.
				forked := fork(t, w.src, pol, func(m *machine) bool { return m.cycle == 2_500 }, step, nil)
				m, _ := ckpttest.Lockstep(t, ckpttest.Row[*machine]{Name: w.src.Name() + "/" + pol.String(),
					A: original, B: forked, Every: 4096, Quick: (*machine).counters})
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
