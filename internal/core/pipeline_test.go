package core

import (
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/trace"
)

// runScript builds a system over a script and runs it for cycles.
func runScript(t *testing.T, cfg arch.Config, pol defense.Policy, w trace.Source, cycles int) *System {
	t.Helper()
	sys, err := New(cfg, pol, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	for range cycles {
		sys.stepCycle()
	}
	return sys
}

// runFor builds a system over w and runs it for warmup then measure
// instructions a core.
func runFor(t *testing.T, cfg arch.Config, pol defense.Policy, w trace.Source, seed uint64, warmup, measure int64) Result {
	t.Helper()
	sys, err := New(cfg, pol, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// loop returns a looping single-core script.
func loop(name string, insts ...isa.Inst) *trace.Script {
	return &trace.Script{ScriptName: name, Insts: [][]isa.Inst{insts}, Loop: true}
}

func unsafePol() defense.Policy { return defense.Policy{Scheme: defense.Unsafe} }

func TestALUThroughput(t *testing.T) {
	// Independent single-cycle ALU ops retire at the FU limit (4/cycle).
	sys := runScript(t, arch.PaperConfig(1), unsafePol(), loop("alu", isa.Inst{Op: isa.ALU, Lat: 1}), 500)
	retired := sys.cores[0].Retired()
	if retired < 1500 || retired > 2100 {
		t.Fatalf("retired %d in 500 cycles, want ~2000 (4-wide int issue)", retired)
	}
}

func TestDependenceChainLatency(t *testing.T) {
	// A serial chain of 3-cycle ops retires at 1 per 3 cycles.
	sys := runScript(t, arch.PaperConfig(1), unsafePol(),
		loop("chain", isa.Inst{Op: isa.ALU, Lat: 3, Deps: [2]int32{1}}), 600)
	retired := sys.cores[0].Retired()
	if retired < 150 || retired > 230 {
		t.Fatalf("retired %d in 600 cycles, want ~200 (3-cycle chain)", retired)
	}
}

func TestBranchMispredictSquash(t *testing.T) {
	// Every 8th instruction is a mispredicted branch: squashes must be
	// counted and the correct path must still retire exactly in order.
	var seq []isa.Inst
	for i := 0; i < 7; i++ {
		seq = append(seq, isa.Inst{Op: isa.ALU, Lat: 1})
	}
	seq = append(seq, isa.Inst{Op: isa.Branch, Mispredict: true, Taken: true, Deps: [2]int32{1}})
	sys := runScript(t, arch.PaperConfig(1), unsafePol(), loop("br", seq...), 2000)
	if sys.count.Get("squash.branch") == 0 {
		t.Fatal("no branch squashes")
	}
	if sys.cores[0].Retired() == 0 {
		t.Fatal("nothing retired")
	}
	// The retirement-continuity assertion inside the pipeline guarantees
	// no instruction was lost or duplicated; reaching here is the check.
}

func TestStoreLoadForwarding(t *testing.T) {
	// A load that reads the address a just-executed store wrote must
	// forward from the store queue, not access memory.
	sys := runScript(t, arch.PaperConfig(1), unsafePol(),
		loop("fwd",
			isa.Inst{Op: isa.Store, Addr: 0x4000},
			isa.Inst{Op: isa.Load, Addr: 0x4000, Deps: [2]int32{1}},
			isa.Inst{Op: isa.ALU, Lat: 1},
		), 1000)
	if sys.count.Get("loads.forwarded")+sys.count.Get("loads.forwarded_wb") == 0 {
		t.Fatal("no store-to-load forwarding happened")
	}
}

func TestFaultFlush(t *testing.T) {
	// A faulting load takes a precise exception at the head: pipeline
	// flush, penalty, and execution continues.
	sys := runScript(t, arch.PaperConfig(1), unsafePol(),
		loop("fault",
			isa.Inst{Op: isa.ALU, Lat: 1},
			isa.Inst{Op: isa.Load, Addr: 0x4000, Fault: true},
			isa.Inst{Op: isa.ALU, Lat: 1},
		), 2000)
	if sys.count.Get("squash.fault_taken") == 0 {
		t.Fatal("fault never taken")
	}
	if sys.cores[0].Retired() < 10 {
		t.Fatal("execution did not continue past faults")
	}
}

func TestFenceDrainsWriteBuffer(t *testing.T) {
	sys := runScript(t, arch.PaperConfig(1), unsafePol(),
		loop("fence",
			isa.Inst{Op: isa.Store, Addr: 0x4000},
			isa.Inst{Op: isa.Fence},
			isa.Inst{Op: isa.ALU, Lat: 1},
		), 2000)
	if sys.cores[0].Retired() == 0 {
		t.Fatal("fence workload made no progress")
	}
	if sys.count.Get("stores.merged") == 0 {
		t.Fatal("stores never merged")
	}
}

func TestLockRMW(t *testing.T) {
	sys := runScript(t, arch.PaperConfig(1), unsafePol(),
		loop("lock",
			isa.Inst{Op: isa.Lock, Addr: 0x8000},
			isa.Inst{Op: isa.ALU, Lat: 1},
		), 2000)
	if sys.cores[0].Retired() < 20 {
		t.Fatalf("lock workload retired only %d", sys.cores[0].Retired())
	}
}

func TestBarrierSynchronizesCores(t *testing.T) {
	// Core 0 runs fast ALU work with barriers; core 1 runs slow chains
	// with barriers. Both must stay within one barrier period.
	fast := []isa.Inst{{Op: isa.ALU, Lat: 1}, {Op: isa.ALU, Lat: 1}, {Op: isa.Barrier}}
	slow := []isa.Inst{{Op: isa.FALU, Lat: 6, Deps: [2]int32{1}}, {Op: isa.FALU, Lat: 6, Deps: [2]int32{1}}, {Op: isa.Barrier}}
	w := &trace.Script{ScriptName: "bar", NumCores: 2, Insts: [][]isa.Inst{fast, slow}, Loop: true}
	sys := runScript(t, arch.PaperConfig(2), unsafePol(), w, 3000)
	r0, r1 := sys.cores[0].Retired(), sys.cores[1].Retired()
	if r0 == 0 || r1 == 0 {
		t.Fatal("barrier deadlock")
	}
	diff := r0 - r1
	if diff < 0 {
		diff = -diff
	}
	if diff > 200 {
		t.Fatalf("cores drifted %d instructions apart across barriers", diff)
	}
}

// sharedWrite has core 0 keep a speculatively-performed, non-oldest load to
// a shared line in flight (a slow load to a private line ahead of it) while
// core 1 writes that line.
func sharedWrite(name string) *trace.Script {
	const shared = 0x40000
	reader := []isa.Inst{{Op: isa.Load, Addr: 0x100040}, {Op: isa.Load, Addr: shared}, {Op: isa.ALU, Lat: 1}}
	writer := []isa.Inst{{Op: isa.Store, Addr: shared}, {Op: isa.ALU, Lat: 1}, {Op: isa.ALU, Lat: 1}, {Op: isa.ALU, Lat: 1}}
	return &trace.Script{ScriptName: name, NumCores: 2, Insts: [][]isa.Inst{reader, writer}, Loop: true}
}

func TestMCVSquashOnInvalidation(t *testing.T) {
	// Conventional TSO must squash the shared load (Unsafe scheme,
	// aggressive TSO skips only the oldest load).
	sys := runScript(t, arch.PaperConfig(2), unsafePol(), sharedWrite("mcv"), 4000)
	if sys.count.Get("squash.mcv") == 0 {
		t.Fatal("no MCV squashes despite cross-core write sharing")
	}
}

func TestPinningPreventsMCVSquash(t *testing.T) {
	// The same sharing pattern under Fence+EP: reads of the contended
	// line are pinned, so invalidations are deferred instead of squashing.
	sys := runScript(t, arch.PaperConfig(2), defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, sharedWrite("pinmcv"), 6000)
	if sys.count.Get("pin.pinned") == 0 {
		t.Fatal("no loads pinned")
	}
	if sys.count.Get("coh.defers") == 0 {
		t.Fatal("no invalidations deferred")
	}
	if sys.cores[1].Retired() == 0 {
		t.Fatal("writer starved completely")
	}
}

// TestWriteBufferDeadlock reproduces the paper's Figure 4 scenario: two
// cores each hold a store in a tiny write buffer to a line the *other*
// core's pinned load protects. The write-buffer check (Section 5.1.2) must
// prevent deadlock.
func TestWriteBufferDeadlock(t *testing.T) {
	const lineX = 0x40000
	const lineY = 0x80000
	c0 := []isa.Inst{
		{Op: isa.Store, Addr: lineX},
		{Op: isa.Store, Addr: 0x100000},
		{Op: isa.Load, Addr: lineY},
	}
	c1 := []isa.Inst{
		{Op: isa.Store, Addr: lineY},
		{Op: isa.Store, Addr: 0x200000},
		{Op: isa.Load, Addr: lineX},
	}
	w := &trace.Script{ScriptName: "fig4", NumCores: 2, Insts: [][]isa.Inst{c0, c1}, Loop: true}
	cfg := arch.PaperConfig(2)
	cfg.WriteBufferEntries = 1 // the paper's single-entry write buffer
	for _, v := range []defense.Variant{defense.LP, defense.EP} {
		sys := runScript(t, cfg, defense.Policy{Scheme: defense.Fence, Variant: v}, w, 30000)
		if sys.cores[0].Retired() < 100 || sys.cores[1].Retired() < 100 {
			t.Fatalf("%v: deadlock: retired %d/%d", v,
				sys.cores[0].Retired(), sys.cores[1].Retired())
		}
	}
}

// TestStoreStarvation reproduces the paper's Figure 5 scenario: one core
// re-reads (and re-pins) a line in a tight loop while another core tries to
// write it. The GetX*/Inv*/CPT mechanism must let the writer through.
func TestStoreStarvation(t *testing.T) {
	const line = 0x40000
	reader := []isa.Inst{
		{Op: isa.Load, Addr: line},
		{Op: isa.Load, Addr: line + 8},
		{Op: isa.ALU, Lat: 1},
	}
	writer := []isa.Inst{
		{Op: isa.Store, Addr: line},
		{Op: isa.ALU, Lat: 1},
	}
	w := &trace.Script{ScriptName: "fig5", NumCores: 2, Insts: [][]isa.Inst{reader, writer}, Loop: true}
	sys := runScript(t, arch.PaperConfig(2),
		defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, w, 30000)
	if sys.count.Get("stores.merged") == 0 {
		t.Fatal("the writer starved: no stores ever merged")
	}
	if sys.cores[1].Retired() < 100 {
		t.Fatalf("writer retired only %d", sys.cores[1].Retired())
	}
}

func TestFenceBlocksPinning(t *testing.T) {
	// Loads younger than an in-ROB MFENCE must not be pinned (Section 5).
	// With a fence between every pair of loads, pins only happen for
	// loads older than the next fence — the run must stay correct and
	// make progress, and pinned count stays bounded by load count.
	sys := runScript(t, arch.PaperConfig(1),
		defense.Policy{Scheme: defense.Fence, Variant: defense.EP},
		loop("fencepin",
			isa.Inst{Op: isa.Load, Addr: 0x4000},
			isa.Inst{Op: isa.Fence},
			isa.Inst{Op: isa.ALU, Lat: 1},
		), 4000)
	if sys.cores[0].Retired() < 50 {
		t.Fatal("fence+pin workload stalled")
	}
}

func TestSTTTaintBlocksDependentLoad(t *testing.T) {
	// Under STT-Comp, a load whose address depends on another load is
	// tainted and must wait; stalls must be recorded.
	sys := runScript(t, arch.PaperConfig(1),
		defense.Policy{Scheme: defense.STT, Variant: defense.Comp},
		loop("taint",
			isa.Inst{Op: isa.Load, Addr: 0x4000},
			isa.Inst{Op: isa.Load, Addr: 0x8000, Deps: [2]int32{1}},
			isa.Inst{Op: isa.ALU, Lat: 1},
		), 3000)
	if sys.count.Get("stall.stt_tainted") == 0 {
		t.Fatal("dependent load was never tainted")
	}
	if sys.count.Get("loads.stt_untainted") == 0 {
		t.Fatal("independent loads never issued early")
	}
}

func TestDOMAllowsHitsBlocksMisses(t *testing.T) {
	// Alternating hot (hit) and far (miss) loads under DOM-Comp: hits
	// issue speculatively, misses wait for the VP.
	sys := runScript(t, arch.PaperConfig(1),
		defense.Policy{Scheme: defense.DOM, Variant: defense.Comp},
		loop("dom",
			isa.Inst{Op: isa.Load, Addr: 0x4000}, // becomes a hit after first touch
			isa.Inst{Op: isa.ALU, Lat: 1},
		), 3000)
	if sys.count.Get("loads.dom_hit") == 0 {
		t.Fatal("DOM never allowed a speculative hit")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, uint64) {
		res := runFor(t, arch.PaperConfig(1), defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, trace.ByName("gcc_r"), 7, 1000, 5000)
		return res.Cycles, res.Counters.Get("pin.pinned")
	}
	c1, p1 := run()
	c2, p2 := run()
	if c1 != c2 || p1 != p2 {
		t.Fatalf("nondeterministic: cycles %d vs %d, pins %d vs %d", c1, c2, p1, p2)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A barrier on a 2-core system where only core 0 ever reaches it
	// cannot make progress; the runner must return an error, not hang.
	c0 := []isa.Inst{{Op: isa.Barrier}}
	c1 := []isa.Inst{{Op: isa.ALU, Lat: 1}}
	w := &trace.Script{ScriptName: "stuck", NumCores: 2,
		Insts: [][]isa.Inst{c0, c1}, Loop: false}
	sys, err := New(arch.PaperConfig(2), unsafePol(), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Core 1 halts after one instruction; core 0 waits forever at the
	// barrier. Progress stops, and runUntil must report it.
	_, err = sys.Run(0, 10)
	if err == nil {
		t.Fatal("expected a no-progress error")
	}
	if !strings.Contains(err.Error(), "no retirement progress") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestLQIDWraparound(t *testing.T) {
	// With tiny LQ ID tags, wraparound must trigger the stop-pinning path
	// and execution must stay correct.
	cfg := arch.PaperConfig(1)
	cfg.LQIDTagBits = 8 // wraps every 256 pins
	res := runFor(t, cfg, defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, trace.ByName("gcc_r"), 1, 1000, 8000)
	if res.Counters.Get("pin.wraparound") == 0 {
		t.Fatal("LQ ID tag never wrapped with 8-bit tags")
	}
	if res.Counters.Get("pin.pinned") < 256 {
		t.Fatal("pinning did not resume after wraparound")
	}
}

func TestPrewarmReducesCPI(t *testing.T) {
	// The LLC prewarm must make large-footprint workloads faster.
	w := trace.ByName("bwaves_r")
	run := func(warm bool) float64 {
		var src trace.Source = w
		if !warm {
			src = &coldSource{w}
		}
		return runFor(t, arch.PaperConfig(1), unsafePol(), src, 1, 1000, 6000).CPI
	}
	if cold, warm := run(false), run(true); warm >= cold {
		t.Fatalf("prewarm did not help: warm %.3f vs cold %.3f", warm, cold)
	}
}

// coldSource hides the Warmer side of a profile.
type coldSource struct{ p *trace.Profile }

func (c *coldSource) Name() string { return c.p.Name() }
func (c *coldSource) Cores() int   { return c.p.Cores() }
func (c *coldSource) Generator(core int, seed uint64) trace.Generator {
	return c.p.Generator(core, seed)
}

// TestRetireEventsCountEveryRetirement: a traced run's retire events sum, for
// each core, to the instructions it retired, so a sweep that retires some
// instructions and then stalls on its head still records what it retired.
func TestRetireEventsCountEveryRetirement(t *testing.T) {
	for _, c := range []struct {
		bench string
		pol   defense.Policy
	}{
		{"gcc_r", defense.Policy{Scheme: defense.Unsafe}},
		{"mcf_r", defense.Policy{Scheme: defense.DOM, Variant: defense.Comp}},
	} {
		t.Run(c.bench+"/"+c.pol.String(), func(t *testing.T) {
			w := trace.ByName(c.bench)
			sys, err := New(arch.PaperConfig(w.Cores()), c.pol, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			ring := obs.NewRing(1 << 18)
			sys.SetRecorder(ring)
			if _, err := sys.Run(3_000, 3_000); err != nil {
				t.Fatal(err)
			}
			if ring.Dropped() != 0 {
				t.Fatalf("ring dropped %d events", ring.Dropped())
			}
			sums := make([]int64, w.Cores())
			for _, ev := range ring.Events() {
				if ev.Kind == obs.KindRetire {
					sums[ev.Core] += ev.Arg
				}
			}
			var total int64
			for i, sum := range sums {
				if got := sys.Core(i).Retired(); sum != got {
					t.Errorf("core %d: retire events sum to %d, it retired %d", i, sum, got)
				}
				total += sum
			}
			if got := sys.Counters().Get("retired"); uint64(total) != got {
				t.Errorf("retire events sum to %d, retired counter %d", total, got)
			}
		})
	}
}
