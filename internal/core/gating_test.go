package core

import (
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/trace"
)

// gateRun executes gcc_r briefly under the policy and returns counters.
func gateRun(t *testing.T, pol defense.Policy) Result {
	t.Helper()
	return runFor(t, arch.PaperConfig(1), pol, trace.ByName("gcc_r"), 1, 1000, 6000)
}

func TestUnsafeNeverStallsOnPolicy(t *testing.T) {
	res := gateRun(t, defense.Policy{Scheme: defense.Unsafe})
	for _, c := range []string{"stall.fence", "stall.dom_miss", "stall.stt_tainted"} {
		if res.Counters.Get(c) != 0 {
			t.Fatalf("unsafe run recorded %s=%d", c, res.Counters.Get(c))
		}
	}
}

func TestFenceGatesEverything(t *testing.T) {
	res := gateRun(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Comp})
	if res.Counters.Get("stall.fence") == 0 {
		t.Fatal("Fence never stalled a load")
	}
	// Fence has no speculative-permission paths.
	if res.Counters.Get("loads.dom_hit") != 0 || res.Counters.Get("loads.stt_untainted") != 0 {
		t.Fatal("Fence run used another scheme's permission")
	}
}

func TestDOMGatesOnlyMisses(t *testing.T) {
	res := gateRun(t, defense.Policy{Scheme: defense.DOM, Variant: defense.Comp})
	if res.Counters.Get("loads.dom_hit") == 0 {
		t.Fatal("DOM never permitted a speculative hit")
	}
	if res.Counters.Get("stall.dom_miss") == 0 {
		t.Fatal("DOM never delayed a miss")
	}
}

func TestSTTGatesOnlyTainted(t *testing.T) {
	res := gateRun(t, defense.Policy{Scheme: defense.STT, Variant: defense.Comp})
	if res.Counters.Get("loads.stt_untainted") == 0 {
		t.Fatal("STT never permitted an untainted load")
	}
	if res.Counters.Get("stall.stt_tainted") == 0 {
		t.Fatal("STT never delayed a tainted load")
	}
}

func TestPinningOnlyUnderLPandEP(t *testing.T) {
	for _, v := range []defense.Variant{defense.Comp, defense.Spectre} {
		res := gateRun(t, defense.Policy{Scheme: defense.Fence, Variant: v})
		if res.Counters.Get("pin.pinned") != 0 {
			t.Fatalf("%v pinned loads", v)
		}
	}
	for _, v := range []defense.Variant{defense.LP, defense.EP} {
		res := gateRun(t, defense.Policy{Scheme: defense.Fence, Variant: v})
		if res.Counters.Get("pin.pinned") == 0 {
			t.Fatalf("%v never pinned", v)
		}
	}
}

func TestSpectreIgnoresMemoryConditions(t *testing.T) {
	// Under the Spectre model, loads wait only for branches: the CPI must
	// sit strictly between Unsafe and Comp.
	unsafe := gateRun(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Spectre})
	comp := gateRun(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Comp})
	base := gateRun(t, defense.Policy{Scheme: defense.Unsafe})
	if !(base.CPI < unsafe.CPI && unsafe.CPI < comp.CPI) {
		t.Fatalf("ordering: unsafe %.3f, spectre %.3f, comp %.3f",
			base.CPI, unsafe.CPI, comp.CPI)
	}
}

func TestFigure1MaskMonotonicity(t *testing.T) {
	// Adding VP conditions can only slow execution: the Figure 1 stacked
	// construction relies on this monotonicity.
	masks := []defense.Cond{
		defense.CondCtrl,
		defense.CondCtrl | defense.CondAlias,
		defense.CondCtrl | defense.CondAlias | defense.CondException,
		defense.CondsComprehensive,
	}
	prev := 0.0
	for _, m := range masks {
		res := gateRun(t, defense.Policy{Scheme: defense.Fence, Conds: m})
		if res.CPI < prev*0.99 { // small tolerance for timing noise
			t.Fatalf("mask %v faster (%.3f) than its subset (%.3f)", m, res.CPI, prev)
		}
		prev = res.CPI
	}
}

func TestEPNormallyBeatsLPOnMissHeavy(t *testing.T) {
	run := func(v defense.Variant) float64 {
		return runFor(t, arch.PaperConfig(1), defense.Policy{Scheme: defense.Fence, Variant: v}, trace.ByName("fotonik3d_r"), 1, 2000, 10000).CPI
	}
	lp, ep := run(defense.LP), run(defense.EP)
	if ep >= lp {
		t.Fatalf("EP (%.3f) not faster than LP (%.3f) on a miss-heavy app", ep, lp)
	}
}

func TestISInvisibleThenExposed(t *testing.T) {
	res := gateRun(t, defense.Policy{Scheme: defense.IS, Variant: defense.Comp})
	inv := res.Counters.Get("loads.issued_invisible")
	exp := res.Counters.Get("loads.exposed")
	if inv == 0 {
		t.Fatal("IS never issued an invisible access")
	}
	if exp == 0 {
		t.Fatal("IS never exposed a load")
	}
	// Invisible accesses leave no cache footprint: the directory serves
	// invisible misses statelessly.
	if res.Counters.Get("coh.msg.GetSInv") == 0 {
		t.Fatal("no stateless protocol requests")
	}
}

func TestISPinningHelps(t *testing.T) {
	// Pinning benefits invisible execution two ways: a load pinned while
	// its invisible miss is in flight converts to a normal access (no
	// exposure), and exposures of the rest leave the retirement critical
	// path. Measure on a miss-heavy proxy where conversions are visible.
	run := func(v defense.Variant) Result {
		return runFor(t, arch.PaperConfig(1), defense.Policy{Scheme: defense.IS, Variant: v}, trace.ByName("fotonik3d_r"), 1, 1500, 8000)
	}
	comp := run(defense.Comp)
	ep := run(defense.EP)
	if ep.Counters.Get("loads.expose_skipped") == 0 {
		t.Fatal("EP never converted an in-flight invisible access")
	}
	if ep.CPI >= comp.CPI {
		t.Fatalf("IS+EP (%.3f) not faster than IS-Comp (%.3f)", ep.CPI, comp.CPI)
	}
}

func TestISWithLatePinning(t *testing.T) {
	// IS and Late Pinning compose: invisibly performed loads get pinned
	// on the pin frontier, then expose and retire.
	res := gateRun(t, defense.Policy{Scheme: defense.IS, Variant: defense.LP})
	if res.Counters.Get("pin.pinned") == 0 {
		t.Fatal("no pinning under IS-LP")
	}
	if res.Counters.Get("loads.issued_invisible") == 0 {
		t.Fatal("no invisible issues under IS-LP")
	}
	if res.CPI <= 0 {
		t.Fatal("bad CPI")
	}
}

// workCounts is the host work of a run as counts any host reproduces, summed
// over the cores: issue gate evaluations (mayIssueLoad), store-forwarding
// scans past the store-address filter, core ticks evaluated and slept (a
// tick a jump skipped counts as slept), and the cycles the clock jumped.
type workCounts struct {
	visits, scans, evaluated, slept, jumped int64
}

// TestGateVisits pins the host work of core8_sharing's ocean_cp job, 3 000
// warm-up and 7 500 measured instructions a core, under each of the
// workload's five policies, through System.Run. At the commit before the gate
// bound, every waiting load was asked every evaluated cycle and every load
// past the gate scanned the store queue: 6 642 783 / 717 001 / 305 223
// visits and 51 607 / 82 909 / 68 960 scans for Fence-EP, DOM-EP and STT-LP.
// A count that moves means the cycle loop does different work: re-record it
// with the reason, after TestCandidateListsMatchFullWalk (internal/pipeline)
// and the lockstep rows of this package have passed. A change of
// representation moves none of them.
func TestGateVisits(t *testing.T) {
	for _, tc := range []struct {
		pol  defense.Policy
		want workCounts
	}{
		{defense.Policy{Scheme: defense.Unsafe}, workCounts{75_078, 5_107, 65_431, 6_681, 0}},
		{defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, workCounts{73_278, 436, 150_649, 57_311, 488}},
		{defense.Policy{Scheme: defense.DOM, Variant: defense.EP}, workCounts{386_267, 4_749, 125_847, 51_537, 446}},
		{defense.Policy{Scheme: defense.STT, Variant: defense.LP}, workCounts{229_743, 3_670, 73_238, 9_250, 0}},
		{defense.Policy{Scheme: defense.RCP, Variant: defense.Comp}, workCounts{151_530, 10_381, 93_153, 22_271, 0}},
	} {
		t.Run(tc.pol.String(), func(t *testing.T) {
			w := trace.ByName("ocean_cp")
			sys, err := New(arch.PaperConfig(w.Cores()), tc.pol, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(3_000, 7_500); err != nil {
				t.Fatal(err)
			}
			var got workCounts
			for i := range w.Cores() {
				c := sys.Core(i)
				got.visits += c.GateVisits()
				got.scans += c.ForwardScans()
				got.slept += c.SleptCycles()
			}
			got.evaluated = int64(w.Cores())*sys.Cycle() - got.slept
			_, got.jumped = sys.FastForwarded()
			if got != tc.want {
				t.Fatalf("in %d cycles: %+v, pinned at %+v", sys.Cycle(), got, tc.want)
			}
		})
	}
}
