package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/pipeline"
	"pinnedloads/internal/trace"
	"pinnedloads/internal/xrand"
)

// lockstepRow is one spec FuzzDerivedState runs two ways in lockstep: a
// jumpPair, a sleepPair or a resumePair.
type lockstepRow struct {
	test, name string // the test that runs the row unperturbed, and its subtest path there
	pair       string
	src        trace.Source
	pol        defense.Policy
	tune       func(*arch.Config)
	seed       uint64 // the workload's; zero is 1
	// RunContext's; cycles, if set, is the cycle every way stops on if its
	// run has not ended: a poll, which no clock jump crosses, in a jump row.
	warmup, measure, cycles int64
	stride                  int64 // a sleep row checks fixed points in the first fixedPointWindow cycles of every stride windows
	// The spacing of the reference way's checks (checked) and of the
	// whole-walk comparisons (zero: a poll, each), and the capacity of the
	// rings the ways record their events in (zero: 1<<15).
	check, every int64
	events       int
	// A resume row's source snapshots every cadence polls (zero: one) and is
	// cancelled at the cancel-th safe point from the last of from, or runs to
	// its end if cancel is zero; the row resumes from each of from (-1: the
	// last).
	from    []int
	cadence int64
	cancel  int
	floors  []floor // what the unperturbed row must reach
}

// A floor is a "path taken" guard on the two ways of an unperturbed row where
// they ended.
type floor func(t testing.TB, a, b *sim)

const (
	poll             = ctxCheckMask + 1
	fixedPointWindow = 32
)

// lockstepRows is FuzzDerivedState's corpus: the fixed lists of every test
// that drove the machine before it, under that test's name.
var lockstepRows = func() []lockstepRow {
	var rows []lockstepRow
	add := func(test string, r lockstepRow) { r.test = test; rows = append(rows, r) }
	pol := func(s defense.Scheme, v defense.Variant) defense.Policy { return defense.Policy{Scheme: s, Variant: v} }
	rc := func(p defense.Policy) defense.Policy { p.Consistency = defense.RC; return p }
	atk := func(kind string) trace.Source { return &trace.Attack{AttackKind: kind, Secret: 1} }
	cpt1 := func(c *arch.Config) { c.CPTEntries = 1 }

	// Jump rows: on mcf_r 60% of core-cycles sleep and 50% of cycles are
	// jumped (but under IS), and under 10% sleep on gcc_r Unsafe.
	jump := func(r lockstepRow) {
		r.pair, r.name = "jump", r.src.Name()+"/"+r.pol.String()
		add("TestJumpMatchesEveryCycle", r)
	}
	for _, p := range []defense.Policy{pol(defense.Unsafe, 0), pol(defense.Fence, defense.Comp), pol(defense.DOM, defense.Comp),
		pol(defense.STT, defense.Comp), pol(defense.IS, defense.Comp), pol(defense.RCP, defense.Comp), pol(defense.Fence, defense.EP),
		pol(defense.DOM, defense.EP), rc(pol(defense.Fence, defense.Comp))} {
		jumped := 50.0
		if p.Scheme == defense.IS {
			jumped = 0
		}
		jump(lockstepRow{src: trace.ByName("mcf_r"), pol: p, warmup: 4_000, measure: 20_000, floors: []floor{shares(60, jumped), jumpedInto}})
	}
	jump(lockstepRow{src: trace.ByName("gcc_r"), pol: pol(defense.Unsafe, 0), warmup: 20_000, measure: 60_000, floors: []floor{sleptBelow(10)}})
	jump(lockstepRow{src: trace.ByName("gcc_r"), pol: pol(defense.DOM, defense.EP), warmup: 5_000, measure: 20_000})
	jump(lockstepRow{src: trace.ByName("ocean_cp"), pol: pol(defense.Fence, defense.EP), warmup: 1_000, measure: 4_000})
	jump(lockstepRow{src: trace.ByName("canneal"), pol: pol(defense.DOM, defense.EP), warmup: 1_000, measure: 3_000})
	jump(lockstepRow{src: trace.ByName("radix"), pol: pol(defense.STT, defense.LP), warmup: 1_000, measure: 3_000})
	jump(lockstepRow{src: atk("mcv"), pol: pol(defense.RCP, defense.Comp), warmup: 100, measure: 1 << 30})
	jump(lockstepRow{src: atk("interference"), pol: pol(defense.IS, defense.Comp),
		tune: func(c *arch.Config) { c.DirPortsPerCycle = 1 }, warmup: 100, measure: 1 << 30})
	jump(lockstepRow{src: barrierWaits(), pol: pol(defense.Unsafe, 0), warmup: 500, measure: 6_000})
	jump(lockstepRow{src: contendedLines(), pol: pol(defense.Fence, defense.EP),
		tune: cpt1, warmup: 500, measure: 2_000})

	// Sleep rows: a policy or configuration over its workloads, each of which
	// must hold some quiet ticks to a fixed point and sleep through some.
	works := []lockstepRow{{src: trace.ByName("mcf_r"), cycles: 16_000, stride: 16}, {src: trace.ByName("gcc_r"), cycles: 5_000, stride: 16},
		{src: trace.ByName("ocean_cp"), cycles: 4_000, stride: 32}, {src: trace.ByName("canneal"), cycles: 4_000, stride: 32},
		{src: trace.ByName("radix"), cycles: 4_000, stride: 32}, {src: atk("spectre_v1"), cycles: 4_000, stride: 16},
		{src: atk("alias"), cycles: 4_000, stride: 16}, {src: atk("mcv"), cycles: 4_000, stride: 16},
		{src: atk("interference"), cycles: 4_000, stride: 16}, {src: barrierWaits(), cycles: 3_000, stride: 4}}
	sleep := func(name string, p defense.Policy, tune func(*arch.Config), works ...lockstepRow) {
		for _, w := range works {
			w.pair, w.name, w.pol, w.tune, w.measure = "sleep", name+"/"+w.src.Name(), p, tune, 1<<40
			w.floors = append(w.floors, dozed)
			add("TestQuietTicksAreFixedPoints", w)
		}
	}
	for _, p := range []defense.Policy{pol(defense.Unsafe, 0), pol(defense.Fence, defense.Comp), pol(defense.Fence, defense.EP),
		pol(defense.DOM, defense.LP), pol(defense.DOM, defense.EP), pol(defense.STT, defense.LP), pol(defense.IS, defense.Comp),
		pol(defense.RCP, defense.Comp), rc(pol(defense.Fence, defense.Comp))} {
		sleep(p.String(), p, nil, works...)
	}
	// Late Pinning pins a contended line when its data arrives.
	sleep("Fence-LP", pol(defense.Fence, defense.LP), nil,
		lockstepRow{src: contendedLines(), cycles: 12_000, stride: 4, floors: []floor{counted("pin.pinned")}})
	sleep("DirPorts", pol(defense.IS, defense.Comp), func(c *arch.Config) { c.DirPortsPerCycle = 1 }, works[8])
	sleep("SmallCPT", pol(defense.Fence, defense.EP), cpt1,
		lockstepRow{src: contendedLines(), cycles: 12_000, stride: 4, floors: []floor{cptReached}})

	// Resume rows: fft on eight cores exercises coherence, barriers, locks
	// and RCP's in-flight journal; each resumes from the first and last safe
	// point.
	for _, p := range []defense.Policy{pol(defense.Unsafe, 0), pol(defense.Fence, defense.Comp), pol(defense.DOM, defense.LP),
		pol(defense.DOM, defense.EP), pol(defense.STT, defense.Comp), pol(defense.IS, defense.Comp), pol(defense.RCP, 0),
		pol(defense.RCP, defense.Spectre), rc(pol(defense.Unsafe, 0)), rc(pol(defense.RCP, 0))} {
		add("TestSnapshotRestoreEquivalence", lockstepRow{pair: "resume", name: p.String(), src: trace.ByName("fft"), pol: p,
			warmup: 1_000, measure: 6_000, from: []int{0, -1}})
	}
	// The attack kernel runs to its halt: checkpointing must not perturb the
	// timing the security oracle measures.
	add("TestSnapshotRestoreEquivalence", lockstepRow{pair: "resume", name: "attack",
		src: &trace.Attack{AttackKind: "spectre_v1", Secret: 1, Iters: 128}, pol: pol(defense.DOM, defense.LP),
		measure: 1_000_000, from: []int{0}, floors: []floor{halted}})

	// A restore where core 0's write buffer holds at least two stores: what
	// is derived from it must be rebuilt after it loads. Held to the original
	// on each of 2 000 cycles.
	for i, p := range []defense.Policy{pol(defense.Unsafe, 0), pol(defense.DOM, defense.EP)} {
		from := 2 + i
		add("TestRestoreWithBufferedStores", lockstepRow{pair: "resume", name: p.String(), src: trace.ByName("perlbench_r"), pol: p,
			measure: 1 << 40, cycles: int64(from+1)*poll + 2_000, every: 1, from: []int{from}, cancel: 1,
			floors: []floor{wbHeld, forwardedAfter}})
	}

	// internal/pipeline's restore forks: every workload and policy of its
	// candidate-list oracle, resumed from the first safe point of a source
	// that crashes right after it. An attack kernel runs 256 iterations, not
	// 16, so that it is still running at that safe point.
	for _, p := range []defense.Policy{pol(defense.Unsafe, 0), pol(defense.Fence, defense.EP), pol(defense.Fence, defense.Comp),
		pol(defense.Fence, defense.LP), pol(defense.DOM, defense.Comp), pol(defense.DOM, defense.EP), pol(defense.STT, defense.LP),
		pol(defense.IS, defense.Comp), pol(defense.RCP, defense.Comp), rc(pol(defense.Unsafe, 0))} {
		for _, w := range []lockstepRow{{src: trace.ByName("mcf_r"), cycles: 3 * poll}, {src: trace.ByName("gcc_r")},
			{src: trace.ByName("ocean_cp")}, {src: &trace.Attack{AttackKind: "spectre_v1", Secret: 1, Iters: 256}},
			{src: &trace.Attack{AttackKind: "alias", Secret: 1, Iters: 256}}, {src: &trace.Attack{AttackKind: "mcv", Secret: 1, Iters: 256}},
			{src: &trace.Attack{AttackKind: "interference", Secret: 1, Iters: 256}}, {src: faultStream()}} {
			w.pair, w.pol, w.measure, w.cycles, w.from, w.cancel = "resume", p, 1<<40, cmp.Or(w.cycles, 2*poll), []int{0}, 1
			add("", w)
		}
	}
	// The trace's annotation alone decides which branch mispredicts, so the
	// checkpoint carries no predictor: leela_r, the most mispredicting
	// workload, resumed under DOM-EP, which holds loads behind its branches.
	add("", lockstepRow{pair: "resume", src: trace.ByName("leela_r"), pol: pol(defense.DOM, defense.EP), measure: 1 << 40,
		cycles: 2 * poll, from: []int{0}, cancel: 1})

	// The hand-stepped loops, as jump rows. Early Pinning keeps a core's
	// pinned lines within Wd a directory set (paper Section 5.1.4), checked
	// every cycle on a contended run with the LLC shrunk.
	add("TestEPWdInvariant", lockstepRow{pair: "jump", src: trace.ByName("ocean_cp"), pol: pol(defense.Fence, defense.EP),
		tune: func(c *arch.Config) { c.LLCSets = 16 }, seed: 3, measure: 1 << 40, cycles: 5 * poll, check: 1,
		floors: []floor{counted("pin.pinned")}})
	// A pinned load occupies a load-queue entry.
	add("TestPinnedBoundedByLQ", lockstepRow{pair: "jump", src: trace.ByName("bwaves_r"), pol: pol(defense.Fence, defense.EP),
		measure: 1 << 40, cycles: 8 * poll, check: 1, floors: []floor{counted("pin.pinned")}})
	// Random well-formed scripts make progress under every policy.
	for trial := range 6 {
		for _, p := range []defense.Policy{pol(defense.Unsafe, 0), pol(defense.Fence, defense.Comp), pol(defense.Fence, defense.LP),
			pol(defense.Fence, defense.EP), pol(defense.DOM, defense.EP), pol(defense.STT, defense.LP), pol(defense.STT, defense.Spectre)} {
			add("TestRandomScriptsProgress", lockstepRow{pair: "jump", name: fmt.Sprintf("trial%d/%s", trial, p), src: randomScript(trial),
				pol: p, seed: uint64(trial + 1), measure: 1 << 40, cycles: 2 * poll, floors: []floor{progressed}})
		}
	}
	// Eight-core machines through LLC evictions, recalls and (under RCP)
	// SpecUndo removals of spec-born lines, with the LLC shrunk to 8 sets a
	// slice, fewer lines than the eight L1s hold between them.
	for _, bench := range []string{"ocean_cp", "canneal"} {
		for _, p := range []defense.Policy{pol(defense.DOM, defense.EP), pol(defense.RCP, defense.Comp), rc(pol(defense.Fence, 0))} {
			took := counted("coh.llc_evictions", "coh.msg.Recall")
			if p.Scheme == defense.RCP {
				took = counted("coh.llc_evictions", "coh.msg.Recall", "coh.msg.SpecUndo")
			}
			add("TestInvalidWaysAreZero", lockstepRow{pair: "jump", name: bench + "/" + p.String(), src: trace.ByName(bench), pol: p,
				tune: func(c *arch.Config) { c.LLCSets = 8 }, measure: 1 << 40, cycles: 6 * poll, check: 256, floors: []floor{took}})
		}
	}
	// Randomized small machines: the reservation bounds every cycle, and the
	// VP continuity of an event stream that dropped nothing.
	for trial := range 5 {
		rng := xrand.New(uint64(trial)*48271 + 11)
		l1Sets, l1Ways := []int{16, 32, 64}[rng.Intn(3)], []int{4, 8}[rng.Intn(2)]
		llcSets, wd, cpt := []int{16, 32}[rng.Intn(2)], 1+rng.Intn(4), rng.Intn(5)
		tune := func(c *arch.Config) {
			c.L1Sets, c.L1Ways, c.LLCSets, c.Wd, c.CPTEntries = l1Sets, l1Ways, llcSets, wd, cpt
		}
		for _, p := range []defense.Policy{pol(defense.Fence, defense.EP), pol(defense.Fence, defense.LP), pol(defense.DOM, defense.EP),
			pol(defense.STT, defense.LP)} {
			add("TestObservedInvariantsRandomized", lockstepRow{pair: "jump", name: fmt.Sprintf("trial%d/%s", trial, p),
				src: randomScript(trial), pol: p, tune: tune, seed: uint64(trial + 1), measure: 1 << 40, cycles: 2 * poll, check: 1,
				events: 1 << 18, floors: []floor{counted("pin.pinned"), recorded}})
		}
	}
	return rows
}()

// need is a floor: what must hold of the two ways an unperturbed row ended
// with (the jump pair logs its shares).
func need(what string, ok func(a, b *sim) bool) floor {
	return func(t testing.TB, a, b *sim) {
		if !ok(a, b) {
			t.Fatal("the row never reached its floor: " + what)
		}
	}
}

func shares(slept, jumped float64) floor {
	return need(fmt.Sprintf("%.0f%% of core-cycles slept, %.0f%% of cycles jumped", slept, jumped),
		func(_, b *sim) bool { return b.sleptPct() >= slept && b.jumpedPct() >= jumped })
}

func sleptBelow(pct float64) floor {
	return need(fmt.Sprintf("under %.0f%% of a busy workload's core-cycles slept", pct),
		func(_, b *sim) bool { return b.sleptPct() < pct })
}

func counted(names ...string) floor {
	return need(fmt.Sprintf("every one of %v moved", names), func(a, _ *sim) bool {
		return !slices.ContainsFunc(names, func(name string) bool { return a.count.Get(name) == 0 })
	})
}

func every(what string, ok func(*pipeline.Core) bool) floor {
	return need(what, func(a, _ *sim) bool {
		return !slices.ContainsFunc(a.cores, func(c *pipeline.Core) bool { return !ok(c) })
	})
}

var (
	jumpedInto     = need("a checkpoint safe point inside a jump span", func(_, b *sim) bool { return b.midSleep != nil })
	dozed          = need("a quiet tick held to a fixed point, a slept cycle", func(a, b *sim) bool { return a.quiet > 0 && b.sleptPct() > 0 })
	forwardedAfter = need("a load forwarded from a store after the restore", func(_, b *sim) bool { return b.forwarded() > b.fwd })
	wbHeld         = need("core 0's write buffer holding two stores at the restore", func(_, b *sim) bool { return b.wb >= 2 })
	recorded       = need("a ring that dropped no event", func(a, _ *sim) bool { return a.ring.Dropped() == 0 })
	halted         = every("every core halted", func(c *pipeline.Core) bool { return c.HaltCycle() >= 0 })
	progressed     = every("every core retired", func(c *pipeline.Core) bool { return c.Retired() > 0 })
	cptReached     = need("the Cannot-Pin Table reached", func(_, b *sim) bool {
		return slices.ContainsFunc(b.cores, func(c *pipeline.Core) bool { return c.CPT().Inserts() > 0 })
	})
)
