package core

import (
	"context"
	"testing"
	"time"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/trace"
)

// benchWarmupCycles fills the pipeline and warms the caches before the
// timed region so every benchmark measures the steady state, not the cold
// start. 20k cycles is past the point where per-cycle cost stabilizes for
// every scheme (the slowest, Fence-Comp, reaches steady state within ~5k).
const benchWarmupCycles = 20_000

// newBenchSystem builds a 1-core system running the named proxy under the
// policy, attaches the recorder (nil leaves the obs.Nop default), and runs
// the warmup outside the timed region. All CoreCycle benchmarks share it so
// their ns/cycle figures are comparable across policies and across PRs.
func newBenchSystem(tb testing.TB, proxy string, pol defense.Policy, rec obs.Recorder) *System {
	tb.Helper()
	sys, err := New(arch.PaperConfig(1), pol, trace.ByName(proxy), 1)
	if err != nil {
		tb.Fatal(err)
	}
	if rec != nil {
		sys.SetRecorder(rec)
	}
	for i := 0; i < benchWarmupCycles; i++ {
		sys.stepCycle()
	}
	return sys
}

// benchCycleLoop measures the core cycle loop — the simulator's hot path.
// System construction and warmup happen before b.ResetTimer, and
// b.ReportAllocs is always on, so ns/op is exactly ns/cycle and allocs/op
// is exactly allocs/cycle: the two numbers BENCH_baseline.json pins and
// scripts/bench_ci.sh diffs across PRs.
func benchCycleLoop(b *testing.B, proxy string, pol defense.Policy, rec obs.Recorder) {
	sys := newBenchSystem(b, proxy, pol, rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.stepCycle()
	}
	b.StopTimer()
	sys.flushEvents()
}

// benchPolicy is one named row of a benchmark family.
type benchPolicy struct {
	name string
	pol  defense.Policy
}

// benchPolicies is the measurement spine's policy family on the busy
// gcc_r proxy: the unsafe baseline under both consistency models, the two
// conventional-defense extremes (full fence, STT), the invisible-
// speculation and reversible-rollback schemes, and Pinned Loads in both
// Late and Early Pinning variants over Delay-On-Miss.
var benchPolicies = []benchPolicy{
	{"Unsafe", defense.Policy{Scheme: defense.Unsafe}},
	{"Unsafe@RC", defense.Policy{Scheme: defense.Unsafe, Consistency: defense.RC}},
	{"Fence", defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}},
	{"DOM-LP", defense.Policy{Scheme: defense.DOM, Variant: defense.LP}},
	{"DOM-EP", defense.Policy{Scheme: defense.DOM, Variant: defense.EP}},
	{"STT", defense.Policy{Scheme: defense.STT, Variant: defense.Comp}},
	{"IS", defense.Policy{Scheme: defense.IS, Variant: defense.Comp}},
	{"RCP", defense.Policy{Scheme: defense.RCP, Variant: defense.Comp}},
}

// benchStallPolicies is the family for the stalled loop: mcf_r retires
// nothing on ~95% of its cycles, so these rows price a cycle whose only
// work is the load queue waiting — one row per way a scheme makes it wait.
var benchStallPolicies = []benchPolicy{
	{"Unsafe", defense.Policy{Scheme: defense.Unsafe}},
	{"Fence", defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}},
	{"DOM", defense.Policy{Scheme: defense.DOM, Variant: defense.Comp}},
	{"IS", defense.Policy{Scheme: defense.IS, Variant: defense.Comp}},
	{"RCP", defense.Policy{Scheme: defense.RCP, Variant: defense.Comp}},
}

// BenchmarkCoreCycle measures steady-state ns/cycle and allocs/cycle for
// each defense policy with tracing disabled. This family and
// BenchmarkCoreCycleStall are the perf trajectory: scripts/bench_ci.sh
// compares them against BENCH_baseline.json and fails on >10% ns/cycle or
// any allocs/cycle regression.
func BenchmarkCoreCycle(b *testing.B) {
	for _, c := range benchPolicies {
		b.Run(c.name, func(b *testing.B) {
			benchCycleLoop(b, "gcc_r", c.pol, nil)
		})
	}
}

// BenchmarkCoreCycleStall steps every cycle, so on mcf_r it prices the
// per-core sleep (most of these cycles are replayed, not evaluated) without
// the clock jump; BenchmarkRunStall adds the jump.
func BenchmarkCoreCycleStall(b *testing.B) {
	for _, c := range benchStallPolicies {
		b.Run(c.name, func(b *testing.B) {
			benchCycleLoop(b, "mcf_r", c.pol, nil)
		})
	}
}

// runUntil runs RunContext's cycle loop until every core has retired target
// instructions or halted: a run with no warmup.
func (s *System) runUntil(ctx context.Context, target int64) error {
	for r := s.begin(ctx, 0, target); ; {
		if more, err := s.step(&r); !more {
			return err
		}
	}
}

// runStallChunk is the retirement target step of one runUntil call in
// BenchmarkRunStall and the allocation test: long enough (tens of thousands
// of cycles on mcf_r) that re-arming the target, which wakes the core, is
// noise.
const runStallChunk = 4_000

// BenchmarkRunStall measures the stalled loop through runUntil, the way a
// real run executes it: ns/op is host nanoseconds per *simulated* cycle,
// jumped cycles included, so the whole-machine clock jump is on the gate.
func BenchmarkRunStall(b *testing.B) {
	for _, c := range benchStallPolicies {
		b.Run(c.name, func(b *testing.B) {
			sys := newBenchSystem(b, "mcf_r", c.pol, nil)
			ctx := context.Background()
			target := sys.totalRetired()
			b.ReportAllocs()
			b.ResetTimer()
			start, t0 := sys.cycle, time.Now()
			for sys.cycle-start < int64(b.N) {
				target += runStallChunk
				if err := sys.runUntil(ctx, target); err != nil {
					b.Fatal(err)
				}
			}
			// A chunk ends on an instruction count, not on cycle b.N: report
			// the time per cycle actually simulated.
			b.ReportMetric(float64(time.Since(t0).Nanoseconds())/float64(sys.cycle-start), "ns/op")
		})
	}
}

// BenchmarkCoreCycleTracerOff/On quantify the observability overhead on
// the Fence-EP design point; the disabled path must stay under 5%
// (EXPERIMENTS.md records baselines).
func BenchmarkCoreCycleTracerOff(b *testing.B) {
	benchCycleLoop(b, "gcc_r", defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, nil)
}

func BenchmarkCoreCycleTracerOn(b *testing.B) {
	benchCycleLoop(b, "gcc_r", defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, obs.NewRing(1<<16))
}
