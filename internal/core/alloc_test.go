package core

import (
	"context"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/trace"
)

// warmupCycles fills the pipeline and warms the caches before a budget is
// measured, so that it prices the steady state, not the cold start. 20k
// cycles is past the point where a cycle's work stabilizes for every scheme
// (the slowest, Fence-Comp, reaches steady state within ~5k).
const warmupCycles = 20_000

// newWarmSystem builds a 1-core system running the named proxy under the
// policy, attaches the recorder (nil leaves the obs.Nop default) and steps
// it through the warm-up.
func newWarmSystem(t *testing.T, proxy string, pol defense.Policy, rec obs.Recorder) *System {
	t.Helper()
	sys, err := New(arch.PaperConfig(1), pol, trace.ByName(proxy), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		sys.SetRecorder(rec)
	}
	for i := 0; i < warmupCycles; i++ {
		sys.stepCycle()
	}
	return sys
}

// namedPolicy is one row of a policy family.
type namedPolicy struct {
	name string
	pol  defense.Policy
}

// busyPolicies is the family on the busy gcc_r proxy: the unsafe baseline
// under both consistency models, the two conventional-defense extremes
// (full fence, STT), the invisible-speculation and reversible-rollback
// schemes, and Pinned Loads in both Late and Early Pinning variants over
// Delay-On-Miss.
var busyPolicies = []namedPolicy{
	{"Unsafe", defense.Policy{Scheme: defense.Unsafe}},
	{"Unsafe@RC", defense.Policy{Scheme: defense.Unsafe, Consistency: defense.RC}},
	{"Fence", defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}},
	{"DOM-LP", defense.Policy{Scheme: defense.DOM, Variant: defense.LP}},
	{"DOM-EP", defense.Policy{Scheme: defense.DOM, Variant: defense.EP}},
	{"STT", defense.Policy{Scheme: defense.STT, Variant: defense.Comp}},
	{"IS", defense.Policy{Scheme: defense.IS, Variant: defense.Comp}},
	{"RCP", defense.Policy{Scheme: defense.RCP, Variant: defense.Comp}},
}

// stallPolicies is the family for the stalled loop: mcf_r retires nothing
// on ~95% of its cycles, so these rows price a cycle whose only work is the
// load queue waiting — one row per way a scheme makes it wait.
var stallPolicies = []namedPolicy{
	{"Unsafe", defense.Policy{Scheme: defense.Unsafe}},
	{"Fence", defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}},
	{"DOM", defense.Policy{Scheme: defense.DOM, Variant: defense.Comp}},
	{"IS", defense.Policy{Scheme: defense.IS, Variant: defense.Comp}},
	{"RCP", defense.Policy{Scheme: defense.RCP, Variant: defense.Comp}},
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

// runStallChunk is the retirement target step of one runUntil call: long
// enough (tens of thousands of cycles on mcf_r) that re-arming the target,
// which wakes the core, is noise.
const runStallChunk = 4_000

// TestSteadyStateCycleAllocs pins the cycle loop's allocation budget with
// tracing disabled: after warmup, stepping the machine must not allocate
// at all, for every row of both policy families. This is the property
// the pointer-handle counters, the per-set pin counts, the ring queues and
// the fixed-window seq lists exist to provide; any regression here shows
// up as a nonzero average long before it moves ns/cycle.
func TestSteadyStateCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, fam := range []struct {
		prefix, proxy string
		rows          []namedPolicy
	}{
		{"", "gcc_r", busyPolicies},
		{"Stall/", "mcf_r", stallPolicies},
	} {
		for _, c := range fam.rows {
			t.Run(fam.prefix+c.name, func(t *testing.T) {
				sys := newWarmSystem(t, fam.proxy, c.pol, nil)
				avg := testing.AllocsPerRun(2000, func() { sys.stepCycle() })
				if avg != 0 {
					t.Fatalf("steady-state cycle loop allocates %v/cycle with tracing off, want 0", avg)
				}
			})
		}
	}
}

// TestSteadyStateCycleAllocsRunLoop extends the budget to the run loop on the stalled
// proxy, where most cycles are slept through or jumped over. Falling asleep
// (the counter snapshot and the replay list live in slices NewCore sized),
// replaying, jumping and waking allocate nothing: what is left is the
// amortized growth of queues and maps that stepping every cycle has too
// (under 0.01 per cycle on these rows, which AllocsPerRun above reports as
// 0), so the bound is per simulated cycle. A machine with nothing to do at
// all, which only jumps, must not allocate once.
func TestSteadyStateCycleAllocsRunLoop(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	ctx := context.Background()
	for _, c := range stallPolicies {
		t.Run(c.name, func(t *testing.T) {
			sys := newWarmSystem(t, "mcf_r", c.pol, nil)
			target, start := sys.totalRetired(), sys.cycle
			const chunks = 5
			perChunk := testing.AllocsPerRun(chunks, func() {
				target += runStallChunk
				if err := sys.runUntil(ctx, target); err != nil {
					t.Fatal(err)
				}
			})
			// AllocsPerRun runs the function once more, to warm up.
			perCycle := perChunk * (chunks + 1) / float64(sys.cycle-start)
			if perCycle > 0.02 {
				t.Fatalf("runUntil allocates %.4f per simulated cycle, want <= 0.02", perCycle)
			}
			jumps, _ := sys.FastForwarded()
			if jumps == 0 || sys.cores[0].SleptCycles() == 0 {
				t.Fatalf("%d jumps, %d slept cycles: the run exercised neither", jumps, sys.cores[0].SleptCycles())
			}
		})
	}
	t.Run("Idle", func(t *testing.T) {
		sys, err := New(arch.PaperConfig(2), defense.Policy{Scheme: defense.Unsafe}, deadlockScript(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			sys.stepCycle()
		}
		avg := testing.AllocsPerRun(200, func() {
			sys.fastForward()
			sys.stepCycle()
		})
		if avg != 0 {
			t.Fatalf("a jump allocates %v, want 0", avg)
		}
		if jumps, _ := sys.FastForwarded(); jumps < 200 {
			t.Fatalf("the idle machine jumped %d times in 201 attempts", jumps)
		}
	})
}

// TestSteadyStateCycleAllocsCheckpointOff pins that a disabled checkpoint
// hook (CheckpointEvery = 0, the default everywhere) leaves the cycle loop
// at exactly zero allocations — the subsystem must be free when unused.
func TestSteadyStateCycleAllocsCheckpointOff(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	sys := newWarmSystem(t, "gcc_r", defense.Policy{Scheme: defense.DOM, Variant: defense.LP}, nil)
	sys.SetCheckpointHook(0, nil)
	avg := testing.AllocsPerRun(2000, func() { sys.stepCycle() })
	if avg != 0 {
		t.Fatalf("steady-state cycle loop allocates %v/cycle with checkpointing disabled, want 0", avg)
	}
}

// TestSteadyStateCycleAllocsTracerOn pins the tracing overhead: with a
// ring recorder attached, the budget is a small constant — ring stores, no
// per-event allocation. The bound is deliberately tight so a reintroduced
// per-event allocation (one alloc per traced event, several events per cycle)
// fails immediately.
func TestSteadyStateCycleAllocsTracerOn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	sys := newWarmSystem(t, "gcc_r", defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, obs.NewRing(1<<16))
	avg := testing.AllocsPerRun(2000, func() { sys.stepCycle() })
	if avg > 0.05 {
		t.Fatalf("steady-state cycle loop allocates %v/cycle with tracing on, want <= 0.05", avg)
	}
}

// TestCheckpointAllocs pins what a snapshot and a restore of a warmed 1-core
// gcc_r system under DOM-LP allocate — the Pinned Loads design point with the
// most checkpointable structures (CSTs, CPT, per-set pin counts). A snapshot
// is the exact-size copy ckptio.Encode returns from its recycled buffer and
// the sorted counter names; a restore shares the names the machine has bound
// instead of decoding each into a string (106 allocations when it did).
func TestCheckpointAllocs(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation budgets do not hold under the race detector or -coverpkg")
	}
	pol := defense.Policy{Scheme: defense.DOM, Variant: defense.LP}
	sys := newWarmSystem(t, "gcc_r", pol, nil)
	blob, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(3, func() { sys.Snapshot() }); got > 4 {
		t.Errorf("Snapshot allocates %v times, want at most 4", got)
	}
	dst := newWarmSystem(t, "gcc_r", pol, nil)
	if got := testing.AllocsPerRun(3, func() {
		if err := dst.Restore(blob); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Restore allocates %v times, want at most 1", got)
	}
}
