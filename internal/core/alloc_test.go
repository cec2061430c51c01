package core

import (
	"context"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
)

// TestSteadyStateCycleAllocs pins the cycle loop's allocation budget with
// tracing disabled: after warmup, stepping the machine must not allocate
// at all, for every row of both benchmark families. This is the property
// the pointer-handle counters, the per-set pin counts, the ring queues and
// the fixed-window seq lists exist to provide; any regression here shows
// up as a nonzero average long before it moves ns/cycle.
func TestSteadyStateCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, fam := range []struct {
		prefix, proxy string
		rows          []benchPolicy
	}{
		{"", "gcc_r", benchPolicies},
		{"Stall/", "mcf_r", benchStallPolicies},
	} {
		for _, c := range fam.rows {
			t.Run(fam.prefix+c.name, func(t *testing.T) {
				sys := newBenchSystem(t, fam.proxy, c.pol, nil)
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
// (under 0.01 per cycle on these rows, which the benchmark gate's integer
// allocs/op and AllocsPerRun above both report as 0), so the bound is per
// simulated cycle. A machine with nothing to do at all, which only jumps,
// must not allocate once.
func TestSteadyStateCycleAllocsRunLoop(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	ctx := context.Background()
	for _, c := range benchStallPolicies {
		t.Run(c.name, func(t *testing.T) {
			sys := newBenchSystem(t, "mcf_r", c.pol, nil)
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
	sys := newBenchSystem(t, "gcc_r", defense.Policy{Scheme: defense.DOM, Variant: defense.LP}, nil)
	sys.SetCheckpointHook(0, nil)
	avg := testing.AllocsPerRun(2000, func() { sys.stepCycle() })
	if avg != 0 {
		t.Fatalf("steady-state cycle loop allocates %v/cycle with checkpointing disabled, want 0", avg)
	}
}

// TestSteadyStateCycleAllocsTracerOn pins the tracing overhead: with a
// ring recorder attached (fronted by the shared event batch), the budget
// is a small constant — batch appends and bulk ring copies, no per-event
// allocation. The bound is deliberately tight so a reintroduced per-event
// allocation (one alloc per traced event, several events per cycle) fails
// immediately.
func TestSteadyStateCycleAllocsTracerOn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	sys := newBenchSystem(t, "gcc_r", defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, obs.NewRing(1<<16))
	defer sys.flushEvents()
	avg := testing.AllocsPerRun(2000, func() { sys.stepCycle() })
	if avg > 0.05 {
		t.Fatalf("steady-state cycle loop allocates %v/cycle with tracing on, want <= 0.05", avg)
	}
}
