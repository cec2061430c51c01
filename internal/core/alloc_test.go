package core

import (
	"testing"

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
