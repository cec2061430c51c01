package core

import (
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
)

// deadlockScript builds a two-core workload that stops retiring: core 0
// spins on a barrier that core 1 (which halts immediately) never reaches.
func deadlockScript() *trace.Script {
	return &trace.Script{
		ScriptName: "deadlock",
		NumCores:   2,
		Insts: [][]isa.Inst{
			{{Op: isa.Barrier}},
			{},
		},
		Loop: true,
	}
}

// TestRunUntilDeadlockBackstop checks the progress-window backstop: a
// workload that stops retiring must return an error instead of hanging.
func TestRunUntilDeadlockBackstop(t *testing.T) {
	sys, err := New(arch.PaperConfig(2), defense.Policy{Scheme: defense.Unsafe}, deadlockScript(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(0, 1_000)
	if err == nil {
		t.Fatal("deadlocked workload returned no error")
	}
	if !strings.Contains(err.Error(), "no retirement progress") {
		t.Fatalf("error = %v, want progress-window backstop", err)
	}
	// Both cores are asleep from the start, so the run jumps from poll to
	// poll; the backstop must still fire at the first poll past the window,
	// the cycle it fired at when every cycle was stepped.
	if !strings.Contains(err.Error(), "at cycle 200704 ") {
		t.Fatalf("error = %v, want the backstop at cycle 200704", err)
	}
	if _, jumped := sys.FastForwarded(); jumped < 190_000 {
		t.Fatalf("a machine with nothing to do jumped only %d of its cycles", jumped)
	}
}
