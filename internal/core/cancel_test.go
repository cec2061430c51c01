package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/trace"
)

func newTestSystem(t *testing.T) *System {
	t.Helper()
	b := trace.ByName("gcc_r")
	sys, err := New(arch.PaperConfig(b.Cores()), defense.Policy{Scheme: defense.Unsafe}, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRunContextCanceled checks that an already-canceled context stops the
// run before it simulates anything.
func TestRunContextCanceled(t *testing.T) {
	sys := newTestSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sys.RunContext(ctx, 0, 1_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sys.Cycle() > ctxCheckMask {
		t.Fatalf("ran %d cycles after cancellation", sys.Cycle())
	}
}

// TestRunContextDeadline checks that a deadline interrupts a long
// simulation mid-run: the measured target is far beyond what the deadline
// allows, yet RunContext returns promptly with DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	sys := newTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sys.RunContext(ctx, 0, 1<<40)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %v after a 30ms deadline", elapsed)
	}
	if sys.Cycle() == 0 {
		t.Fatal("deadline fired before any simulation progress")
	}
}

// TestRunContextBackground checks the plain Run path is unaffected by the
// cancellation plumbing.
func TestRunContextBackground(t *testing.T) {
	sys := newTestSystem(t)
	res, err := sys.Run(500, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPI <= 0 {
		t.Fatalf("CPI = %v", res.CPI)
	}
}

// TestCancelLandsAtNextPoll checks that the clock jump never carries a run
// past a poll: a context canceled at one poll boundary (from the checkpoint
// hook, which runs there) stops the run at the very next one, 4096 cycles
// later, on a stalled workload and on a machine asleep from its first cycle.
func TestCancelLandsAtNextPoll(t *testing.T) {
	for _, w := range []trace.Source{trace.ByName("mcf_r"), deadlockScript()} {
		sys, err := New(arch.PaperConfig(w.Cores()), defense.Policy{Scheme: defense.Unsafe}, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		const cancelAt = 10 * (ctxCheckMask + 1)
		sys.SetCheckpointHook(ctxCheckMask+1, func() error {
			if sys.Cycle() == cancelAt {
				cancel()
			}
			return nil
		})
		_, err = sys.RunContext(ctx, 0, 1<<40)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", w.Name(), err)
		}
		if got := sys.Cycle(); got != cancelAt+ctxCheckMask+1 {
			t.Fatalf("%s: canceled at cycle %d, run stopped at %d, want %d", w.Name(), cancelAt, got, cancelAt+ctxCheckMask+1)
		}
		if _, jumped := sys.FastForwarded(); jumped == 0 {
			t.Fatalf("%s: the run never jumped", w.Name())
		}
		cancel()
	}
}
