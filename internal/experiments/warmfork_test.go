package experiments

import (
	"bytes"
	"testing"
	"time"

	"pinnedloads/internal/checkpoint"
	"pinnedloads/internal/defense"
)

// TestWarmForkCSVIdentical is the shared-warmup acceptance bar: a Figure 7
// sweep that forks every simulation from a stored warmup checkpoint must
// produce CSV output byte-identical to the cold sweep that created the
// checkpoints.
func TestWarmForkCSVIdentical(t *testing.T) {
	p := QuickParams()
	if testing.Short() {
		p = Params{Warmup: 500, Measure: 1500, Seed: 1}
	}
	if raceEnabled {
		p = Params{Warmup: 300, Measure: 600, Seed: 1}
	}
	store := NewWarmStore()

	cold := NewRunner(p)
	cold.Warm = store
	start := time.Now()
	f1, err := RunCPIFigure(cold, "Figure 7 (SPEC17)", "SPEC17")
	if err != nil {
		t.Fatal(err)
	}
	coldDur := time.Since(start)
	csv1, err := MarshalCSV(f1)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Forks() != 0 {
		t.Errorf("cold sweep forked %d runs from an empty store", cold.Forks())
	}
	if store.Len() == 0 {
		t.Fatal("cold sweep published no warm checkpoints")
	}

	// A second runner sharing the store has its own (empty) memo, so every
	// simulation re-executes — but each one forks the warmed prefix
	// instead of re-simulating warmup.
	forked := NewRunner(p)
	forked.Warm = store
	start = time.Now()
	f2, err := RunCPIFigure(forked, "Figure 7 (SPEC17)", "SPEC17")
	if err != nil {
		t.Fatal(err)
	}
	forkedDur := time.Since(start)
	csv2, err := MarshalCSV(f2)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(csv1, csv2) {
		t.Fatalf("warm-forked sweep CSV differs from cold sweep:\n%s",
			firstDiff(string(csv1), string(csv2)))
	}
	if f1.String() != f2.String() {
		t.Fatalf("warm-forked sweep table differs from cold sweep:\n%s",
			firstDiff(f1.String(), f2.String()))
	}
	if forked.Forks() != forked.Simulations() {
		t.Errorf("only %d of %d simulations forked the warm checkpoint",
			forked.Forks(), forked.Simulations())
	}
	t.Logf("cold sweep %v, warm-forked sweep %v (%d warm prefixes, %d forks)",
		coldDur, forkedDur, store.Len(), forked.Forks())
}

// TestWarmForkMeasureIndependence checks the warm key excludes the measure
// length: one warmed prefix serves runs that measure different intervals.
func TestWarmForkMeasureIndependence(t *testing.T) {
	store := NewWarmStore()
	short := Params{Warmup: 1_000, Measure: 1_000, Seed: 1}
	long := Params{Warmup: 1_000, Measure: 3_000, Seed: 1}

	a := NewRunner(short)
	a.Warm = store
	if _, err := a.unsafeCPI(suiteBenches("SPEC17")[0]); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d prefixes, want 1", store.Len())
	}

	b := NewRunner(long)
	b.Warm = store
	out, err := b.unsafeCPI(suiteBenches("SPEC17")[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Forks() != 1 {
		t.Fatalf("longer-measure run did not fork the warm prefix (forks=%d)", b.Forks())
	}
	if out <= 0 {
		t.Fatalf("forked run produced CPI %v", out)
	}

	// The forked result must match a cold run of the same sizing.
	c := NewRunner(long)
	ref, err := c.unsafeCPI(suiteBenches("SPEC17")[0])
	if err != nil {
		t.Fatal(err)
	}
	if out != ref {
		t.Fatalf("forked CPI %v != cold CPI %v", out, ref)
	}
}

// TestWarmForkIgnoresOldFormatBlob: a store that holds a blob of the
// previous checkpoint format under a run's key (no store outlives its
// process today, so this is a store someone persisted) does not fork it and
// does not fail: the run simulates cold and gives the cold result.
func TestWarmForkIgnoresOldFormatBlob(t *testing.T) {
	p := Params{Warmup: 1_000, Measure: 1_000, Seed: 1}
	bench := suiteBenches("SPEC17")[0]
	cold := NewRunner(p)
	want, err := cold.unsafeCPI(bench)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(p)
	r.Warm = NewWarmStore()
	run, err := r.resolve(bench, defense.Policy{Scheme: defense.Unsafe}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The previous format is Version-1, whatever Version is: the one a
	// binary built before the last bump wrote.
	r.Warm.store(run.WarmKey(),
		append([]byte{'P', 'L', 'C', 'K', checkpoint.Version - 1, 0, 0, 0, 0}, "the previous format's body"...))
	got, err := r.unsafeCPI(bench)
	if err != nil {
		t.Fatal(err)
	}
	if r.Forks() != 0 || r.Simulations() != 1 || got != want {
		t.Fatalf("forks=%d simulations=%d CPI %v, want 0, 1 and the cold CPI %v", r.Forks(), r.Simulations(), got, want)
	}
}
