package branch

import (
	"testing"

	"pinnedloads/internal/xrand"
)

// predictor is what accuracy measures: TAGE, or the gshare baseline below.
type predictor interface {
	Predict(pc uint64) bool
	Update(pc uint64, taken bool)
}

// gshare is a global-history XOR-indexed pattern history table: the simpler
// predictor TAGE is held to on long histories.
type gshare struct {
	table   []counter
	history uint64
}

// newGShare returns a gshare predictor with 2^bits counters.
func newGShare(bits uint) *gshare {
	if bits == 0 || bits > 24 {
		panic("branch: gshare bits out of range")
	}
	g := &gshare{table: make([]counter, 1<<bits)}
	for i := range g.table {
		g.table[i] = 1 // weakly not-taken
	}
	return g
}

func (g *gshare) index(pc uint64) uint64 { return (pc ^ g.history) & (uint64(len(g.table)) - 1) }

func (g *gshare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

func (g *gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].train(taken)
	g.history = (g.history << 1) | boolBit(taken)
}

// accuracy trains a predictor on a deterministic outcome function and
// returns its hit rate over the last half of the run.
func accuracy(p predictor, outcome func(i int, pc uint64) bool, n int) float64 {
	hits, measured := 0, 0
	for i := 0; i < n; i++ {
		pc := uint64(0x400000 + 4*(i%16))
		taken := outcome(i, pc)
		pred := p.Predict(pc)
		if i >= n/2 {
			measured++
			if pred == taken {
				hits++
			}
		}
		p.Update(pc, taken)
	}
	return float64(hits) / float64(measured)
}

func TestGShareLearnsBias(t *testing.T) {
	// Always-taken branches must be predicted nearly perfectly.
	acc := accuracy(newGShare(12), func(int, uint64) bool { return true }, 4000)
	if acc < 0.99 {
		t.Fatalf("always-taken accuracy %.3f", acc)
	}
}

func TestGShareLearnsAlternating(t *testing.T) {
	// A strict alternation is history-predictable.
	acc := accuracy(newGShare(12), func(i int, _ uint64) bool { return i%2 == 0 }, 8000)
	if acc < 0.9 {
		t.Fatalf("alternating accuracy %.3f", acc)
	}
}

func TestTAGELearnsLongPattern(t *testing.T) {
	// A period-12 pattern needs long history; TAGE should learn it.
	pattern := []bool{true, true, false, true, false, false, true, false, true, true, false, false}
	acc := accuracy(NewTAGE(10, 9), func(i int, _ uint64) bool { return pattern[i%len(pattern)] }, 30000)
	if acc < 0.85 {
		t.Fatalf("TAGE period-12 accuracy %.3f", acc)
	}
}

func TestTAGEBeatsGShareOnLongHistory(t *testing.T) {
	pattern := []bool{true, true, false, true, false, false, true, false, true, true, false, false,
		true, false, false, false}
	f := func(i int, _ uint64) bool { return pattern[i%len(pattern)] }
	tage := accuracy(NewTAGE(10, 9), f, 40000)
	small := accuracy(newGShare(6), f, 40000)
	if tage <= small {
		t.Fatalf("TAGE %.3f not better than tiny gshare %.3f", tage, small)
	}
}

func TestPredictorsOnRandom(t *testing.T) {
	// Random outcomes: accuracy should hover near 50%, not crash.
	rng := xrand.New(7)
	acc := accuracy(NewTAGE(10, 9), func(int, uint64) bool { return rng.Bool(0.5) }, 10000)
	if acc < 0.3 || acc > 0.7 {
		t.Fatalf("random-outcome accuracy %.3f implausible", acc)
	}
}

func TestGSharePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newGShare(0) did not panic")
		}
	}()
	newGShare(0)
}

func TestFoldHistory(t *testing.T) {
	// Folding must be deterministic and within range.
	for h := uint64(0); h < 1000; h += 13 {
		f := foldHistory(h, 16, 9)
		if f >= 1<<9 {
			t.Fatalf("foldHistory out of range: %d", f)
		}
		if f != foldHistory(h, 16, 9) {
			t.Fatal("foldHistory not deterministic")
		}
	}
}
