package coherence

import (
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/xrand"
)

// settle steps the harness until the system is quiescent (or fails).
func (h *harness) settle(t *testing.T, limit int) {
	t.Helper()
	for i := 0; i < limit; i++ {
		h.step(1)
		if h.sys.Quiescent() {
			return
		}
	}
	t.Fatalf("system not quiescent after %d cycles", limit)
}

// checkAll settles and validates the invariants.
func (h *harness) checkAll(t *testing.T) {
	t.Helper()
	h.settle(t, 5000)
	if err := h.sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := h.sys.CheckResidency(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsAfterSharing(t *testing.T) {
	h := newHarness(t, 4)
	for i := 0; i < 4; i++ {
		h.sys.L1(i).Load(int64(i), 0x40)
		h.step(300)
	}
	h.checkAll(t)
}

func TestInvariantsAfterOwnershipMigration(t *testing.T) {
	h := newHarness(t, 4)
	for round := 0; round < 8; round++ {
		w := h.sys.L1(round % 4)
		w.Acquire(0x40)
		h.step(400)
		w.MergeStore(0x40)
		h.checkAll(t)
	}
}

func TestInvariantsAfterEvictionStorm(t *testing.T) {
	cfg := arch.PaperConfig(2)
	cfg.Prefetch = false
	cfg.L1Sets = 4
	cfg.L1Ways = 2
	h := &harness{}
	h.sys = NewSystem(&cfg, &h.count)
	for i := 0; i < 2; i++ {
		fc := newFakeCore()
		h.cores = append(h.cores, fc)
		h.sys.L1(i).SetHooks(fc)
	}
	// Hammer one set with reads and writes from both cores.
	token := int64(0)
	for i := 0; i < 30; i++ {
		line := uint64((i % 5) * 4)
		if i%3 == 0 {
			h.sys.L1(i % 2).Acquire(line)
		} else {
			token++
			h.sys.L1(i%2).Load(token, line)
		}
		h.step(120)
	}
	h.checkAll(t)
}

// TestInvariantsRandomized is a property test: random interleavings of
// loads, stores, pins and unpins across four cores must always converge to
// a state satisfying the coherence invariants.
func TestInvariantsRandomized(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := xrand.New(uint64(trial)*7919 + 3)
		h := newHarness(t, 4)
		token := int64(0)
		pinnedBy := map[uint64]int{} // line -> core holding a pin
		for op := 0; op < 120; op++ {
			core := rng.Intn(4)
			line := uint64(rng.Intn(12)) * 64
			switch rng.Intn(4) {
			case 0, 1:
				token++
				h.sys.L1(core).Load(token, line)
			case 2:
				h.sys.L1(core).Acquire(line)
			case 3:
				// Toggle a pin, keeping at most one pinner per line so
				// the test can release them all at the end.
				if c, ok := pinnedBy[line]; ok {
					delete(h.cores[c].pinned, line)
					delete(pinnedBy, line)
				} else if h.sys.L1(core).Probe(line) {
					h.cores[core].pinned[line] = true
					pinnedBy[line] = core
				}
			}
			h.step(rng.Intn(40) + 1)
		}
		// Release every pin so deferred writes can complete, then settle.
		for line, core := range pinnedBy {
			delete(h.cores[core].pinned, line)
		}
		h.checkAll(t)
	}
}
