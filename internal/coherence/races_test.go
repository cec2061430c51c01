package coherence

import (
	"fmt"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/stats"
)

// tinyHarness builds a 2-core system with a 2-way L1 so evictions and the
// associated protocol races are easy to provoke.
func tinyHarness(t *testing.T) *harness {
	t.Helper()
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
	return h
}

// lineInSet returns the i-th line mapping to L1 set 0 of a 4-set cache.
func lineInSet(i int) uint64 { return uint64(i * 4) }

func TestDirtyEvictionThenReRead(t *testing.T) {
	h := tinyHarness(t)
	l1 := h.sys.L1(0)
	// Own and dirty a line, then force it out with two more fills in the
	// same 2-way set.
	l1.Acquire(lineInSet(0))
	h.step(300)
	l1.MergeStore(lineInSet(0))
	l1.Load(1, lineInSet(1))
	h.step(300)
	l1.Load(2, lineInSet(2))
	h.step(300)
	if l1.Probe(lineInSet(0)) {
		t.Fatal("dirty line not evicted from a full set")
	}
	if h.count.Get("coh.msg.PutM") == 0 {
		t.Fatal("dirty eviction did not write back")
	}
	// Re-reading must fetch the written-back data without deadlock.
	l1.Load(3, lineInSet(0))
	h.step(300)
	if h.cores[0].doneCount(3) != 1 {
		t.Fatal("re-read after writeback failed")
	}
}

func TestReadDuringWriteback(t *testing.T) {
	h := tinyHarness(t)
	l0, l1c := h.sys.L1(0), h.sys.L1(1)
	// Core 0 dirties a line.
	l0.Acquire(lineInSet(0))
	h.step(300)
	l0.MergeStore(lineInSet(0))
	// Evict it (PutM in flight) and immediately have core 1 read it: the
	// FwdGetS may cross the PutM; either the evict buffer serves it or
	// the directory completes the downgrade via the PutM (dir.go).
	l0.Load(1, lineInSet(1))
	l0.Load(2, lineInSet(2))
	l1c.Load(50, lineInSet(0))
	h.step(800)
	if h.cores[1].doneCount(50) != 1 {
		t.Fatal("reader never got data across the writeback race")
	}
}

func TestWriteDuringWriteback(t *testing.T) {
	h := tinyHarness(t)
	l0, l1c := h.sys.L1(0), h.sys.L1(1)
	l0.Acquire(lineInSet(0))
	h.step(300)
	l0.MergeStore(lineInSet(0))
	// Evict the dirty line while core 1 acquires it.
	l0.Load(1, lineInSet(1))
	l0.Load(2, lineInSet(2))
	l1c.Acquire(lineInSet(0))
	h.step(1000)
	if !l1c.HasWritable(lineInSet(0)) {
		t.Fatal("writer never obtained the line across the writeback race")
	}
}

func TestUpgradeFromShared(t *testing.T) {
	h := newHarness(t, 2)
	// Both cores share the line; core 0 upgrades.
	h.sys.L1(0).Load(1, 0x40)
	h.step(300)
	h.sys.L1(1).Load(2, 0x40)
	h.step(300)
	h.sys.L1(0).Acquire(0x40)
	h.step(300)
	if !h.sys.L1(0).HasWritable(0x40) {
		t.Fatal("upgrade failed")
	}
	if h.sys.L1(1).Probe(0x40) {
		t.Fatal("other sharer kept its copy across an upgrade")
	}
}

func TestWritePingPong(t *testing.T) {
	h := newHarness(t, 2)
	// Alternating ownership must converge every round.
	for round := 0; round < 6; round++ {
		w := h.sys.L1(round % 2)
		w.Acquire(0x40)
		h.step(400)
		if !w.HasWritable(0x40) {
			t.Fatalf("round %d: ownership not transferred", round)
		}
		w.MergeStore(0x40)
	}
}

func TestManyReadersOneWriter(t *testing.T) {
	cfg := arch.PaperConfig(8)
	cfg.Prefetch = false
	h := &harness{}
	h.sys = NewSystem(&cfg, &h.count)
	for i := 0; i < 8; i++ {
		fc := newFakeCore()
		h.cores = append(h.cores, fc)
		h.sys.L1(i).SetHooks(fc)
	}
	for i := 0; i < 8; i++ {
		h.sys.L1(i).Load(int64(i), 0x40)
		h.step(300)
	}
	// Writer must collect 7 invalidation acks.
	h.sys.L1(0).Acquire(0x40)
	h.step(600)
	if !h.sys.L1(0).HasWritable(0x40) {
		t.Fatal("writer never collected all sharer acks")
	}
	for i := 1; i < 8; i++ {
		if h.sys.L1(i).Probe(0x40) {
			t.Fatalf("sharer %d kept its copy", i)
		}
	}
}

func TestDeferFromMultiplePinners(t *testing.T) {
	h := newHarness(t, 4)
	for i := 0; i < 4; i++ {
		if i != 1 {
			h.sys.L1(i).Load(int64(i), 0x40)
			h.step(300)
			h.cores[i].pinned[0x40] = true
		}
	}
	// Core 1 writes: all three pinners defer.
	h.sys.L1(1).Acquire(0x40)
	h.step(100)
	if h.sys.L1(1).HasWritable(0x40) {
		t.Fatal("write succeeded against three pinned copies")
	}
	// Unpin them one by one; only after the last unpin can the write win.
	h.cores[0].pinned = map[uint64]bool{}
	h.step(200)
	if h.sys.L1(1).HasWritable(0x40) {
		t.Fatal("write succeeded while two copies were still pinned")
	}
	h.cores[2].pinned = map[uint64]bool{}
	h.cores[3].pinned = map[uint64]bool{}
	h.step(500)
	if !h.sys.L1(1).HasWritable(0x40) {
		t.Fatal("write never succeeded after every pin was released")
	}
}

// TestFabricDelayBound: a delay of the ring's own length would land in the
// slot being delivered, so schedule refuses it, whatever the length.
func TestFabricDelayBound(t *testing.T) {
	for _, row := range fabricRows {
		t.Run(fmt.Sprint(row.slots), func(t *testing.T) {
			f, _ := fabricFor(t, row.dram, row.slots)
			f.schedule(Msg{}, row.slots-1)
			defer func() {
				if recover() == nil {
					t.Fatal("oversized delay did not panic")
				}
			}()
			f.schedule(Msg{}, row.slots)
		})
	}
	// The bound's mesh term is the slowest route after an LLC access.
	cfg := arch.PaperConfig(8)
	cfg.HopCycles = 30
	var count stats.Counters
	m := NewSystem(&cfg, &count).mesh
	slowest := 0
	for a := range m.Nodes() {
		for b := range m.Nodes() {
			slowest = max(slowest, m.Latency(a, b, 1)+cfg.LLCHitCycles)
		}
	}
	if slowest != cfg.LongestDelay() {
		t.Fatalf("slowest directory reply takes %d cycles, LongestDelay says %d", slowest, cfg.LongestDelay())
	}
}

func TestInvisibleAccessLeavesNoFootprint(t *testing.T) {
	h := newHarness(t, 1)
	l1 := h.sys.L1(0)
	// Invisible miss: data arrives, but nothing is installed anywhere.
	l1.LoadInvisible(7, 0x40)
	h.step(300)
	if h.cores[0].doneCount(7) != 1 {
		t.Fatal("invisible access never completed")
	}
	if l1.Probe(0x40) {
		t.Fatal("invisible access installed a line in the L1")
	}
	// The LLC also stayed untouched: a second invisible access pays DRAM
	// again (stateless misses never allocate).
	before := h.count.Get("coh.invisible_dram")
	l1.LoadInvisible(8, 0x40)
	h.step(300)
	if h.count.Get("coh.invisible_dram") != before+1 {
		t.Fatal("second invisible miss did not go to DRAM (state leaked)")
	}
}

func TestInvisibleHitDoesNotTouchLRU(t *testing.T) {
	cfg := arch.PaperConfig(1)
	cfg.Prefetch = false
	cfg.L1Sets = 4
	cfg.L1Ways = 2
	h := &harness{}
	h.sys = NewSystem(&cfg, &h.count)
	fc := newFakeCore()
	h.cores = []*fakeCore{fc}
	h.sys.L1(0).SetHooks(fc)
	l1 := h.sys.L1(0)
	// Fill a 2-way set with lines A then B; A is LRU.
	l1.Load(1, 0)
	h.step(300)
	l1.Load(2, 4)
	h.step(300)
	// An invisible hit on A must NOT refresh its LRU state...
	l1.LoadInvisible(3, 0)
	h.step(50)
	// ...so a new fill still evicts A, not B.
	l1.Load(4, 8)
	h.step(300)
	if l1.Probe(0) {
		t.Fatal("invisible hit refreshed LRU: the wrong line was evicted")
	}
	if !l1.Probe(4) {
		t.Fatal("line B evicted instead of LRU line A")
	}
}

func TestInvisibleServedFromLLC(t *testing.T) {
	h := newHarness(t, 2)
	// Core 0 caches the line (it lands in the LLC).
	h.sys.L1(0).Load(1, 0x40)
	h.step(300)
	before := h.count.Get("coh.invisible_dram")
	// Core 1's invisible access is served from the LLC, not DRAM.
	h.sys.L1(1).LoadInvisible(9, 0x40)
	h.step(100)
	if h.cores[1].doneCount(9) != 1 {
		t.Fatal("invisible access never completed")
	}
	if h.count.Get("coh.invisible_dram") != before {
		t.Fatal("LLC-resident line fetched from DRAM")
	}
}
