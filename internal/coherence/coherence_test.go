package coherence

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/xrand"
)

// fakeCore is a scriptable CoreHooks implementation for protocol tests.
type fakeCore struct {
	pinned      map[uint64]bool
	invalidated []uint64
	invStars    []uint64
	clears      []uint64
	loadsDone   []int64
	owned       []uint64
	deferred    []uint64
}

func newFakeCore() *fakeCore { return &fakeCore{pinned: map[uint64]bool{}} }

func (f *fakeCore) PinnedLine(line uint64) bool { return f.pinned[line] }
func (f *fakeCore) OnInvalidate(line uint64)    { f.invalidated = append(f.invalidated, line) }
func (f *fakeCore) OnInvStar(line uint64)       { f.invStars = append(f.invStars, line) }
func (f *fakeCore) OnClear(line uint64)         { f.clears = append(f.clears, line) }
func (f *fakeCore) LoadDone(token int64)        { f.loadsDone = append(f.loadsDone, token) }
func (f *fakeCore) LineOwned(line uint64)       { f.owned = append(f.owned, line) }
func (f *fakeCore) StoreDeferred(line uint64)   { f.deferred = append(f.deferred, line) }
func (f *fakeCore) doneCount(token int64) int {
	n := 0
	for _, t := range f.loadsDone {
		if t == token {
			n++
		}
	}
	return n
}

// harness wires a small memory system with fake cores.
type harness struct {
	sys   *System
	cores []*fakeCore
	cycle int64
	count stats.Counters
}

func newHarness(t testing.TB, cores int) *harness {
	t.Helper()
	cfg := arch.PaperConfig(cores)
	cfg.Prefetch = false // keep protocol tests exact
	h := &harness{}
	h.sys = NewSystem(&cfg, &h.count)
	for i := 0; i < cores; i++ {
		fc := newFakeCore()
		h.cores = append(h.cores, fc)
		h.sys.L1(i).SetHooks(fc)
	}
	return h
}

// step advances n cycles.
func (h *harness) step(n int) {
	for i := 0; i < n; i++ {
		h.cycle++
		h.sys.Tick(h.cycle)
	}
}

func TestLoadMissFill(t *testing.T) {
	h := newHarness(t, 1)
	l1 := h.sys.L1(0)
	if got := l1.Load(1, 0x40); got != LoadMiss {
		t.Fatalf("first load = %v, want miss", got)
	}
	h.step(300)
	if h.cores[0].doneCount(1) != 1 {
		t.Fatal("load never completed")
	}
	if !l1.Probe(0x40) {
		t.Fatal("line not cached after fill")
	}
	// Second access hits.
	if got := l1.Load(2, 0x40); got != LoadHit {
		t.Fatalf("second load = %v, want hit", got)
	}
	h.step(10)
	if h.cores[0].doneCount(2) != 1 {
		t.Fatal("hit never completed")
	}
}

func TestLoadCoalescing(t *testing.T) {
	h := newHarness(t, 1)
	l1 := h.sys.L1(0)
	l1.Load(1, 0x80)
	if got := l1.Load(2, 0x80); got != LoadMiss {
		t.Fatalf("coalesced load = %v", got)
	}
	h.step(300)
	if h.cores[0].doneCount(1) != 1 || h.cores[0].doneCount(2) != 1 {
		t.Fatal("coalesced waiters not all woken")
	}
	if h.count.Get("l1.misses") != 1 {
		t.Fatalf("misses = %d, want 1", h.count.Get("l1.misses"))
	}
}

func TestStoreAcquireAndMerge(t *testing.T) {
	h := newHarness(t, 1)
	l1 := h.sys.L1(0)
	l1.Acquire(0x40)
	h.step(300)
	if !l1.HasWritable(0x40) {
		t.Fatal("line not writable after Acquire")
	}
	if !l1.MergeStore(0x40) {
		t.Fatal("merge failed on owned line")
	}
	if len(h.cores[0].owned) == 0 {
		t.Fatal("LineOwned never fired")
	}
}

func TestReadSharedThenWriteInvalidates(t *testing.T) {
	h := newHarness(t, 2)
	// Core 0 and core 1 both read the line.
	h.sys.L1(0).Load(1, 0x40)
	h.step(300)
	h.sys.L1(1).Load(2, 0x40)
	h.step(300)
	if !h.sys.L1(0).Probe(0x40) || !h.sys.L1(1).Probe(0x40) {
		t.Fatal("line not shared by both cores")
	}
	// Core 1 writes: core 0 must be invalidated (conventional Figure 3a).
	h.sys.L1(1).Acquire(0x40)
	h.step(300)
	if !h.sys.L1(1).HasWritable(0x40) {
		t.Fatal("writer did not gain ownership")
	}
	if h.sys.L1(0).Probe(0x40) {
		t.Fatal("sharer still holds the line after invalidation")
	}
	if len(h.cores[0].invalidated) == 0 {
		t.Fatal("sharer's LQ snoop never ran")
	}
}

func TestWriteDeferredByPinnedLine(t *testing.T) {
	h := newHarness(t, 2)
	// Core 0 reads and pins the line.
	h.sys.L1(0).Load(1, 0x40)
	h.step(300)
	h.cores[0].pinned[0x40] = true
	// Core 1 tries to write: the invalidation must be deferred, the write
	// aborted and retried (paper Figure 3b).
	h.sys.L1(1).Acquire(0x40)
	h.step(60)
	if h.sys.L1(1).HasWritable(0x40) {
		t.Fatal("write succeeded against a pinned line")
	}
	if h.sys.L1(0).Probe(0x40) != true {
		t.Fatal("pinned line was invalidated")
	}
	if h.count.Get("coh.retried_writes") == 0 {
		t.Fatal("no retried write recorded")
	}
	if len(h.cores[1].deferred) == 0 {
		t.Fatal("writer core not notified of deferral")
	}
	// The retry escalates to GetX*, whose Inv* inserts the line into the
	// reader's CPT (Figure 5a).
	h.step(100)
	if len(h.cores[0].invStars) == 0 {
		t.Fatal("no Inv* received at the pinned sharer")
	}
	// Unpin: the next retry must succeed and Clear the CPT (Figure 5b).
	h.cores[0].pinned = map[uint64]bool{}
	h.step(300)
	if !h.sys.L1(1).HasWritable(0x40) {
		t.Fatal("write never succeeded after unpin")
	}
	if len(h.cores[0].clears) == 0 {
		t.Fatal("no Clear received after the write succeeded")
	}
	if h.sys.L1(0).Probe(0x40) {
		t.Fatal("sharer copy survived the successful write")
	}
}

func TestOwnerDefersForward(t *testing.T) {
	h := newHarness(t, 2)
	// Core 0 owns the line in M state (acquire + merge).
	h.sys.L1(0).Acquire(0x40)
	h.step(300)
	h.sys.L1(0).MergeStore(0x40)
	h.cores[0].pinned[0x40] = true
	// Core 1 wants to write: the FwdGetX must be deferred.
	h.sys.L1(1).Acquire(0x40)
	h.step(60)
	if h.sys.L1(1).HasWritable(0x40) {
		t.Fatal("ownership transferred from a pinned owner")
	}
	h.cores[0].pinned = map[uint64]bool{}
	h.step(400)
	if !h.sys.L1(1).HasWritable(0x40) {
		t.Fatal("ownership never transferred after unpin")
	}
}

func TestFwdGetSDowngradesOwner(t *testing.T) {
	h := newHarness(t, 2)
	h.sys.L1(0).Acquire(0x40)
	h.step(300)
	h.sys.L1(0).MergeStore(0x40)
	// Core 1 reads: owner must forward data and downgrade to S.
	h.sys.L1(1).Load(5, 0x40)
	h.step(300)
	if h.cores[1].doneCount(5) != 1 {
		t.Fatal("reader never got data from the owner")
	}
	if !h.sys.L1(0).Probe(0x40) {
		t.Fatal("owner lost the line on a read")
	}
	if h.sys.L1(0).HasWritable(0x40) {
		t.Fatal("owner kept write permission after downgrade")
	}
}

func TestEvictionWritesBack(t *testing.T) {
	h := newHarness(t, 1)
	cfg := arch.PaperConfig(1)
	l1 := h.sys.L1(0)
	// Fill one L1 set beyond its associativity: the oldest line must be
	// evicted (clean, silently) and still be re-fetchable.
	setStride := uint64(cfg.L1Sets)
	for i := 0; i <= cfg.L1Ways; i++ {
		line := 0x1000 + uint64(i)*setStride
		l1.Load(int64(100+i), line)
		h.step(300)
	}
	if l1.Probe(0x1000) {
		t.Fatal("LRU line survived a full set fill")
	}
	if h.count.Get("l1.evictions") == 0 {
		t.Fatal("no eviction recorded")
	}
	if len(h.cores[0].invalidated) == 0 {
		t.Fatal("eviction skipped the LQ snoop")
	}
}

// TestEvictionDeniedByPin: a fill never evicts a pinned line. With L1Ways−1
// lines of a set pinned, the most a core pins there, the fill takes the one
// way that is not pinned; with every way pinned, which that bound forbids,
// the fill fails the run and names the set.
func TestEvictionDeniedByPin(t *testing.T) {
	h := newHarness(t, 1)
	cfg := arch.PaperConfig(1)
	l1 := h.sys.L1(0)
	line := func(i int) uint64 { return 0x1000 + uint64(i*cfg.L1Sets) }
	// Fill a set and pin every line in it but the most recent one, so the
	// LRU walk must refresh each pinned line before it reaches a victim.
	for i := 0; i < cfg.L1Ways; i++ {
		l1.Load(int64(100+i), line(i))
		h.step(300)
		if i < cfg.L1Ways-1 {
			h.cores[0].pinned[line(i)] = true
		}
	}
	unpinned := line(cfg.L1Ways - 1)
	extra := line(cfg.L1Ways)
	l1.Load(999, extra)
	h.step(400)
	if h.cores[0].doneCount(999) != 1 {
		t.Fatal("fill never completed with a way not pinned")
	}
	for i := 0; i < cfg.L1Ways-1; i++ {
		if !l1.Probe(line(i)) {
			t.Fatalf("pinned line %#x evicted", line(i))
		}
	}
	if l1.Probe(unpinned) || !slices.Contains(h.cores[0].invalidated, unpinned) {
		t.Fatalf("the one line not pinned, %#x, was not the victim", unpinned)
	}

	// Pin the last way too: the next fill of the set has no victim.
	h.cores[0].pinned[extra] = true
	l1.Load(1000, line(cfg.L1Ways+1))
	want := fmt.Sprintf("every way of set %d holds a pinned line", cfg.L1Set(extra))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Fatalf("fill into a fully pinned set: panic %q, want one naming %q", msg, want)
		}
	}()
	h.step(400)
}

func TestRecallDeniedByPin(t *testing.T) {
	// Force LLC-set pressure so the directory must recall an L1-held
	// line; a pinned line denies the recall (paper Section 5.1.3).
	cfg := arch.PaperConfig(1)
	cfg.Prefetch = false
	cfg.LLCSets = 1 // every line contends for one 16-way set per slice
	h := &harness{}
	h.sys = NewSystem(&cfg, &h.count)
	fc := newFakeCore()
	h.cores = []*fakeCore{fc}
	h.sys.L1(0).SetHooks(fc)
	l1 := h.sys.L1(0)

	// Fill slice 0's only set (16 ways) with L1-held lines; pin the first.
	nlines := cfg.LLCWays
	for i := 0; i < nlines; i++ {
		line := uint64(i * cfg.LLCSlices) // all map to slice 0
		l1.Load(int64(100+i), line)
		h.step(300)
	}
	fc.pinned[0] = true
	// One more line in slice 0: the LLC must evict something; recalls of
	// the pinned line are denied and another victim is found eventually.
	extra := uint64(nlines * cfg.LLCSlices)
	l1.Load(999, extra)
	h.step(2000)
	if fc.doneCount(999) != 1 {
		t.Fatal("load never completed under LLC pressure")
	}
	if !l1.Probe(0) {
		t.Fatal("pinned line was evicted from L1 via recall")
	}
}

func TestNackRetry(t *testing.T) {
	h := newHarness(t, 2)
	// Two cores race to write the same uncached line: one transaction
	// will find the directory busy, get Nacked, and retry.
	h.sys.L1(0).Acquire(0x40)
	h.sys.L1(1).Acquire(0x40)
	h.step(1000)
	w0 := h.sys.L1(0).HasWritable(0x40)
	w1 := h.sys.L1(1).HasWritable(0x40)
	if w0 == w1 {
		t.Fatalf("exactly one core must own the line (got %v,%v)", w0, w1)
	}
}

func TestPrefetcherFetchesNextLine(t *testing.T) {
	cfg := arch.PaperConfig(1)
	h := &harness{}
	h.sys = NewSystem(&cfg, &h.count)
	fc := newFakeCore()
	h.cores = []*fakeCore{fc}
	h.sys.L1(0).SetHooks(fc)
	l1 := h.sys.L1(0)
	l1.Load(1, 0x100)
	h.step(400)
	if !l1.Probe(0x101) {
		t.Fatal("next line not prefetched")
	}
	if h.count.Get("l1.prefetches") == 0 {
		t.Fatal("prefetch not counted")
	}
}

func TestPortLimit(t *testing.T) {
	h := newHarness(t, 1)
	l1 := h.sys.L1(0)
	h.step(1)
	used := 0
	for l1.AcquirePort() {
		used++
		if used > 10 {
			break
		}
	}
	if used != arch.PaperConfig(1).L1Ports {
		t.Fatalf("ports = %d", used)
	}
	// Ports replenish on the next cycle.
	h.step(1)
	if !l1.AcquirePort() {
		t.Fatal("ports not reset on a new cycle")
	}
}

func TestMessageKindsString(t *testing.T) {
	for k := GetS; k <= SelfDone; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
	if (Addr{Dir: true, Idx: 3}).String() != "dir3" {
		t.Fatal("dir addr string")
	}
	if (Addr{Idx: 2}).String() != "l1-2" {
		t.Fatal("l1 addr string")
	}
}

func TestTrafficCounted(t *testing.T) {
	h := newHarness(t, 1)
	h.sys.L1(0).Load(1, 0x40)
	h.step(300)
	if h.sys.Mesh().Messages() == 0 || h.sys.Mesh().Flits() == 0 {
		t.Fatal("mesh traffic not counted")
	}
	if h.count.Get("coh.msg.GetS") == 0 {
		t.Fatal("GetS not counted")
	}
}

// TestDirLineSize pins the packed layout of an LLC way: stored ways are most
// of a used machine's memory, so a field added in the wrong place (or
// widened) grows every machine. A slice's Dir stays in the allocator's
// 288-byte size class, which the next field would leave: every machine
// builds eight.
func TestDirLineSize(t *testing.T) {
	if got := unsafe.Sizeof(dirLine{}); got != 32 {
		t.Fatalf("dirLine is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Dir{}); got > 288 {
		t.Fatalf("Dir is %d bytes, want at most 288", got)
	}
}

// fabricRows are the calendar lengths the fabric tests run at: the paper's
// machine, and DRAM latencies that need 256, 512 and 1 024 slots.
var fabricRows = []struct{ dram, slots int }{{100, 128}, {128, 256}, {300, 512}, {1000, 1024}}

// fabricFor returns the fabric of a 1-core paper machine with the given DRAM
// latency, and its configuration.
func fabricFor(t *testing.T, dram, slots int) (*fabric, *arch.Config) {
	t.Helper()
	cfg := arch.PaperConfig(1)
	cfg.DRAMCycles = dram
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var count stats.Counters
	f := NewSystem(&cfg, &count).fab
	if len(f.ring) != slots || cfg.LongestDelay() >= slots {
		t.Fatalf("DRAMCycles %d: %d slots for a longest delay of %d, want %d", dram, len(f.ring), cfg.LongestDelay(), slots)
	}
	return f, &cfg
}

// TestFabricNextDue holds the occupancy bitmap's answer against a walk of the
// ring, at every clock position of a wrap and across a checkpoint restore
// (which rebuilds the bitmap from the slots), for every ring length.
func TestFabricNextDue(t *testing.T) {
	for _, row := range fabricRows {
		t.Run(fmt.Sprint(row.slots), func(t *testing.T) {
			f, cfg := fabricFor(t, row.dram, row.slots)
			n := int64(len(f.ring))
			walk := func() int64 {
				for d := int64(1); d < n; d++ {
					if len(f.ring[(f.cycle+d)&f.mask]) > 0 {
						return f.cycle + d
					}
				}
				return math.MaxInt64
			}
			rng := xrand.New(7)
			for cycle := int64(1); cycle < 3*arch.MaxFabricSlots; cycle++ {
				f.due(cycle)
				if rng.Bool(0.02) {
					f.schedule(Msg{Kind: GetS}, 1+rng.Intn(int(n)-1))
				}
				if got, want := f.nextDue(), walk(); got != want {
					t.Fatalf("cycle %d: nextDue %d, the ring says %d", cycle, got, want)
				}
				if cycle%500 == 0 {
					e := ckptio.NewEncoder()
					f.State(ckptio.SaveTo(e), cfg)
					clear(f.occupied)
					f.State(ckptio.LoadFrom(ckptio.NewDecoder(e.Bytes())), cfg)
					if got, want := f.nextDue(), walk(); got != want {
						t.Fatalf("cycle %d after restore: nextDue %d, the ring says %d", cycle, got, want)
					}
				}
			}
		})
	}
}
