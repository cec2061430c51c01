package pipeline

import (
	"slices"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/coherence"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

func TestBarrierSync(t *testing.T) {
	b := NewBarrierSync(3)
	if b.arrive(0, 1) {
		t.Fatal("barrier released with one arrival")
	}
	if b.arrive(1, 1) {
		t.Fatal("barrier released with two arrivals")
	}
	if !b.arrive(2, 1) {
		t.Fatal("barrier not released with all arrivals")
	}
	// Level-triggered: re-querying stays true for the same index.
	if !b.arrive(0, 1) {
		t.Fatal("barrier went unready")
	}
	// The next barrier index needs a fresh round.
	if b.arrive(0, 2) {
		t.Fatal("second barrier released early")
	}
}

func seqListOf(n int, seqs ...int64) seqList {
	l := newSeqList(n)
	for _, s := range seqs {
		l.push(s)
	}
	return l
}

func TestFilterSeqs(t *testing.T) {
	l := seqListOf(4, 1, 2, 3, 5, 9)
	l.truncate(4)
	if got := l.seqs(); !slices.Equal(got, []int64{1, 2, 3}) {
		t.Fatalf("truncate(4) = %v", got)
	}
	l.truncate(0)
	if len(l.seqs()) != 0 {
		t.Fatalf("truncate(0) left %v", l.seqs())
	}
}

func TestRemoveSeq(t *testing.T) {
	l := seqListOf(4, 4, 7, 9)
	l.dropFront(7) // not the oldest: stays
	l.dropFront(100)
	if got := l.seqs(); !slices.Equal(got, []int64{4, 7, 9}) {
		t.Fatalf("dropping seqs that are not the front changed the list: %v", got)
	}
	l.dropFront(4)
	if got := l.seqs(); !slices.Equal(got, []int64{7, 9}) {
		t.Fatalf("dropFront(4) = %v", got)
	}
	l.dropFront(7)
	l.dropFront(9)
	l.dropFront(9)
	if len(l.seqs()) != 0 {
		t.Fatalf("drained list holds %v", l.seqs())
	}
}

// TestSeqListWindow drives a list the way a long run does — the window
// sliding through its backing array many times, out-of-order inserts,
// in-place compaction — against a plain sorted slice, and pins that a list
// within the bound it was built for never allocates, while one pushed
// past it grows instead of failing.
func TestSeqListWindow(t *testing.T) {
	l := newSeqList(4)
	var want []int64
	next := int64(0)
	round := func() {
		for len(l.seqs()) < 4 {
			// Insert the younger of a pair first: completion order, not
			// program order.
			l.insert(next + 1)
			l.insert(next)
			want = append(want, next, next+1)
			next += 2
		}
		// Filter all but the youngest element, the way a stage that ran
		// out of ports leaves the rest of its list unvisited.
		cand := l.seqs()
		kept, stop := 0, len(cand)-1
		for _, s := range cand[:stop] {
			if s%3 != 0 {
				cand[kept] = s
				kept++
			}
		}
		l.compact(kept, stop)
		youngest := want[len(want)-1]
		want = slices.DeleteFunc(want, func(s int64) bool { return s%3 == 0 && s != youngest })
		l.dropFront(want[0])
		want = want[1:]
	}
	for i := 0; i < 100; i++ {
		round()
		if !slices.Equal(l.seqs(), want) {
			t.Fatalf("round %d: list %v, want %v", i, l.seqs(), want)
		}
	}
	want = nil
	if avg := testing.AllocsPerRun(100, func() {
		l.push(next)
		next++
		l.dropFront(l.seqs()[0])
	}); avg != 0 {
		t.Fatalf("bounded list allocates %v per operation", avg)
	}
	g := newSeqList(2)
	for i := int64(0); i < 50; i++ {
		g.push(i)
	}
	if len(g.seqs()) != 50 || g.seqs()[0] != 0 || g.seqs()[49] != 49 {
		t.Fatalf("grown list holds %v", g.seqs())
	}
}

// buildCore assembles a single core with a real memory system for direct
// pipeline unit tests.
func buildCore(t *testing.T, pol defense.Policy, insts []isa.Inst) (*Core, *coherence.System, *stats.Counters) {
	t.Helper()
	cfg := arch.PaperConfig(1)
	count := &stats.Counters{}
	mem := coherence.NewSystem(&cfg, count)
	w := &trace.Script{ScriptName: "unit", Insts: [][]isa.Inst{insts}, Loop: true}
	c := NewCore(0, &cfg, pol, mem.L1(0), w.Generator(0, 1), NewBarrierSync(1), count)
	return c, mem, count
}

func step(c *Core, mem *coherence.System, cycles int) {
	for i := 1; i <= cycles; i++ {
		mem.Tick(int64(i) + c.now)
		c.Tick(int64(i) + c.now)
	}
}

func TestCoreBasicRetirement(t *testing.T) {
	c, mem, _ := buildCore(t, defense.Policy{Scheme: defense.Unsafe},
		[]isa.Inst{{Op: isa.ALU, Lat: 1}})
	for i := 1; i <= 50; i++ {
		mem.Tick(int64(i))
		c.Tick(int64(i))
	}
	if c.Retired() == 0 {
		t.Fatal("no retirement")
	}
}

func TestVPFrontierMonotonicWithinRun(t *testing.T) {
	c, mem, _ := buildCore(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Comp},
		[]isa.Inst{
			{Op: isa.Load, Addr: 0x4000},
			{Op: isa.ALU, Lat: 1},
			{Op: isa.Branch, Taken: false},
		})
	prev := int64(0)
	for i := 1; i <= 400; i++ {
		mem.Tick(int64(i))
		c.Tick(int64(i))
		// The frontier may be reset by squashes but never below head.
		if c.vpFrontier < c.head {
			t.Fatalf("cycle %d: frontier %d below head %d", i, c.vpFrontier, c.head)
		}
		if c.head < prev {
			t.Fatalf("head moved backwards")
		}
		prev = c.head
	}
}

func TestPinnedNeverSquashedInvariant(t *testing.T) {
	// squashFrom fails loudly if it ever removes a pinned load; run a
	// mispredict-heavy pinned workload to exercise it.
	c, mem, count := buildCore(t, defense.Policy{Scheme: defense.Fence, Variant: defense.EP},
		[]isa.Inst{
			{Op: isa.Load, Addr: 0x4000},
			{Op: isa.Branch, Mispredict: true, Taken: true, Deps: [2]int32{1}},
			{Op: isa.Load, Addr: 0x8000},
			{Op: isa.ALU, Lat: 2},
		})
	for i := 1; i <= 3000; i++ {
		mem.Tick(int64(i))
		c.Tick(int64(i))
	}
	if count.Get("pin.pinned") == 0 {
		t.Fatal("no pinning happened")
	}
	if count.Get("squash.branch") == 0 {
		t.Fatal("no squashes happened")
	}
}

func TestHardwareAccessors(t *testing.T) {
	c, _, _ := buildCore(t, defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, nil)
	l1, dir := c.CSTs()
	if l1 == nil || dir == nil {
		t.Fatal("EP core missing CSTs")
	}
	if c.CPT() == nil {
		t.Fatal("EP core missing CPT")
	}
	c2, _, _ := buildCore(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}, nil)
	if c2.CPT() != nil {
		t.Fatal("Comp core has a CPT")
	}
	if c.pinnedLines.Len() != 0 || c.Check() != nil {
		t.Fatalf("fresh core reports %d pinned lines, or %v", c.pinnedLines.Len(), c.Check())
	}
}

func TestInfiniteCSTMode(t *testing.T) {
	cfg := arch.PaperConfig(1)
	cfg.InfiniteCST = true
	count := &stats.Counters{}
	mem := coherence.NewSystem(&cfg, count)
	w := &trace.Script{ScriptName: "inf",
		Insts: [][]isa.Inst{{{Op: isa.Load, Addr: 0x4000}, {Op: isa.ALU, Lat: 1}}}, Loop: true}
	c := NewCore(0, &cfg, defense.Policy{Scheme: defense.Fence, Variant: defense.EP},
		mem.L1(0), w.Generator(0, 1), NewBarrierSync(1), count)
	if l1, _ := c.CSTs(); l1 != nil {
		t.Fatal("infinite-CST core allocated finite CSTs")
	}
	for i := 1; i <= 500; i++ {
		mem.Tick(int64(i))
		c.Tick(int64(i))
	}
	if count.Get("pin.pinned") == 0 {
		t.Fatal("no pinning under infinite CST")
	}
}

// TestPinRoomCountsLines fills the pinned-line FIFO by hand and asks the room
// checks whether a line may be pinned: l1SetRoom (Late Pinning) and cstAdmit
// under a precise CST (Early Pinning). A set's room is counted in distinct
// pinned lines, so a line several loads pinned counts once; an L1 set admits
// below L1Ways-1 lines and denies at it, a directory set below Wd and at it,
// and a line already pinned needs no new way.
func TestPinRoomCountsLines(t *testing.T) {
	c := newMachine(pinStream(), defense.Policy{Scheme: defense.Fence, Variant: defense.EP},
		func(cfg *arch.Config) { cfg.InfiniteCST = true }).cores[0]
	const line = 0x4000
	l1Bound, wd := c.cfg.L1Ways-1, c.cfg.Wd
	// sameL1 lines share line's L1 set and not its directory set; sameDir
	// lines share its directory set.
	var sameL1, sameDir []uint64
	for l := uint64(line + 1); len(sameL1) < l1Bound || len(sameDir) < wd; l++ {
		switch {
		case c.dirKey(l) == c.dirKey(line):
			sameDir = append(sameDir, l)
		case c.l1Key(l) == c.l1Key(line):
			sameL1 = append(sameL1, l)
		}
	}
	twice := func(lines []uint64) []uint64 { return append(slices.Clone(lines), lines...) }
	for _, tc := range []struct {
		name          string
		pinned        []uint64
		l1Room, admit bool
	}{
		{"none pinned", nil, true, true},
		{"one L1-set line pinned by many loads", slices.Repeat(sameL1[:1], l1Bound), true, true},
		{"one directory-set line pinned by many loads", slices.Repeat(sameDir[:1], wd), true, true},
		{"L1 set below its bound", twice(sameL1[:l1Bound-1]), true, true},
		{"L1 set at its bound", sameL1[:l1Bound], false, false},
		{"directory set below Wd", twice(sameDir[:wd-1]), true, true},
		{"directory set at Wd", sameDir[:wd], true, false},
		{"line already pinned in a full set", append(slices.Clone(sameL1[:l1Bound]), line), true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for c.pinnedLines.Len() > 0 {
				c.pinnedLines.Pop()
			}
			for _, l := range tc.pinned {
				c.pinnedLines.Push(l)
			}
			if got := c.l1SetRoom(line); got != tc.l1Room {
				t.Errorf("l1SetRoom = %v, want %v", got, tc.l1Room)
			}
			if got := c.cstAdmit(&entry{line: line}); got != tc.admit {
				t.Errorf("cstAdmit = %v, want %v", got, tc.admit)
			}
		})
	}
}
