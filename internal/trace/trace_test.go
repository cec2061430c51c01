package trace

import (
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/isa"
)

func TestScriptSequence(t *testing.T) {
	s := &Script{
		ScriptName: "s",
		Insts:      [][]isa.Inst{{{Op: isa.ALU}, {Op: isa.Load, Addr: 64}}},
	}
	g := s.Generator(0, 1)
	if in := g.Next(); in.Op != isa.ALU {
		t.Fatalf("first = %v", in.Op)
	}
	if in := g.Next(); in.Op != isa.Load {
		t.Fatalf("second = %v", in.Op)
	}
	if in := g.Next(); in.Op != isa.Halt {
		t.Fatalf("end = %v, want halt", in.Op)
	}
}

func TestScriptLoop(t *testing.T) {
	s := &Script{ScriptName: "l", Insts: [][]isa.Inst{{{Op: isa.ALU}}}, Loop: true}
	g := s.Generator(0, 1)
	for i := 0; i < 10; i++ {
		if in := g.Next(); in.Op != isa.ALU {
			t.Fatalf("loop produced %v", in.Op)
		}
	}
}

func TestScriptPerCore(t *testing.T) {
	s := &Script{
		ScriptName: "pc",
		NumCores:   2,
		Insts: [][]isa.Inst{
			{{Op: isa.ALU}},
			{{Op: isa.Store, Addr: 64}},
		},
	}
	if in := s.Generator(0, 1).Next(); in.Op != isa.ALU {
		t.Fatal("core 0 stream wrong")
	}
	if in := s.Generator(1, 1).Next(); in.Op != isa.Store {
		t.Fatal("core 1 stream wrong")
	}
	// Cores beyond the slice reuse stream 0.
	if in := s.Generator(5, 1).Next(); in.Op != isa.ALU {
		t.Fatal("overflow core stream wrong")
	}
	if s.Cores() != 2 {
		t.Fatal("Cores() wrong")
	}
}

func TestScriptWrongPath(t *testing.T) {
	s := &Script{ScriptName: "w", Insts: [][]isa.Inst{{}}, Wrong: isa.Inst{Op: isa.ALU, Lat: 2}}
	g := s.Generator(0, 1)
	if in := g.WrongPath(); in.Op != isa.ALU || in.Lat != 2 {
		t.Fatalf("WrongPath = %v", in)
	}
}

func TestSuitesComplete(t *testing.T) {
	// The paper's Figure 7 has 21 SPEC17 apps; Figure 8 has 13 SPLASH2
	// and 10 PARSEC apps.
	if n := len(SPEC17()); n != 21 {
		t.Fatalf("SPEC17 has %d proxies, want 21", n)
	}
	if n := len(SPLASH2()); n != 13 {
		t.Fatalf("SPLASH2 has %d proxies, want 13", n)
	}
	if n := len(PARSEC()); n != 10 {
		t.Fatalf("PARSEC has %d proxies, want 10", n)
	}
}

func TestSuiteCoreCounts(t *testing.T) {
	for _, p := range SPEC17() {
		if p.Cores() != 1 {
			t.Errorf("%s: %d cores, want 1", p.BenchName, p.Cores())
		}
	}
	for _, p := range append(SPLASH2(), PARSEC()...) {
		if p.Cores() != 8 {
			t.Errorf("%s: %d cores, want 8", p.BenchName, p.Cores())
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("mcf_r") == nil || ByName("fft") == nil || ByName("x264") == nil {
		t.Fatal("known benchmark not found")
	}
	if ByName("nonexistent") != nil {
		t.Fatal("unknown benchmark found")
	}
}

func TestProfileNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, suite := range Suites() {
		for _, p := range suite {
			if seen[p.BenchName] {
				t.Fatalf("duplicate benchmark name %s", p.BenchName)
			}
			seen[p.BenchName] = true
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := ByName("gcc_r")
	a := p.Generator(0, 42)
	b := p.Generator(0, 42)
	for i := 0; i < 5000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("streams diverged at %d: %v vs %v", i, x, y)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p := ByName("gcc_r")
	a := p.Generator(0, 1)
	b := p.Generator(0, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next().Addr == b.Next().Addr {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced %d/1000 identical addresses", same)
	}
}

func TestGeneratorCoresDiffer(t *testing.T) {
	p := ByName("fft")
	a := p.Generator(0, 1)
	b := p.Generator(1, 1)
	// Private addresses must live in disjoint per-core regions.
	for i := 0; i < 2000; i++ {
		x, y := a.Next(), b.Next()
		if x.Op == isa.Load && y.Op == isa.Load &&
			x.Addr == y.Addr && x.Addr < sharedBase {
			t.Fatalf("cores share a private address %#x", x.Addr)
		}
	}
}

func TestInstructionMixMatchesProfile(t *testing.T) {
	p := ByName("gcc_r")
	g := p.Generator(0, 1)
	const n = 100000
	counts := map[isa.Op]int{}
	for i := 0; i < n; i++ {
		counts[g.Next().Op]++
	}
	loadFrac := float64(counts[isa.Load]) / n
	storeFrac := float64(counts[isa.Store]) / n
	branchFrac := float64(counts[isa.Branch]) / n
	if loadFrac < p.LoadFrac-0.02 || loadFrac > p.LoadFrac+0.02 {
		t.Errorf("load fraction %.3f, profile %.3f", loadFrac, p.LoadFrac)
	}
	if storeFrac < p.StoreFrac-0.02 || storeFrac > p.StoreFrac+0.02 {
		t.Errorf("store fraction %.3f, profile %.3f", storeFrac, p.StoreFrac)
	}
	if branchFrac < p.BranchFrac-0.02 || branchFrac > p.BranchFrac+0.02 {
		t.Errorf("branch fraction %.3f, profile %.3f", branchFrac, p.BranchFrac)
	}
}

func TestMispredictRate(t *testing.T) {
	p := ByName("leela_r") // 7% mispredict rate
	g := p.Generator(0, 1)
	branches, mis := 0, 0
	for i := 0; i < 200000; i++ {
		in := g.Next()
		if in.Op == isa.Branch {
			branches++
			if in.Mispredict {
				mis++
			}
		}
	}
	rate := float64(mis) / float64(branches)
	if rate < p.MispredictRate*0.7 || rate > p.MispredictRate*1.3 {
		t.Fatalf("mispredict rate %.4f, profile %.4f", rate, p.MispredictRate)
	}
}

func TestDepsWithinBounds(t *testing.T) {
	for _, name := range []string{"gcc_r", "x264_r", "mcf_r", "fft", "canneal"} {
		p := ByName(name)
		g := p.Generator(0, 1)
		for i := 0; i < 20000; i++ {
			in := g.Next()
			for _, d := range in.Deps {
				if d < 0 || int(d) > maxDepDist {
					t.Fatalf("%s: dep %d out of bounds", name, d)
				}
			}
		}
	}
}

func TestChaseLoadsAreDependent(t *testing.T) {
	p := &Profile{
		BenchName: "chase-test", NumCores: 1, LoadFrac: 1, DepDist: 4,
		Kernels: []Kernel{{Kind: Chase, Weight: 1, FootprintKB: 64}},
	}
	g := p.Generator(0, 1)
	g.Next() // the first chase load has no predecessor
	for i := 0; i < 100; i++ {
		in := g.Next()
		if in.Op == isa.Load && in.Deps[0] != 1 {
			t.Fatalf("chase load %d has dep %d, want 1", i, in.Deps[0])
		}
	}
}

func TestStreamKernelIsSequential(t *testing.T) {
	p := &Profile{
		BenchName: "stream-test", NumCores: 1, LoadFrac: 1, DepDist: 4,
		Kernels: []Kernel{{Kind: Stream, Weight: 1, FootprintKB: 64}},
	}
	g := p.Generator(0, 1)
	prev := g.Next().Addr
	for i := 0; i < 100; i++ {
		addr := g.Next().Addr
		if addr != prev+16 && addr >= prev {
			t.Fatalf("stream step %d: %#x after %#x", i, addr, prev)
		}
		prev = addr
	}
}

func TestBarrierEmission(t *testing.T) {
	p := ByName("fft") // BarrierEvery is set
	g := p.Generator(0, 1)
	barriers := 0
	for i := 0; i < p.BarrierEvery*3+10; i++ {
		if g.Next().Op == isa.Barrier {
			barriers++
		}
	}
	if barriers < 2 {
		t.Fatalf("saw %d barriers, want >= 2", barriers)
	}
}

func TestLockCriticalSections(t *testing.T) {
	p := ByName("radiosity") // lock-heavy
	g := p.Generator(0, 1)
	locks, releases := 0, 0
	var lastLock uint64
	for i := 0; i < 50000; i++ {
		in := g.Next()
		if in.Op == isa.Lock {
			locks++
			lastLock = in.Addr
		}
		if in.Op == isa.Store && in.Addr == lastLock && lastLock != 0 {
			releases++
		}
	}
	if locks == 0 {
		t.Fatal("no lock operations generated")
	}
	if releases < locks/2 {
		t.Fatalf("%d locks but only %d releases", locks, releases)
	}
	// Lock addresses live in the lock region.
	if lastLock < lockBase {
		t.Fatalf("lock address %#x below lock base", lastLock)
	}
}

func TestWrongPathProducesWork(t *testing.T) {
	p := ByName("gcc_r")
	g := p.Generator(0, 1)
	loads := 0
	for i := 0; i < 1000; i++ {
		in := g.WrongPath()
		if in.Op == isa.Load {
			loads++
			if in.Addr == 0 {
				t.Fatal("wrong-path load with zero address")
			}
		}
	}
	if loads == 0 {
		t.Fatal("wrong path never loads")
	}
}

// warmCount is how many lines the core's warm runs hold.
func warmCount(p *Profile, core int) int {
	n := 0
	for _, r := range p.WarmRanges(core) {
		n += int(r.N)
	}
	return n
}

func TestWarmLines(t *testing.T) {
	p := ByName("bwaves_r")
	// 4 MB kernel => 65536 lines for the stride kernel plus the random one.
	want := (4096 * 1024 / arch.LineBytes) * 2
	if got := warmCount(p, 0); got != want {
		t.Fatalf("warm lines = %d, want %d", got, want)
	}
	// Runs come in ascending order and do not overlap.
	var top uint64
	for _, r := range p.WarmRanges(0) {
		if r.N == 0 || r.First < top {
			t.Fatalf("run %+v is empty or not above the runs before it", r)
		}
		top = r.First + r.N
	}
	// mcf's 64 MB chase kernel must stay cold.
	if warmCount(ByName("mcf_r"), 0) >= 64*1024*1024/arch.LineBytes {
		t.Fatal("mcf's DRAM-bound kernel was warmed")
	}
}

func TestWarmLinesSharedOnce(t *testing.T) {
	p := ByName("fft")
	shared := func(core int) bool {
		for _, r := range p.WarmRanges(core) {
			if r.First+r.N > sharedBase/arch.LineBytes {
				return true
			}
		}
		return false
	}
	if !shared(0) {
		t.Fatal("core 0 did not warm the shared region")
	}
	if shared(1) {
		t.Fatal("core 1 also warmed the shared region")
	}
}

func TestKernelNames(t *testing.T) {
	for k, want := range map[KernelKind]string{Hot: "hot", Stream: "stream",
		Stride: "stride", Random: "random", Chase: "chase"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestAddressesLineAligned(t *testing.T) {
	// Kernel addresses are 16-byte granular at most; line addresses fit
	// the simulator's line math.
	p := ByName("canneal")
	g := p.Generator(2, 3)
	for i := 0; i < 10000; i++ {
		in := g.Next()
		if in.Op.IsMem() && in.Addr%16 != 0 {
			t.Fatalf("address %#x not 16-byte aligned", in.Addr)
		}
	}
}

func TestSharedAccessesVisibleAcrossCores(t *testing.T) {
	// Different cores of a parallel proxy must touch overlapping shared
	// lines — otherwise there is no coherence traffic to study.
	p := ByName("fft")
	seen := map[uint64]int{}
	for core := 0; core < 2; core++ {
		g := p.Generator(core, 1)
		for i := 0; i < 100000; i++ {
			in := g.Next()
			if in.Op.IsMem() && in.Addr >= sharedBase && in.Addr < lockBase {
				seen[arch.LineAddr(in.Addr)] |= 1 << core
			}
		}
	}
	both := 0
	for _, mask := range seen {
		if mask == 3 {
			both++
		}
	}
	if both == 0 {
		t.Fatal("cores never touch the same shared line")
	}
}

func TestSharedHotLocality(t *testing.T) {
	// Most shared accesses must land in the hot subset (temporal
	// locality), per the generator's sharedAddr design.
	p := ByName("canneal")
	g := p.Generator(0, 1)
	hot, total := 0, 0
	for i := 0; i < 200000; i++ {
		in := g.Next()
		if in.Op == isa.Load && in.Addr >= sharedBase && in.Addr < lockBase {
			total++
			if arch.LineAddr(in.Addr)-sharedBase/arch.LineBytes < hotSharedLines {
				hot++
			}
		}
	}
	if total == 0 {
		t.Fatal("no shared loads")
	}
	if frac := float64(hot) / float64(total); frac < 0.6 {
		t.Fatalf("hot-shared fraction %.2f, want >= 0.6", frac)
	}
}
