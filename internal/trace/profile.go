package trace

import (
	"pinnedloads/internal/arch"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/xrand"
)

// Profile is a synthetic benchmark proxy: a parameterized generator whose
// instruction mix, dependence structure, memory behaviour and (for parallel
// proxies) sharing behaviour stand in for one application of the paper's
// evaluation suites.
type Profile struct {
	BenchName string
	Suite     string // "SPEC17", "SPLASH2" or "PARSEC"
	NumCores  int

	// Instruction mix: fractions of loads, stores and branches; FPFrac of
	// the remaining compute ops are long-latency floating point.
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	FPFrac     float64

	// MispredictRate is the per-branch misprediction probability, and
	// BranchDepLoad the fraction of branches whose condition depends on a
	// recent load (late-resolving branches).
	MispredictRate float64
	BranchDepLoad  float64

	// DepDist is the maximum backward distance of random data deps;
	// AddrDepFrac makes that fraction of non-chase loads address-depend
	// on the previous load (load-to-load dependence, as in x264).
	// AddrRecentFrac is the fraction of remaining loads whose address
	// depends on a recent in-flight producer at all — most load addresses
	// come from long-retired registers (stack pointers, induction
	// variables), which matters both for STT taint and for pin-order
	// progress. Zero means the default of 0.15.
	DepDist        int
	AddrDepFrac    float64
	AddrRecentFrac float64

	// FaultRate is the per-memory-op address-translation fault rate.
	FaultRate float64

	// Kernels are the weighted memory access patterns.
	Kernels []Kernel

	// Parallel behaviour (used when NumCores > 1).
	SharedKB        int     // shared read-write region size
	SharedFrac      float64 // fraction of loads hitting the shared region
	SharedStoreFrac float64 // fraction of stores hitting the shared region
	LockEvery       int     // mean instructions between critical sections
	CritLen         int     // accesses inside a critical section
	LockLines       int     // number of distinct lock lines
	BarrierEvery    int     // instructions between barriers (0 = none)
}

// Name implements Source.
func (p *Profile) Name() string { return p.BenchName }

// Cores implements Source.
func (p *Profile) Cores() int {
	if p.NumCores > 0 {
		return p.NumCores
	}
	return 1
}

// warmCapKB bounds the kernel footprints that are pre-installed in the LLC
// before simulation: working sets at or below this size are assumed to be
// LLC-resident when the measured interval starts (as with checkpointed
// SimPoint intervals); larger footprints start cold and pay DRAM latency,
// which is those benchmarks' real character.
const warmCapKB = 4096

// warmLines is how many lines of the kernel's footprint are pre-installed:
// huge footprints stay cold, and hot sets warm through the L1.
func (k Kernel) warmLines() uint64 {
	if k.FootprintKB > warmCapKB || k.Kind == Hot {
		return 0
	}
	return uint64(k.FootprintKB) * 1024 / arch.LineBytes
}

// WarmRanges implements Warmer: every line of each LLC-resident kernel
// footprint, then (for core 0 of a parallel workload) the shared region, as
// one run each in ascending order.
func (p *Profile) WarmRanges(core int) []arch.LineRange {
	out := make([]arch.LineRange, 0, len(p.Kernels)+1)
	for i, k := range p.Kernels {
		if n := k.warmLines(); n > 0 {
			base := privateBase*uint64(core+1) + uint64(i)<<28
			out = append(out, arch.LineRange{First: base / arch.LineBytes, N: n})
		}
	}
	if core == 0 && p.Cores() > 1 && p.SharedKB > 0 && p.SharedKB <= warmCapKB {
		out = append(out, arch.LineRange{First: sharedBase / arch.LineBytes,
			N: uint64(p.SharedKB) * 1024 / arch.LineBytes})
	}
	return out
}

// Address-space layout: each core's private kernels live in disjoint
// regions; the shared data region and lock lines are common to all cores.
const (
	privateBase = uint64(1) << 32
	sharedBase  = uint64(1) << 40
	lockBase    = uint64(1) << 41
)

// maxDepDist caps dependence distances so they stay within the ROB.
const maxDepDist = 48

// Generator implements Source.
func (p *Profile) Generator(core int, seed uint64) Generator {
	rng := xrand.New(seed).Derive(uint64(core)*1315423911 + 7)
	g := &profileGen{p: p, core: core, rng: rng, wrongRNG: rng.Derive(99), lastLoad: -1}
	var total float64
	for i, k := range p.Kernels {
		ks := kernelState{Kernel: k, lastChase: -1}
		ks.base = privateBase*uint64(core+1) + uint64(i)<<28
		ks.lines = uint64(k.FootprintKB) * 1024 / arch.LineBytes
		if ks.lines == 0 {
			ks.lines = 1
		}
		// Randomize stream/stride phases so cores don't march in step.
		ks.pos = rng.Uint64n(ks.lines) * arch.LineBytes
		g.kernels = append(g.kernels, ks)
		total += k.Weight
	}
	g.totalWeight = total
	if p.SharedKB > 0 {
		g.sharedLines = uint64(p.SharedKB) * 1024 / arch.LineBytes
	}
	g.lockLines = p.LockLines
	if g.lockLines == 0 {
		g.lockLines = 8
	}
	return g
}

type profileGen struct {
	p           *Profile
	core        int
	rng         *xrand.RNG
	wrongRNG    *xrand.RNG
	kernels     []kernelState
	totalWeight float64
	sharedLines uint64
	lockLines   int

	idx          int64     // correct-path instructions generated
	lastLoad     int64     // index of the most recent load
	sites        []float64 // each branch site's probability of being taken
	pending      []isa.Inst
	pendPos      int
	sinceBarrier int
}

// pickKernel selects a kernel by weight.
func (g *profileGen) pickKernel() *kernelState {
	r := g.rng.Float64() * g.totalWeight
	for i := range g.kernels {
		r -= g.kernels[i].Weight
		if r <= 0 {
			return &g.kernels[i]
		}
	}
	return &g.kernels[len(g.kernels)-1]
}

// dep returns a backward distance to a random recent producer.
func (g *profileGen) dep() int32 {
	d := 1 + g.rng.Intn(g.p.DepDist)
	if int64(d) > g.idx {
		d = int(g.idx)
	}
	return int32(d)
}

// depTo returns the distance from the next instruction to the instruction
// at absolute index target, or 0 if it is out of reach.
func (g *profileGen) depTo(target int64) int32 {
	if target < 0 {
		return 0
	}
	d := g.idx - target
	if d <= 0 || d > maxDepDist {
		return 0
	}
	return int32(d)
}

// Next implements Generator.
func (g *profileGen) Next() isa.Inst {
	if g.pendPos < len(g.pending) {
		in := g.pending[g.pendPos]
		g.pendPos++
		return g.emit(in)
	}
	g.pending = g.pending[:0]
	g.pendPos = 0

	p := g.p
	parallel := p.Cores() > 1

	if parallel && p.BarrierEvery > 0 {
		g.sinceBarrier++
		if g.sinceBarrier >= p.BarrierEvery {
			g.sinceBarrier = 0
			return g.emit(isa.Inst{Op: isa.Barrier})
		}
	}
	if parallel && p.LockEvery > 0 && g.rng.Bool(1/float64(p.LockEvery)) {
		g.scriptCriticalSection()
		in := g.pending[0]
		g.pendPos = 1
		return g.emit(in)
	}

	r := g.rng.Float64()
	switch {
	case r < p.LoadFrac:
		return g.emit(g.genLoad(parallel))
	case r < p.LoadFrac+p.StoreFrac:
		return g.emit(g.genStore(parallel))
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac:
		return g.emit(g.genBranch())
	default:
		return g.emit(g.genCompute())
	}
}

// emit advances the stream index and tracks the last load.
func (g *profileGen) emit(in isa.Inst) isa.Inst {
	if in.Op == isa.Load || in.Op == isa.Lock {
		g.lastLoad = g.idx
	}
	g.idx++
	return in
}

func (g *profileGen) genLoad(parallel bool) isa.Inst {
	p := g.p
	in := isa.Inst{Op: isa.Load, Fault: g.rng.Bool(p.FaultRate)}
	if parallel && g.sharedLines > 0 && g.rng.Bool(p.SharedFrac) {
		in.Addr = g.sharedAddr()
		if g.rng.Bool(0.3) {
			in.Deps[0] = g.dep()
		}
		return in
	}
	k := g.pickKernel()
	addr, chase := k.next(g.rng)
	in.Addr = addr
	if chase {
		if d := g.depTo(k.lastChase); d > 0 {
			in.Deps[0] = d
		} else {
			in.Deps[0] = g.dep()
		}
		k.lastChase = g.idx
	} else if g.rng.Bool(p.AddrDepFrac) {
		if d := g.depTo(g.lastLoad); d > 0 {
			in.Deps[0] = d
		} else {
			in.Deps[0] = g.dep()
		}
	} else {
		recent := p.AddrRecentFrac
		if recent == 0 {
			recent = 0.15
		}
		if g.rng.Bool(recent) {
			in.Deps[0] = g.dep()
		}
		// Otherwise the address comes from a long-retired register and
		// generation needs no in-flight producer.
	}
	return in
}

func (g *profileGen) genStore(parallel bool) isa.Inst {
	p := g.p
	in := isa.Inst{Op: isa.Store, Fault: g.rng.Bool(p.FaultRate)}
	if parallel && g.sharedLines > 0 && g.rng.Bool(p.SharedStoreFrac) {
		in.Addr = g.sharedAddr()
	} else {
		k := g.pickKernel()
		in.Addr, _ = k.next(g.rng)
	}
	// Store addresses, like load addresses, usually come from long-retired
	// base registers; only a fraction depend on in-flight producers.
	recent := p.AddrRecentFrac
	if recent == 0 {
		recent = 0.15
	}
	if g.rng.Bool(recent) {
		in.Deps[0] = g.dep() // address producer
	}
	in.Deps[1] = g.dep() // data producer
	return in
}

// branchSites is the number of static branch sites a generator models, each
// with its own taken bias: "hard" sites are coin flips, the rest strongly
// biased one way.
const branchSites = 64

// initBranchSites lazily creates the generator's branch-site population.
func (g *profileGen) initBranchSites() {
	if g.sites != nil {
		return
	}
	// The share of hard sites follows the misprediction rate (sized for a
	// trained predictor that misses a biased site ~3% of the time);
	// Mispredict itself is drawn per branch in genBranch.
	hardFrac := (g.p.MispredictRate - 0.015) * 2
	if hardFrac < 0 {
		hardFrac = g.p.MispredictRate
	}
	if hardFrac > 1 {
		hardFrac = 1
	}
	for i := 0; i < branchSites; i++ {
		taken := 0.03
		if g.rng.Bool(hardFrac) {
			taken = 0.5
		} else if g.rng.Bool(0.5) {
			taken = 0.97
		}
		g.sites = append(g.sites, taken)
	}
}

func (g *profileGen) genBranch() isa.Inst {
	p := g.p
	g.initBranchSites()
	taken := g.sites[g.rng.Intn(len(g.sites))]
	in := isa.Inst{
		Op:         isa.Branch,
		Taken:      g.rng.Bool(taken),
		Mispredict: g.rng.Bool(p.MispredictRate),
	}
	if g.rng.Bool(p.BranchDepLoad) {
		if d := g.depTo(g.lastLoad); d > 0 {
			in.Deps[0] = d
			return in
		}
	}
	in.Deps[0] = g.dep()
	return in
}

func (g *profileGen) genCompute() isa.Inst {
	p := g.p
	in := isa.Inst{Op: isa.ALU, Lat: 1}
	if g.rng.Bool(p.FPFrac) {
		in.Op = isa.FALU
		in.Lat = uint8(4 + g.rng.Intn(3))
	} else if g.rng.Bool(0.3) {
		in.Lat = 3 // occasional multiply
	}
	in.Deps[0] = g.dep()
	if g.rng.Bool(0.8) {
		in.Deps[1] = g.dep()
	}
	return in
}

// scriptCriticalSection queues lock-acquire, CritLen shared accesses, and a
// release store to the same lock line.
func (g *profileGen) scriptCriticalSection() {
	p := g.p
	lock := lockBase + uint64(g.rng.Intn(g.lockLines))*arch.LineBytes
	g.pending = append(g.pending, isa.Inst{Op: isa.Lock, Addr: lock})
	n := p.CritLen
	if n == 0 {
		n = 4
	}
	for i := 0; i < n; i++ {
		addr := lock + arch.LineBytes // data next to the lock: worst-case contention
		if g.sharedLines > 0 {
			addr = g.sharedAddr()
		}
		op := isa.Load
		if g.rng.Bool(0.4) {
			op = isa.Store
		}
		g.pending = append(g.pending, isa.Inst{Op: op, Addr: addr, Deps: [2]int32{1}})
	}
	g.pending = append(g.pending, isa.Inst{Op: isa.Store, Addr: lock, Deps: [2]int32{1}})
}

// hotSharedLines is the size of the frequently-reused part of the shared
// region. Real shared data has strong temporal locality: most accesses hit
// a small hot set (which therefore mostly lives in the L1s and generates
// the invalidation traffic the coherence experiments rely on), while the
// rest sweep the full region.
const hotSharedLines = 64 // 4 KB

// sharedAddr picks a shared-region address with temporal locality.
func (g *profileGen) sharedAddr() uint64 {
	span := g.sharedLines
	if g.rng.Bool(0.8) && span > hotSharedLines {
		span = hotSharedLines
	}
	return sharedBase + g.rng.Uint64n(span)*arch.LineBytes
}

// WrongPath implements Generator: transient instructions are a mix of
// compute and loads into the first kernel's footprint.
func (g *profileGen) WrongPath() isa.Inst {
	if g.wrongRNG.Bool(0.3) && len(g.kernels) > 0 {
		k := &g.kernels[0]
		return isa.Inst{
			Op:   isa.Load,
			Addr: k.base + g.wrongRNG.Uint64n(k.lines)*arch.LineBytes,
			Deps: [2]int32{1},
		}
	}
	return isa.Inst{Op: isa.ALU, Lat: 1, Deps: [2]int32{1, 2}}
}
