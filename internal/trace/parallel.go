package trace

// SPLASH2 returns synthetic 8-core proxies for the 13 SPLASH2 applications
// of the paper's Figure 8. Sharing, locking and barrier parameters stand in
// for each application's published communication behaviour. The slice is
// fresh; the profiles are the registry's own, shared and read-only.
func SPLASH2() []*Profile { return ptrs(splash2[:]) }

// splash2 is the SPLASH2 registry table; init fills in the suite defaults.
var splash2 = [...]Profile{
	// barnes: N-body tree walk; pointer-ish, moderate sharing.
	{BenchName: "barnes", LoadFrac: 0.30, StoreFrac: 0.10,
		BranchFrac: 0.13, FPFrac: 0.4, MispredictRate: 0.02, BranchDepLoad: 0.25,
		AddrDepFrac: 0.15, SharedFrac: 0.06, SharedStoreFrac: 0.025,
		LockEvery: 900, CritLen: 3, BarrierEvery: 60000,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.952, FootprintKB: 24},
			{Kind: Chase, Weight: 0.02, FootprintKB: 1024},
			{Kind: Random, Weight: 0.028, FootprintKB: 1024}}},
	// cholesky: blocked factorization; bursty misses, locks on tasks.
	{BenchName: "cholesky", LoadFrac: 0.31, StoreFrac: 0.12,
		BranchFrac: 0.09, FPFrac: 0.6, MispredictRate: 0.012, BranchDepLoad: 0.15,
		SharedFrac: 0.04, SharedStoreFrac: 0.02, LockEvery: 1200, CritLen: 3,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.96, FootprintKB: 24},
			{Kind: Stream, Weight: 0.04, FootprintKB: 1024}}},
	// fft: transpose phases with bursty all-to-all misses; barriers.
	{BenchName: "fft", LoadFrac: 0.32, StoreFrac: 0.13,
		BranchFrac: 0.05, FPFrac: 0.7, MispredictRate: 0.004, BranchDepLoad: 0.05,
		SharedFrac: 0.075, SharedStoreFrac: 0.05, SharedKB: 2048, BarrierEvery: 30000,
		Kernels: []Kernel{{Kind: Stride, Weight: 0.06, FootprintKB: 1024, StrideLines: 4},
			{Kind: Hot, Weight: 0.94, FootprintKB: 16}}},
	// fmm: adaptive N-body; moderate misses and sharing.
	{BenchName: "fmm", LoadFrac: 0.30, StoreFrac: 0.10,
		BranchFrac: 0.12, FPFrac: 0.5, MispredictRate: 0.015, BranchDepLoad: 0.2,
		SharedFrac: 0.05, SharedStoreFrac: 0.02, LockEvery: 1000, CritLen: 3,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.968, FootprintKB: 24},
			{Kind: Random, Weight: 0.032, FootprintKB: 1024}}},
	// lu_cb: blocked LU, cache-friendly (contiguous blocks).
	{BenchName: "lu_cb", LoadFrac: 0.31, StoreFrac: 0.12,
		BranchFrac: 0.07, FPFrac: 0.7, MispredictRate: 0.006, BranchDepLoad: 0.1,
		SharedFrac: 0.025, SharedStoreFrac: 0.01, BarrierEvery: 40000,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.984, FootprintKB: 24},
			{Kind: Stream, Weight: 0.016, FootprintKB: 1024}}},
	// lu_ncb: non-contiguous LU: high L1 miss rate but branches that
	// resolve quickly — the paper's example where EP helps hugely.
	{BenchName: "lu_ncb", LoadFrac: 0.33, StoreFrac: 0.13,
		BranchFrac: 0.06, FPFrac: 0.7, MispredictRate: 0.004, BranchDepLoad: 0.05,
		SharedFrac: 0.03, SharedStoreFrac: 0.01, BarrierEvery: 40000,
		Kernels: []Kernel{{Kind: Stride, Weight: 0.072, FootprintKB: 1536, StrideLines: 8},
			{Kind: Hot, Weight: 0.928, FootprintKB: 16}}},
	// ocean_cp: stencil grid solver; high miss, barrier-heavy.
	{BenchName: "ocean_cp", LoadFrac: 0.33, StoreFrac: 0.12,
		BranchFrac: 0.06, FPFrac: 0.7, MispredictRate: 0.005, BranchDepLoad: 0.05,
		SharedFrac: 0.04, SharedStoreFrac: 0.025, SharedKB: 4096, BarrierEvery: 25000,
		Kernels: []Kernel{{Kind: Stride, Weight: 0.048, FootprintKB: 1536, StrideLines: 2},
			{Kind: Hot, Weight: 0.952, FootprintKB: 16}}},
	// radiosity: irregular task-parallel; branchy, lock-heavy.
	{BenchName: "radiosity", LoadFrac: 0.29, StoreFrac: 0.11,
		BranchFrac: 0.15, FPFrac: 0.3, MispredictRate: 0.03, BranchDepLoad: 0.3,
		SharedFrac: 0.075, SharedStoreFrac: 0.04, LockEvery: 500, CritLen: 4,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.972, FootprintKB: 24},
			{Kind: Random, Weight: 0.028, FootprintKB: 1024}}},
	// radix: radix sort; random scatter stores, high miss, barriers.
	{BenchName: "radix", LoadFrac: 0.30, StoreFrac: 0.16,
		BranchFrac: 0.06, FPFrac: 0.0, MispredictRate: 0.006, BranchDepLoad: 0.1,
		SharedFrac: 0.05, SharedStoreFrac: 0.06, SharedKB: 4096, BarrierEvery: 30000,
		Kernels: []Kernel{{Kind: Random, Weight: 0.06, FootprintKB: 1536},
			{Kind: Hot, Weight: 0.94, FootprintKB: 16}}},
	// raytrace: pointer chasing with late-resolving branches; the
	// paper notes its branches resolve slowly (unlike lu_ncb).
	{BenchName: "raytrace", LoadFrac: 0.31, StoreFrac: 0.08,
		BranchFrac: 0.14, FPFrac: 0.4, MispredictRate: 0.035, BranchDepLoad: 0.5,
		AddrDepFrac: 0.2, SharedFrac: 0.05, SharedStoreFrac: 0.015,
		LockEvery: 1500, CritLen: 2,
		Kernels: []Kernel{{Kind: Chase, Weight: 0.048, FootprintKB: 1536},
			{Kind: Hot, Weight: 0.88, FootprintKB: 24},
			{Kind: Random, Weight: 0.072, FootprintKB: 1024}}},
	// volrend: branchy volume renderer, mostly cached.
	{BenchName: "volrend", LoadFrac: 0.28, StoreFrac: 0.09,
		BranchFrac: 0.17, FPFrac: 0.2, MispredictRate: 0.03, BranchDepLoad: 0.3,
		SharedFrac: 0.04, SharedStoreFrac: 0.015, LockEvery: 1200, CritLen: 2,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.98, FootprintKB: 24},
			{Kind: Random, Weight: 0.02, FootprintKB: 1024}}},
	// water_nsquared: FP compute with per-molecule locks.
	{BenchName: "water_nsquared", LoadFrac: 0.30, StoreFrac: 0.10,
		BranchFrac: 0.08, FPFrac: 0.7, MispredictRate: 0.008, BranchDepLoad: 0.1,
		SharedFrac: 0.04, SharedStoreFrac: 0.02, LockEvery: 800, CritLen: 3,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.988, FootprintKB: 24},
			{Kind: Stream, Weight: 0.012, FootprintKB: 1024}}},
	// water_spatial: FP compute, cell lists, light sharing.
	{BenchName: "water_spatial", LoadFrac: 0.30, StoreFrac: 0.10,
		BranchFrac: 0.08, FPFrac: 0.7, MispredictRate: 0.008, BranchDepLoad: 0.1,
		SharedFrac: 0.025, SharedStoreFrac: 0.01, LockEvery: 2000, CritLen: 3,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.988, FootprintKB: 24},
			{Kind: Stream, Weight: 0.012, FootprintKB: 2048}}},
}

// PARSEC returns synthetic 8-core proxies for the 10 PARSEC applications of
// the paper's Figure 8. The slice is fresh; the profiles are the registry's
// own, shared and read-only.
func PARSEC() []*Profile { return ptrs(parsec[:]) }

// parsec is the PARSEC registry table; init fills in the suite defaults.
var parsec = [...]Profile{
	// blackscholes: embarrassingly parallel FP; tiny working set.
	{BenchName: "blackscholes", LoadFrac: 0.28, StoreFrac: 0.08,
		BranchFrac: 0.06, FPFrac: 0.8, MispredictRate: 0.004, BranchDepLoad: 0.05,
		SharedFrac: 0.01, SharedStoreFrac: 0.005,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.988, FootprintKB: 16},
			{Kind: Stream, Weight: 0.012, FootprintKB: 2048}}},
	// bodytrack: branchy vision pipeline with barriers.
	{BenchName: "bodytrack", LoadFrac: 0.29, StoreFrac: 0.10,
		BranchFrac: 0.15, FPFrac: 0.4, MispredictRate: 0.025, BranchDepLoad: 0.3,
		SharedFrac: 0.04, SharedStoreFrac: 0.015, BarrierEvery: 35000,
		LockEvery: 1500, CritLen: 3,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.976, FootprintKB: 24},
			{Kind: Random, Weight: 0.024, FootprintKB: 1024}}},
	// canneal: pointer chasing over a huge netlist; high miss.
	{BenchName: "canneal", LoadFrac: 0.32, StoreFrac: 0.09,
		BranchFrac: 0.12, FPFrac: 0.0, MispredictRate: 0.02, BranchDepLoad: 0.35,
		AddrDepFrac: 0.25, SharedFrac: 0.075, SharedStoreFrac: 0.03, SharedKB: 4096,
		Kernels: []Kernel{{Kind: Chase, Weight: 0.06, FootprintKB: 16384},
			{Kind: Hot, Weight: 0.9, FootprintKB: 24},
			{Kind: Random, Weight: 0.04, FootprintKB: 4096}}},
	// facesim: FP stencil over meshes, moderate misses.
	{BenchName: "facesim", LoadFrac: 0.31, StoreFrac: 0.12,
		BranchFrac: 0.08, FPFrac: 0.7, MispredictRate: 0.008, BranchDepLoad: 0.1,
		SharedFrac: 0.03, SharedStoreFrac: 0.015, BarrierEvery: 45000,
		Kernels: []Kernel{{Kind: Stream, Weight: 0.04, FootprintKB: 1024},
			{Kind: Hot, Weight: 0.96, FootprintKB: 24}}},
	// ferret: pipeline of stages; mixed behaviour, queue locks.
	{BenchName: "ferret", LoadFrac: 0.30, StoreFrac: 0.11,
		BranchFrac: 0.13, FPFrac: 0.3, MispredictRate: 0.02, BranchDepLoad: 0.25,
		SharedFrac: 0.05, SharedStoreFrac: 0.025, LockEvery: 700, CritLen: 3,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.96, FootprintKB: 24},
			{Kind: Random, Weight: 0.04, FootprintKB: 1024}}},
	// fluidanimate: FP particle simulation; fine-grained locking.
	{BenchName: "fluidanimate", LoadFrac: 0.30, StoreFrac: 0.12,
		BranchFrac: 0.09, FPFrac: 0.6, MispredictRate: 0.01, BranchDepLoad: 0.15,
		SharedFrac: 0.05, SharedStoreFrac: 0.03, LockEvery: 400, CritLen: 2,
		LockLines: 32, BarrierEvery: 50000,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.968, FootprintKB: 24},
			{Kind: Random, Weight: 0.032, FootprintKB: 1024}}},
	// freqmine: branchy itemset mining over tree structures.
	{BenchName: "freqmine", LoadFrac: 0.30, StoreFrac: 0.10,
		BranchFrac: 0.16, FPFrac: 0.0, MispredictRate: 0.025, BranchDepLoad: 0.3,
		AddrDepFrac: 0.15, SharedFrac: 0.03, SharedStoreFrac: 0.01,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.972, FootprintKB: 24},
			{Kind: Random, Weight: 0.028, FootprintKB: 1024}}},
	// swaptions: FP Monte Carlo, cache-resident, independent.
	{BenchName: "swaptions", LoadFrac: 0.28, StoreFrac: 0.09,
		BranchFrac: 0.08, FPFrac: 0.7, MispredictRate: 0.006, BranchDepLoad: 0.1,
		SharedFrac: 0.01, SharedStoreFrac: 0.005,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.992, FootprintKB: 16},
			{Kind: Stream, Weight: 0.008, FootprintKB: 1024}}},
	// vips: image pipeline; streaming with moderate misses.
	{BenchName: "vips", LoadFrac: 0.30, StoreFrac: 0.12,
		BranchFrac: 0.11, FPFrac: 0.3, MispredictRate: 0.012, BranchDepLoad: 0.15,
		SharedFrac: 0.025, SharedStoreFrac: 0.015,
		Kernels: []Kernel{{Kind: Stream, Weight: 0.048, FootprintKB: 1024},
			{Kind: Hot, Weight: 0.952, FootprintKB: 24}}},
	// x264 (parallel): load-dependence-bound encoder; EP's known
	// weak spot in the paper.
	{BenchName: "x264", LoadFrac: 0.30, StoreFrac: 0.11,
		BranchFrac: 0.10, FPFrac: 0.1, MispredictRate: 0.015, BranchDepLoad: 0.2,
		AddrDepFrac: 0.55, DepDist: 6, SharedFrac: 0.03, SharedStoreFrac: 0.015,
		LockEvery: 2000, CritLen: 2,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.968, FootprintKB: 24},
			{Kind: Random, Weight: 0.032, FootprintKB: 2048}}},
}

// init fills in each suite's defaults: its name and core count, a
// dependence distance of 7 and, for the parallel suites, a 512 KB shared
// region.
func init() {
	fill := func(suite string, cores int, ps []Profile) {
		for i := range ps {
			p := &ps[i]
			p.Suite, p.NumCores = suite, cores
			if p.DepDist == 0 {
				p.DepDist = 7
			}
			if cores > 1 && p.SharedKB == 0 {
				p.SharedKB = 512
			}
		}
	}
	fill("SPEC17", 1, spec17[:])
	fill("SPLASH2", 8, splash2[:])
	fill("PARSEC", 8, parsec[:])
}

// ptrs points into a registry table.
func ptrs(ps []Profile) []*Profile {
	out := make([]*Profile, len(ps))
	for i := range ps {
		out[i] = &ps[i]
	}
	return out
}

// Suites returns all proxies keyed by suite name, each suite in the order
// of its function. The profiles are shared and read-only.
func Suites() map[string][]*Profile {
	return map[string][]*Profile{
		"SPEC17":  SPEC17(),
		"SPLASH2": SPLASH2(),
		"PARSEC":  PARSEC(),
	}
}

// ByName returns the proxy with the given benchmark name, or nil. It is
// the registry's own profile, shared by every caller: read it, never write
// it (pinnedloads.Benchmark hands library users a copy).
func ByName(name string) *Profile {
	for _, suite := range [...][]Profile{spec17[:], splash2[:], parsec[:]} {
		for i := range suite {
			if suite[i].BenchName == name {
				return &suite[i]
			}
		}
	}
	return nil
}
