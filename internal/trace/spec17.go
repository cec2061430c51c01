package trace

// SPEC17 returns synthetic proxies for the 21 SPEC CPU2017 applications of
// the paper's Figure 7 (omnetpp and imagick are excluded there too). Each
// proxy's parameters encode the application's published character: memory
// footprint and access pattern (which set L1/LLC miss behaviour and
// memory-level parallelism), branch misprediction, and load-address
// dependence. Absolute numbers are not calibrated to gem5; the per-
// benchmark *contrasts* (streaming vs pointer-chasing vs branchy vs
// dependence-bound) are what the experiments rely on. The slice is fresh;
// the profiles are the registry's own, shared and read-only.
func SPEC17() []*Profile { return ptrs(spec17[:]) }

// spec17 is the SPEC17 registry table; init fills in the suite defaults.
var spec17 = [...]Profile{
	// blender: mixed FP render, moderate everything.
	{BenchName: "blender_r", LoadFrac: 0.28, StoreFrac: 0.10,
		BranchFrac: 0.14, FPFrac: 0.4, MispredictRate: 0.035, BranchDepLoad: 0.2,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.95, FootprintKB: 16},
			{Kind: Random, Weight: 0.05, FootprintKB: 1024}}},
	// bwaves: FP streaming over a huge grid; very high L1 miss rate,
	// near-perfect branches, abundant MLP. EP's showcase.
	{BenchName: "bwaves_r", LoadFrac: 0.34, StoreFrac: 0.08,
		BranchFrac: 0.04, FPFrac: 0.8, MispredictRate: 0.002, BranchDepLoad: 0.05,
		Kernels: []Kernel{{Kind: Stride, Weight: 0.12, FootprintKB: 4096, StrideLines: 3},
			{Kind: Random, Weight: 0.05, FootprintKB: 4096},
			{Kind: Hot, Weight: 0.83, FootprintKB: 16}}},
	// cactuBSSN: stencil FP, large footprint, low mispredicts.
	{BenchName: "cactuBSSN_r", LoadFrac: 0.33, StoreFrac: 0.12,
		BranchFrac: 0.05, FPFrac: 0.8, MispredictRate: 0.004, BranchDepLoad: 0.05,
		Kernels: []Kernel{{Kind: Stream, Weight: 0.1, FootprintKB: 4096},
			{Kind: Stride, Weight: 0.08, FootprintKB: 4096, StrideLines: 5},
			{Kind: Hot, Weight: 0.90, FootprintKB: 16}}},
	// cam4: FP climate model, moderate misses and branches.
	{BenchName: "cam4_r", LoadFrac: 0.30, StoreFrac: 0.11,
		BranchFrac: 0.12, FPFrac: 0.6, MispredictRate: 0.015, BranchDepLoad: 0.15,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.95, FootprintKB: 24},
			{Kind: Stream, Weight: 0.05, FootprintKB: 4096}}},
	// deepsjeng: branchy chess search, cache-resident.
	{BenchName: "deepsjeng_r", LoadFrac: 0.26, StoreFrac: 0.09,
		BranchFrac: 0.19, FPFrac: 0.0, MispredictRate: 0.05, BranchDepLoad: 0.35,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.97, FootprintKB: 24},
			{Kind: Random, Weight: 0.03, FootprintKB: 512}}},
	// exchange2: extremely branchy integer puzzle, tiny footprint.
	{BenchName: "exchange2_r", LoadFrac: 0.22, StoreFrac: 0.12,
		BranchFrac: 0.22, FPFrac: 0.0, MispredictRate: 0.06, BranchDepLoad: 0.25,
		Kernels: []Kernel{{Kind: Hot, Weight: 1.0, FootprintKB: 8}}},
	// fotonik3d: streaming FP solver, very high miss rate, high MLP.
	{BenchName: "fotonik3d_r", LoadFrac: 0.35, StoreFrac: 0.10,
		BranchFrac: 0.04, FPFrac: 0.8, MispredictRate: 0.002, BranchDepLoad: 0.05,
		Kernels: []Kernel{{Kind: Stride, Weight: 0.15, FootprintKB: 4096, StrideLines: 2},
			{Kind: Random, Weight: 0.05, FootprintKB: 4096},
			{Kind: Hot, Weight: 0.80, FootprintKB: 16}}},
	// gcc: integer compiler, irregular but mostly cached.
	{BenchName: "gcc_r", LoadFrac: 0.27, StoreFrac: 0.12,
		BranchFrac: 0.20, FPFrac: 0.0, MispredictRate: 0.03, BranchDepLoad: 0.3,
		AddrDepFrac: 0.15,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.93, FootprintKB: 16},
			{Kind: Random, Weight: 0.07, FootprintKB: 2048}}},
	// lbm: lattice-Boltzmann; store-heavy streaming with misses.
	{BenchName: "lbm_r", LoadFrac: 0.28, StoreFrac: 0.17,
		BranchFrac: 0.03, FPFrac: 0.8, MispredictRate: 0.002, BranchDepLoad: 0.05,
		Kernels: []Kernel{{Kind: Stride, Weight: 0.10, FootprintKB: 4096, StrideLines: 3},
			{Kind: Hot, Weight: 0.82, FootprintKB: 16}}},
	// leela: branchy Go engine, cache-resident.
	{BenchName: "leela_r", LoadFrac: 0.25, StoreFrac: 0.08,
		BranchFrac: 0.18, FPFrac: 0.1, MispredictRate: 0.07, BranchDepLoad: 0.35,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.98, FootprintKB: 24},
			{Kind: Random, Weight: 0.02, FootprintKB: 512}}},
	// mcf: pointer-chasing over a huge graph; DRAM-bound, serialized.
	{BenchName: "mcf_r", LoadFrac: 0.32, StoreFrac: 0.09,
		BranchFrac: 0.16, FPFrac: 0.0, MispredictRate: 0.05, BranchDepLoad: 0.45,
		AddrDepFrac: 0.2,
		Kernels: []Kernel{{Kind: Chase, Weight: 0.18, FootprintKB: 65536},
			{Kind: Random, Weight: 0.07, FootprintKB: 4096},
			{Kind: Hot, Weight: 0.75, FootprintKB: 24}}},
	// nab: FP molecular dynamics, moderate.
	{BenchName: "nab_r", LoadFrac: 0.30, StoreFrac: 0.09,
		BranchFrac: 0.10, FPFrac: 0.7, MispredictRate: 0.012, BranchDepLoad: 0.1,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.95, FootprintKB: 24},
			{Kind: Random, Weight: 0.05, FootprintKB: 1024}}},
	// namd: FP compute-bound, cache-resident.
	{BenchName: "namd_r", LoadFrac: 0.29, StoreFrac: 0.08,
		BranchFrac: 0.08, FPFrac: 0.8, MispredictRate: 0.006, BranchDepLoad: 0.1,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.98, FootprintKB: 24},
			{Kind: Stream, Weight: 0.02, FootprintKB: 1024}}},
	// parest: FP finite elements; sparse accesses with misses.
	{BenchName: "parest_r", LoadFrac: 0.32, StoreFrac: 0.09,
		BranchFrac: 0.10, FPFrac: 0.6, MispredictRate: 0.01, BranchDepLoad: 0.15,
		AddrDepFrac: 0.1,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.9, FootprintKB: 24},
			{Kind: Random, Weight: 0.1, FootprintKB: 4096}}},
	// perlbench: integer interpreter, branchy, cached.
	{BenchName: "perlbench_r", LoadFrac: 0.28, StoreFrac: 0.13,
		BranchFrac: 0.19, FPFrac: 0.0, MispredictRate: 0.025, BranchDepLoad: 0.3,
		AddrDepFrac: 0.2,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.96, FootprintKB: 24},
			{Kind: Random, Weight: 0.04, FootprintKB: 1024}}},
	// povray: FP ray tracer, branchy, cache-resident.
	{BenchName: "povray_r", LoadFrac: 0.28, StoreFrac: 0.10,
		BranchFrac: 0.15, FPFrac: 0.5, MispredictRate: 0.025, BranchDepLoad: 0.25,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.98, FootprintKB: 16},
			{Kind: Random, Weight: 0.02, FootprintKB: 256}}},
	// roms: FP ocean model, streaming with high miss rate.
	{BenchName: "roms_r", LoadFrac: 0.33, StoreFrac: 0.11,
		BranchFrac: 0.06, FPFrac: 0.8, MispredictRate: 0.004, BranchDepLoad: 0.05,
		Kernels: []Kernel{{Kind: Stride, Weight: 0.12, FootprintKB: 4096, StrideLines: 2},
			{Kind: Hot, Weight: 0.88, FootprintKB: 16}}},
	// wrf: FP weather model, moderate misses.
	{BenchName: "wrf_r", LoadFrac: 0.30, StoreFrac: 0.10,
		BranchFrac: 0.10, FPFrac: 0.7, MispredictRate: 0.012, BranchDepLoad: 0.1,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.93, FootprintKB: 24},
			{Kind: Stream, Weight: 0.07, FootprintKB: 4096}}},
	// x264: video encoder with load-to-load address dependences; the
	// paper singles it out as the pattern EP cannot handle well.
	{BenchName: "x264_r", LoadFrac: 0.30, StoreFrac: 0.11,
		BranchFrac: 0.10, FPFrac: 0.1, MispredictRate: 0.015, BranchDepLoad: 0.2,
		AddrDepFrac: 0.55, DepDist: 6,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.92, FootprintKB: 24},
			{Kind: Random, Weight: 0.08, FootprintKB: 2048}}},
	// xalancbmk: XML processing, pointer-heavy with misses.
	{BenchName: "xalancbmk_r", LoadFrac: 0.31, StoreFrac: 0.10,
		BranchFrac: 0.18, FPFrac: 0.0, MispredictRate: 0.02, BranchDepLoad: 0.35,
		AddrDepFrac: 0.25,
		Kernels: []Kernel{{Kind: Chase, Weight: 0.08, FootprintKB: 4096},
			{Kind: Hot, Weight: 0.85, FootprintKB: 24},
			{Kind: Random, Weight: 0.07, FootprintKB: 2048}}},
	// xz: compression; data-dependent branches, moderate misses.
	{BenchName: "xz_r", LoadFrac: 0.28, StoreFrac: 0.11,
		BranchFrac: 0.17, FPFrac: 0.0, MispredictRate: 0.055, BranchDepLoad: 0.45,
		AddrDepFrac: 0.2,
		Kernels: []Kernel{{Kind: Hot, Weight: 0.91, FootprintKB: 24},
			{Kind: Random, Weight: 0.09, FootprintKB: 4096}}},
}
