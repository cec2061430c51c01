// Package arch defines the simulated machine configuration. The defaults
// reproduce Table 1 of the Pinned Loads paper (ASPLOS 2022): 8-issue
// out-of-order x86-like cores at 2 GHz, a 32 KB 8-way L1D, an 8-slice 2
// MB/slice 16-way shared LLC with an embedded directory running a MESI
// protocol, a 4x2 ordered mesh, and 50 ns round-trip DRAM. Under TSO the
// machine is the paper's aggressive implementation (Sections 2 and 3.3): an
// invalidation or eviction never squashes the oldest load in the ROB.
package arch

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size in bytes. The whole simulator assumes
// 64-byte lines, as in the paper.
const LineBytes = 64

// LineShift is log2(LineBytes).
const LineShift = 6

// ClockGHz is the paper's core clock. Every latency in Config is already in
// core cycles, so the simulator never reads it; Table 1 prints it.
const ClockGHz = 2.0

// MaxFabricSlots is the checkpoint format's calendar: a fabric slot is
// written as its arrival cycle mod MaxFabricSlots, so no configuration may
// schedule a message this many cycles ahead.
const MaxFabricSlots = 1024

// NackBackoff is the coherence protocol's fixed delay: a Nacked request is
// re-sent NackBackoff cycles later.
const NackBackoff = 10

// Config describes one simulated machine. Use PaperConfig for the paper's
// Table 1 parameters and then override individual fields as needed; call
// Validate before handing the config to the simulator.
type Config struct {
	// Cores is the number of out-of-order cores (1 for SPEC17 runs, 8 for
	// SPLASH2/PARSEC runs in the paper).
	Cores int

	// IssueWidth is the maximum instructions dispatched, issued, and
	// retired per cycle.
	IssueWidth int

	// ROBEntries, LQEntries, SQEntries size the reorder buffer, load
	// queue, and store queue.
	ROBEntries int
	LQEntries  int
	SQEntries  int

	// WriteBufferEntries sizes the post-retirement store (write) buffer.
	// Pinned Loads' deadlock-avoidance check (paper Section 5.1.2) counts
	// yet-to-complete older stores against this capacity.
	WriteBufferEntries int

	// FetchRedirectCycles is the frontend refill penalty after a squash.
	FetchRedirectCycles int

	// L1Sets, L1Ways describe the private L1 data cache (32 KB, 8-way,
	// 64 B lines => 64 sets). L1HitCycles is the round-trip hit latency.
	L1Sets      int
	L1Ways      int
	L1HitCycles int
	L1Ports     int
	L1MSHRs     int

	// Prefetch enables the L1 next-line hardware prefetcher.
	Prefetch bool

	// LLCSlices is the number of shared LLC/directory slices (one per mesh
	// node in the paper). LLCSets/LLCWays describe one slice (2 MB,
	// 16-way => 2048 sets). LLCHitCycles is the slice access latency.
	LLCSlices    int
	LLCSets      int
	LLCWays      int
	LLCHitCycles int

	// DRAMCycles is the round-trip main-memory latency after the LLC, in
	// core cycles (50 ns at 2 GHz = 100 cycles).
	DRAMCycles int

	// MeshCols, MeshRows describe the ordered mesh (4x2); each hop costs
	// HopCycles.
	MeshCols  int
	MeshRows  int
	HopCycles int

	// WriteRetryBackoff is the delay, in cycles, before a writer retries a
	// store whose invalidation was deferred by a pinned line.
	WriteRetryBackoff int

	// DirPortsPerCycle bounds the demand requests (GetS/GetSInv/GetX)
	// each directory slice accepts per cycle; excess requests retry the
	// next cycle. Zero models unlimited directory bandwidth (the default,
	// as in the paper's evaluation). A finite value makes directory-slice
	// contention observable, which the interference-attack kernel uses to
	// demonstrate the timing channel of invisible-speculation schemes
	// (Behnia et al.).
	DirPortsPerCycle int

	// --- Pinned Loads hardware (paper Sections 5-6, Table 1) ---

	// L1CSTEntries x L1CSTRecords size the per-core L1 Cache Shadow Table
	// used by Early Pinning (12 entries x 8 records in the paper).
	L1CSTEntries int
	L1CSTRecords int

	// DirCSTEntries x DirCSTRecords size the per-core directory/LLC CST
	// (40 entries x 2 records in the paper).
	DirCSTEntries int
	DirCSTRecords int

	// Wd is the number of directory/LLC lines per slice and set reserved
	// for each core's pinned lines (2 in the paper).
	Wd int

	// CPTEntries sizes the Cannot-Pin Table (4 in the paper). Zero means
	// an ideal (unbounded) CPT, used for the Section 9.2.2 study.
	CPTEntries int

	// LQIDTagBits is the width of the extended LQ ID tag used to detect
	// stale CST records (24 bits in the paper).
	LQIDTagBits int

	// InfiniteCST makes Early Pinning track pinned-line placement
	// precisely with no capacity or hash-collision limits; used for the
	// Section 9.2.1 sensitivity study.
	InfiniteCST bool
}

// PaperConfig returns the Table 1 configuration with the given core count.
func PaperConfig(cores int) Config {
	return Config{
		Cores:               cores,
		IssueWidth:          8,
		ROBEntries:          192,
		LQEntries:           62,
		SQEntries:           32,
		WriteBufferEntries:  32,
		FetchRedirectCycles: 10,
		L1Sets:              64,
		L1Ways:              8,
		L1HitCycles:         2,
		L1Ports:             3,
		L1MSHRs:             16,
		Prefetch:            true,
		LLCSlices:           8,
		LLCSets:             2048,
		LLCWays:             16,
		LLCHitCycles:        8,
		DRAMCycles:          100,
		MeshCols:            4,
		MeshRows:            2,
		HopCycles:           1,
		WriteRetryBackoff:   20,
		L1CSTEntries:        12,
		L1CSTRecords:        8,
		DirCSTEntries:       40,
		DirCSTRecords:       2,
		Wd:                  2,
		CPTEntries:          4,
		LQIDTagBits:         24,
	}
}

// Validate checks internal consistency and returns a descriptive error for
// the first problem found.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("arch: Cores must be positive, got %d", c.Cores)
	case c.IssueWidth <= 0:
		return fmt.Errorf("arch: IssueWidth must be positive, got %d", c.IssueWidth)
	case c.ROBEntries <= 0 || c.LQEntries <= 0 || c.SQEntries <= 0:
		return fmt.Errorf("arch: ROB/LQ/SQ sizes must be positive (%d/%d/%d)",
			c.ROBEntries, c.LQEntries, c.SQEntries)
	case c.WriteBufferEntries <= 0:
		return fmt.Errorf("arch: WriteBufferEntries must be positive, got %d", c.WriteBufferEntries)
	case c.L1Sets <= 0 || c.L1Ways <= 0:
		return fmt.Errorf("arch: L1 geometry must be positive (%d sets x %d ways)", c.L1Sets, c.L1Ways)
	case c.L1Sets&(c.L1Sets-1) != 0:
		return fmt.Errorf("arch: L1Sets must be a power of two, got %d", c.L1Sets)
	case c.L1MSHRs <= 0:
		return fmt.Errorf("arch: L1MSHRs must be positive, got %d", c.L1MSHRs)
	case c.LLCSlices <= 0 || c.LLCSets <= 0 || c.LLCWays <= 0:
		return fmt.Errorf("arch: LLC geometry must be positive (%d slices, %d sets x %d ways)",
			c.LLCSlices, c.LLCSets, c.LLCWays)
	case c.LLCSets&(c.LLCSets-1) != 0:
		return fmt.Errorf("arch: LLCSets must be a power of two, got %d", c.LLCSets)
	case c.MeshCols <= 0 || c.MeshRows <= 0:
		return fmt.Errorf("arch: mesh geometry must be positive (%dx%d)", c.MeshCols, c.MeshRows)
	case c.MeshCols*c.MeshRows < c.Cores:
		return fmt.Errorf("arch: mesh %dx%d too small for %d cores",
			c.MeshCols, c.MeshRows, c.Cores)
	case c.MeshCols*c.MeshRows < c.LLCSlices:
		return fmt.Errorf("arch: mesh %dx%d too small for %d LLC slices",
			c.MeshCols, c.MeshRows, c.LLCSlices)
	case c.Wd <= 0:
		return fmt.Errorf("arch: Wd must be positive, got %d", c.Wd)
	case c.Wd*c.Cores > c.LLCWays:
		return fmt.Errorf("arch: Wd*Cores (%d) exceeds LLC associativity (%d)",
			c.Wd*c.Cores, c.LLCWays)
	case c.LQIDTagBits < 8 || c.LQIDTagBits > 32:
		return fmt.Errorf("arch: LQIDTagBits must be in [8,32], got %d", c.LQIDTagBits)
	case c.CPTEntries < 0:
		return fmt.Errorf("arch: CPTEntries must be >= 0, got %d", c.CPTEntries)
	case c.DirPortsPerCycle < 0:
		return fmt.Errorf("arch: DirPortsPerCycle must be >= 0, got %d", c.DirPortsPerCycle)
	case c.L1HitCycles < 0 || c.LLCHitCycles < 0 || c.DRAMCycles < 0 || c.HopCycles < 0 ||
		c.WriteRetryBackoff < 0 || c.FetchRedirectCycles < 0:
		return fmt.Errorf("arch: latencies must be >= 0 (L1HitCycles %d, LLCHitCycles %d, DRAMCycles %d, HopCycles %d, WriteRetryBackoff %d, FetchRedirectCycles %d)",
			c.L1HitCycles, c.LLCHitCycles, c.DRAMCycles, c.HopCycles, c.WriteRetryBackoff, c.FetchRedirectCycles)
	case c.LongestDelay() >= MaxFabricSlots:
		return fmt.Errorf("arch: longest message delay %d cycles (the largest of DRAMCycles, WriteRetryBackoff, L1HitCycles and a mesh crossing after LLCHitCycles) must be below %d",
			c.LongestDelay(), MaxFabricSlots)
	}
	return nil
}

// LongestDelay returns the most cycles ahead the coherence fabric schedules
// a message on this machine: a directory reply crossing the mesh's diameter
// after an LLC access (a message pays HopCycles at every router, one more
// than its hops), a DRAM fetch, an L1 hit, a store's retry backoff, or a
// Nacked request's backoff.
func (c *Config) LongestDelay() int {
	mesh := c.HopCycles*(c.MeshCols+c.MeshRows-1) + c.LLCHitCycles
	return max(mesh, c.DRAMCycles, c.L1HitCycles, c.WriteRetryBackoff, NackBackoff)
}

// FabricSlots returns the length of the fabric's calendar ring: the smallest
// power of two, at least 64, above LongestDelay (128 for the paper's
// machine).
func (c *Config) FabricSlots() int {
	return max(64, 1<<bits.Len(uint(c.LongestDelay())))
}

// LineAddr returns the cache line address (address >> 6) for a byte address.
func LineAddr(addr uint64) uint64 { return addr >> LineShift }

// LineRange is a run of N consecutive line addresses starting at First.
type LineRange struct{ First, N uint64 }

// L1Set returns the L1 set index for a line address.
func (c *Config) L1Set(line uint64) int { return int(line) & (c.L1Sets - 1) }

// LLCSlice returns the home slice for a line address. Lines are interleaved
// across slices by low-order set bits, as in commercial sliced LLCs.
func (c *Config) LLCSlice(line uint64) int { return int(line % uint64(c.LLCSlices)) }

// LLCSet returns the set index within a slice for a line address.
func (c *Config) LLCSet(line uint64) int {
	return int(line/uint64(c.LLCSlices)) & (c.LLCSets - 1)
}
