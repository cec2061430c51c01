// Package pinnedloads is a from-scratch reproduction of "Pinned Loads:
// Taming Speculative Loads in Secure Processors" (Zhao, Ji, Morrison,
// Marinov, Torrellas — ASPLOS 2022) as a self-contained Go library.
//
// It provides a cycle-level simulator of multicore out-of-order TSO
// processors with a directory-based MESI coherence protocol, extended with
// the paper's Pinned Loads mechanisms (invalidation deferral, eviction
// denial, Cache Shadow Tables, Cannot-Pin Tables), the defense schemes the
// paper evaluates (Fence, Delay-On-Miss, STT) under the Comprehensive and
// Spectre threat models, and synthetic proxies for the SPEC17, SPLASH2 and
// PARSEC workloads of its evaluation.
//
// Quick start:
//
//	res, err := pinnedloads.Run(pinnedloads.RunSpec{
//		Benchmark: "mcf_r",
//		Scheme:    pinnedloads.Fence,
//		Variant:   pinnedloads.EP,
//		Measure:   100_000,
//	})
//
// Normalize against a second run with Scheme: Unsafe to obtain the
// execution overhead the paper reports. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-versus-measured results.
package pinnedloads

import (
	"context"
	"fmt"
	"slices"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/checkpoint"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/pin"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
	"pinnedloads/internal/tracefile"
)

// Config describes the simulated machine; see arch.Config for all fields.
type Config = arch.Config

// PaperConfig returns the paper's Table 1 machine with the given core count.
func PaperConfig(cores int) Config { return arch.PaperConfig(cores) }

// Scheme is a hardware defense scheme (Unsafe, Fence, DOM, STT).
type Scheme = defense.Scheme

// Defense scheme values (paper Table 2), plus the InvisiSpec-style
// invisible-execution scheme (IS) the paper lists as a protectable
// category and the reversible-rollback scheme (RCP) that journals
// speculative coherence state and reverses it on squash.
const (
	Unsafe = defense.Unsafe
	Fence  = defense.Fence
	DOM    = defense.DOM
	STT    = defense.STT
	IS     = defense.IS
	RCP    = defense.RCP
)

// Consistency is the memory consistency model a run simulates.
type Consistency = defense.Consistency

// Consistency model values: TSO (the default, the paper's baseline) and
// RC (release consistency, under which the MCV squash source is vacuous).
const (
	TSO = defense.TSO
	RC  = defense.RC
)

// Variant is a configuration extension (Comp, LP, EP, Spectre).
type Variant = defense.Variant

// Configuration variants (paper Table 3).
const (
	Comp    = defense.Comp
	LP      = defense.LP
	EP      = defense.EP
	Spectre = defense.Spectre
)

// Cond is a Visibility Point condition mask; used by the Figure 1 study.
type Cond = defense.Cond

// VP squash-source conditions (paper Section 1).
const (
	CondCtrl      = defense.CondCtrl
	CondAlias     = defense.CondAlias
	CondException = defense.CondException
	CondMCV       = defense.CondMCV
)

// Workload is a source of per-core instruction streams.
type Workload = trace.Source

// Profile is a parameterized synthetic benchmark proxy.
type Profile = trace.Profile

// Script is a fixed instruction sequence usable as a custom Workload.
type Script = trace.Script

// Inst is one micro-operation of a Script workload.
type Inst = isa.Inst

// Micro-operation kinds for Script workloads.
const (
	OpNop     = isa.Nop
	OpALU     = isa.ALU
	OpFALU    = isa.FALU
	OpBranch  = isa.Branch
	OpLoad    = isa.Load
	OpStore   = isa.Store
	OpFence   = isa.Fence
	OpLock    = isa.Lock
	OpBarrier = isa.Barrier
	OpHalt    = isa.Halt
)

// Counters is the set of event counters a run accumulates.
type Counters = stats.Counters

// HardwareCost is the storage added by the Pinned Loads structures.
type HardwareCost = pin.HardwareCost

// Cost computes Pinned Loads storage for a configuration (Section 9.2.4).
func Cost(cfg *Config) HardwareCost { return pin.Cost(cfg) }

// SPEC17, SPLASH2 and PARSEC return the benchmark proxy suites. Every
// profile is the caller's own copy: editing one changes no other run.
func SPEC17() []*Profile  { return copies(trace.SPEC17()...) }
func SPLASH2() []*Profile { return copies(trace.SPLASH2()...) }
func PARSEC() []*Profile  { return copies(trace.PARSEC()...) }

// Benchmark returns a copy of the proxy with the given name, or nil.
func Benchmark(name string) *Profile { return copies(trace.ByName(name))[0] }

// copies replaces each registry profile in ps, shared and read-only, by a
// deep copy; nil stays nil.
func copies(ps ...*Profile) []*Profile {
	for i, p := range ps {
		if p != nil {
			c := *p
			c.Kernels = slices.Clone(p.Kernels)
			ps[i] = &c
		}
	}
	return ps
}

// RecordTrace captures n instructions per core of a workload into a
// replayable binary trace file (see also cmd/pltrace -record).
func RecordTrace(w Workload, seed uint64, n int, path string) error {
	return tracefile.Record(w, seed, n).Save(path)
}

// LoadTrace loads a recorded trace file as a Workload; replay is
// bit-identical to the original stream regardless of simulator version.
func LoadTrace(path string) (Workload, error) {
	return tracefile.Load(path)
}

// DefaultWarmup and DefaultMeasure are the instruction counts used when a
// RunSpec leaves them zero.
const (
	DefaultWarmup  = simrun.DefaultWarmup
	DefaultMeasure = simrun.DefaultMeasure
)

// RunSpec describes one simulation run.
type RunSpec struct {
	// Benchmark names a built-in proxy (e.g. "mcf_r"); alternatively set
	// Workload directly.
	Benchmark string
	Workload  Workload

	// Scheme and Variant select the protection configuration. Conds, when
	// non-zero, overrides the VP condition mask (Figure 1 study).
	Scheme  Scheme
	Variant Variant
	Conds   Cond

	// Consistency selects the memory consistency model (default TSO).
	Consistency Consistency

	// Config overrides the machine; zero value means PaperConfig with the
	// workload's natural core count.
	Config *Config

	// Seed selects the deterministic workload instance (default 1).
	Seed uint64

	// Warmup and Measure are per-core instruction counts.
	Warmup  int64
	Measure int64

	// TraceBuffer, when positive, enables structured event tracing with a
	// ring buffer keeping the most recent TraceBuffer events; Result.Events
	// holds them. Zero disables tracing (the default — the disabled path
	// costs the cycle loop under a measured 5% of its time).
	TraceBuffer int

	// MetricsInterval, when positive, captures a counter snapshot every
	// that many cycles (plus one at the end of the run) into
	// Result.Snapshots — a time series of the run instead of only the
	// final totals.
	MetricsInterval int64

	// CheckpointEvery, when positive, captures a complete simulator
	// checkpoint roughly every that many cycles and hands the encoded
	// bytes to CheckpointSink. Checkpoints are taken only at the cycle
	// loop's existing poll boundary (every 4096 cycles), so the zero
	// value adds no hot-loop cost. A sink error aborts the run.
	CheckpointEvery int64
	CheckpointSink  func([]byte) error

	// ResumeFrom, when non-empty, restores the simulation from a
	// checkpoint previously produced by CheckpointSink before running.
	// The checkpoint must come from an identical spec (same workload,
	// configuration, scheme and variant) or Run fails with a mismatch
	// error. A resumed run produces results byte-identical to an
	// uninterrupted one.
	ResumeFrom []byte
}

// CheckpointMeta is the metadata stored in an encoded checkpoint.
type CheckpointMeta = checkpoint.Meta

// CheckpointInfo decodes a checkpoint's metadata (identity label, cycle
// number, configuration fingerprint) without restoring it.
func CheckpointInfo(data []byte) (CheckpointMeta, error) {
	m, _, err := checkpoint.Decode(data)
	return m, err
}

// Result is the outcome of one run.
type Result struct {
	// CPI is the measured per-core cycles per instruction.
	CPI float64
	// Cycles and Insts are the measured interval and per-core target.
	Cycles int64
	Insts  int64
	// Counters holds all event counters from the run.
	Counters *Counters
	// Events holds the traced events (RunSpec.TraceBuffer > 0); EventsLost
	// counts events dropped to ring-buffer wraparound.
	Events     []TraceEvent
	EventsLost uint64
	// Snapshots holds the periodic metrics snapshots
	// (RunSpec.MetricsInterval > 0).
	Snapshots []MetricsSnapshot
}

// Run executes one simulation.
func Run(spec RunSpec) (Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with cancellation: when ctx is canceled or its
// deadline passes, the simulation stops mid-run (within a few thousand
// simulated cycles) and the error wraps ctx.Err(). The simulation service
// uses this to enforce per-job timeouts; interactive callers can bound
// runaway configurations the same way.
func RunContext(ctx context.Context, spec RunSpec) (Result, error) {
	run, err := spec.resolve()
	if err != nil {
		return Result{}, err
	}
	f, err := run.Simulate(ctx)
	if err != nil {
		return Result{}, err
	}
	return Result{CPI: f.CPI, Cycles: f.Cycles, Insts: f.Insts, Counters: f.Counters,
		Events: f.Events, EventsLost: f.EventsLost, Snapshots: f.Sys.Snapshots()}, nil
}

// resolve converts the spec into the simulator's canonical run
// description; simrun.Run.Resolve owns the defaults documented on RunSpec.
func (spec RunSpec) resolve() (simrun.Run, error) {
	run := simrun.Run{
		Benchmark: spec.Benchmark,
		Workload:  spec.Workload,
		Policy: defense.Policy{Scheme: spec.Scheme, Variant: spec.Variant, Conds: spec.Conds,
			Consistency: spec.Consistency},
		Config: spec.Config,
		Params: simrun.Params{
			Seed: spec.Seed, Warmup: spec.Warmup, Measure: spec.Measure, TraceBuffer: spec.TraceBuffer,
			CheckpointEvery: spec.CheckpointEvery, CheckpointSink: spec.CheckpointSink,
			Resume: spec.ResumeFrom,
		},
		MetricsInterval: spec.MetricsInterval,
	}
	err := run.Resolve()
	run.CheckpointIdentity = run.Benchmark
	return run, err
}

// SpecKey returns the content-addressed identity of a run: a stable hex
// digest over a canonical, versioned encoding of everything that
// determines the run's outcome (benchmark, policy, effective machine
// configuration, seed and instruction counts, trace-buffer size). Two
// specs share a key exactly when they describe the same simulation, so
// the key doubles as a cache/memoization identifier — the simulation
// service uses it as the job ID. Specs with a custom Workload are only
// addressable when the workload is a registered benchmark proxy
// (otherwise the content of the workload is not capturable in the key and
// an error is returned). RunSpec.MetricsInterval is excluded: it changes
// which snapshots are captured, never the simulation's outcome.
func SpecKey(spec RunSpec) (string, error) {
	run, err := spec.resolve()
	if err != nil {
		return "", err
	}
	if spec.Workload != nil && !run.Registered() {
		return "", fmt.Errorf("pinnedloads: workload %q is not a registered benchmark; custom workloads have no content-addressed key", run.Benchmark)
	}
	return run.Key(), nil
}

// Overhead converts a protected CPI and an unsafe-baseline CPI into the
// percentage execution overhead the paper reports.
func Overhead(protected, unsafe float64) float64 {
	return stats.Overhead(protected / unsafe)
}
