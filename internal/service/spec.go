// Package service turns the simulator into a long-lived networked
// service: a bounded job queue feeding a worker pool, a content-addressed
// result cache (speckey job IDs over the simcache backends), and an HTTP
// API with explicit backpressure and graceful drain. cmd/plserved is the
// daemon around it and service/client the typed SDK.
package service

import (
	"fmt"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/simrun"
)

// JobSpec is the wire description of one simulation job. The zero values
// of the optional fields mean: scheme "unsafe", variant "comp", the
// variant's natural VP condition set, seed 1, the library's default
// warmup/measure instruction counts, no event tracing, and the paper
// machine configuration at the benchmark's core count.
type JobSpec struct {
	// Benchmark names a registered proxy (e.g. "gcc_r"); required.
	Benchmark string `json:"benchmark"`
	// Scheme and Variant are the paper's names, case-insensitive
	// ("fence", "EP", ...).
	Scheme  string `json:"scheme,omitempty"`
	Variant string `json:"variant,omitempty"`
	// Consistency selects the memory consistency model, "TSO" (default)
	// or "RC", case-insensitive.
	Consistency string `json:"consistency,omitempty"`
	// Conds overrides the VP condition mask ("ctrl", "alias",
	// "exception", "mcv"); empty means the variant's natural set.
	Conds []string `json:"conds,omitempty"`
	Seed  uint64   `json:"seed,omitempty"`
	// Warmup and Measure are per-core instruction counts.
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`
	// TraceBuffer, when positive, records the structured event stream
	// (result gains Events; GET /v1/jobs/{id}/trace serves it as a Chrome
	// trace).
	TraceBuffer int `json:"trace_buffer,omitempty"`
	// Config overrides the machine configuration.
	Config *arch.Config `json:"config,omitempty"`
}

// Normalize validates the spec and rewrites it into canonical form:
// names in their paper casing, every defaulted field made explicit
// (including the effective machine configuration), and the VP condition
// mask fully resolved. Two specs describing the same simulation normalize
// to identical values, which is what makes Key content-addressed.
func (s *JobSpec) Normalize() error {
	run, err := s.resolve()
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	*s = SpecOf(&run)
	return nil
}

// resolve converts the spec into the simulator's canonical run
// description (looking the benchmark up): what Normalize writes back and
// the worker executes.
func (s JobSpec) resolve() (simrun.Run, error) {
	run, err := s.run()
	if err == nil {
		err = run.Resolve()
	}
	return run, err
}

// run converts the wire names and sizing into the simulator's run
// description, unresolved; Key reads a normalized spec as it stands.
func (s JobSpec) run() (simrun.Run, error) {
	pol, err := defense.ParsePolicy(s.Scheme, s.Variant, s.Consistency, s.Conds)
	return simrun.Run{
		Benchmark: s.Benchmark,
		Policy:    pol,
		Config:    s.Config,
		Params:    simrun.Params{Seed: s.Seed, Warmup: s.Warmup, Measure: s.Measure, TraceBuffer: s.TraceBuffer},
	}, err
}

// SpecOf is the wire form of a resolved run: every field explicit.
func SpecOf(run *simrun.Run) JobSpec {
	return JobSpec{
		Benchmark:   run.Benchmark,
		Scheme:      run.Policy.Scheme.String(),
		Variant:     run.Policy.Variant.String(),
		Consistency: run.Policy.Consistency.String(),
		Conds:       run.Policy.VPConds().Names(),
		Seed:        run.Seed,
		Warmup:      run.Warmup,
		Measure:     run.Measure,
		TraceBuffer: run.TraceBuffer,
		Config:      run.Config,
	}
}

// Key returns the job's content-addressed ID. The spec must have been
// normalized.
func (s JobSpec) Key() string {
	run, err := s.run()
	if err != nil {
		// Normalize validated the names; reaching this is a caller bug.
		panic(fmt.Sprintf("service: Key on unnormalized spec: %v", err))
	}
	return run.Key()
}
