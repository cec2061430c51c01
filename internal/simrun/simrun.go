// Package simrun describes, names and executes one simulation. Run is the
// single resolved description every entry point converts to — the public
// RunSpec, the service's JobSpec, the experiment runner's requests, the
// security tier — so the defaults, the content-addressed key and the
// machine assembly each exist once. Execute snapshots everything the
// runner's worker pool and the service's job workers need — CPI, event
// counters, per-core Pinned Loads hardware statistics and (optionally) the
// traced event stream — into a plain, JSON-serializable Output, so a result
// computed by either is interchangeable with the other and nothing
// simulator-internal escapes; only the public API's Simulate keeps the
// finished system, for its live counters and sampled time series.
package simrun

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/checkpoint"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/speckey"
	"pinnedloads/internal/trace"
)

// DefaultWarmup and DefaultMeasure are the per-core instruction counts
// used when a spec leaves them zero (the public RunSpec defaults).
const (
	DefaultWarmup  = 20_000
	DefaultMeasure = 100_000
)

// Params sizes one simulation.
type Params struct {
	Seed    uint64
	Warmup  int64
	Measure int64
	// TraceBuffer, when positive, records the structured event stream into
	// a ring of that capacity; Output.Events holds it.
	TraceBuffer int

	// CheckpointEvery, when positive, snapshots the full simulator state
	// roughly every that many cycles (at the cycle-loop's existing poll
	// boundary, so zero leaves the hot loop untouched) and hands the
	// encoded checkpoint to CheckpointSink. A sink error aborts the run.
	CheckpointEvery int64
	CheckpointSink  func([]byte) error
	// CheckpointIdentity is a free-form label stored in checkpoint
	// metadata (job ID, spec key); it is informational only.
	CheckpointIdentity string

	// WarmupSink, when set, receives one checkpoint captured exactly at
	// the warmup/measure boundary — the shared-warmup fork point.
	WarmupSink func([]byte)

	// Resume, when non-empty, restores the simulator from an encoded
	// checkpoint before running. The checkpoint's configuration/policy
	// fingerprint must match or Execute fails with the typed mismatch
	// error. Resuming changes only where execution starts, never the
	// Output: a resumed run is byte-identical to a cold one.
	Resume []byte
	// OnResume, when set alongside Resume, observes the restored
	// checkpoint's metadata (e.g. to report how many cycles were skipped).
	OnResume func(checkpoint.Meta)
}

// HW is the per-core Pinned Loads hardware summary of a finished run
// (false-positive rates of the Cache Shadow Tables, occupancy of the
// Cannot-Pin Table). Extracting it here keeps whole systems from being
// retained just for these few numbers.
type HW struct {
	CST   bool    `json:"cst,omitempty"`
	L1FP  float64 `json:"l1_fp,omitempty"`
	DirFP float64 `json:"dir_fp,omitempty"`

	CPT          bool    `json:"cpt,omitempty"`
	CPTMean      float64 `json:"cpt_mean,omitempty"`
	CPTMax       int     `json:"cpt_max,omitempty"`
	CPTSamples   uint64  `json:"cpt_samples,omitempty"`
	CPTInserts   uint64  `json:"cpt_inserts,omitempty"`
	CPTOverflows uint64  `json:"cpt_overflows,omitempty"`
}

// Output is the complete, self-contained result of one simulation.
type Output struct {
	CPI      float64           `json:"cpi"`
	Cycles   int64             `json:"cycles"`
	Insts    int64             `json:"insts"`
	Counters map[string]uint64 `json:"counters"`
	HW       []HW              `json:"hw,omitempty"`
	// Events holds the traced event stream (Params.TraceBuffer > 0);
	// EventsLost counts ring-buffer drops.
	Events     []obs.Event `json:"events,omitempty"`
	EventsLost uint64      `json:"events_lost,omitempty"`
}

// Run is the one description of a simulation: what runs (the workload),
// under which defense policy, on which machine, for how long. Every entry
// point — the public RunSpec, the service's JobSpec, the experiment
// Runner's requests, the security tier — is a conversion to it; Resolve
// makes it canonical, Key names it and Execute runs it. A looked-up
// Workload is the registry's shared, read-only profile. The Params hooks
// and MetricsInterval ride along for the run but are not part of its
// identity.
type Run struct {
	// Benchmark names a registered proxy for Resolve to look up;
	// alternatively set Workload. Resolved, it is the workload's name.
	Benchmark string
	Workload  trace.Source
	Policy    defense.Policy
	// Config is the machine; nil means the paper's at the workload's core
	// count. Resolve never writes through the caller's pointer.
	Config *arch.Config
	Params
	// MetricsInterval, when positive, samples the counters every that many
	// cycles into Finished.Sys.Snapshots().
	MetricsInterval int64
}

// Resolve makes the description canonical, and is the only place a run's
// defaults live: the benchmark looked up (once), a zero seed 1, zero
// warmup and measure the Default counts, a nil Config the paper machine,
// the core count raised to the workload's, and a Conds mask that overrides
// nothing folded away (so the Figure 1/9 full-mask rows are the Figure 7/8
// COMP runs, down to the checkpoint fingerprint). Two descriptions of the
// same simulation resolve to equal values. The defaults are filled in even
// when validation then fails, so a bad request still has a key to memoize
// its error under.
func (r *Run) Resolve() error {
	if r.Workload == nil {
		if r.Benchmark == "" {
			return fmt.Errorf("simrun: a run needs a Benchmark or a Workload")
		}
		p := trace.ByName(r.Benchmark)
		if p == nil {
			return fmt.Errorf("simrun: unknown benchmark %q", r.Benchmark)
		}
		r.Workload = p
	}
	r.Benchmark = r.Workload.Name()
	if cores := max(r.Workload.Cores(), 1); r.Config == nil {
		c := arch.PaperConfig(cores)
		r.Config = &c
	} else if r.Config.Cores < cores {
		c := *r.Config
		c.Cores = cores
		r.Config = &c
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Warmup == 0 {
		r.Warmup = DefaultWarmup
	}
	if r.Measure == 0 {
		r.Measure = DefaultMeasure
	}
	if natural := (defense.Policy{Scheme: r.Policy.Scheme, Variant: r.Policy.Variant,
		Consistency: r.Policy.Consistency}); natural.VPConds() == r.Policy.VPConds() {
		r.Policy = natural
	}
	err := r.Config.Validate()
	switch {
	case r.Warmup < 0:
		err = fmt.Errorf("warmup must be >= 0, got %d", r.Warmup)
	case r.Measure < 0:
		err = fmt.Errorf("measure must be >= 0, got %d", r.Measure)
	case r.TraceBuffer < 0:
		err = fmt.Errorf("trace_buffer must be >= 0, got %d", r.TraceBuffer)
	}
	if err != nil {
		return fmt.Errorf("simrun: %s %s: %w", r.Benchmark, r.Policy, err)
	}
	return nil
}

// Registered reports whether the workload is the registered benchmark
// proxy of its name (same parameters — the public API hands out copies,
// so compare by value; the registry's own pointer compares at once). Only such a run means the same thing to another
// process: a key stands for a name, and a service can only run what its
// registry holds.
func (r *Run) Registered() bool {
	p := trace.ByName(r.Benchmark)
	return p != nil && reflect.DeepEqual(trace.Source(p), r.Workload)
}

// spec spells the run as the canonical key input — the one place a
// speckey.Spec is written out. Config must be set (Resolve, or a caller
// holding an already-resolved description).
func (r *Run) spec() speckey.Spec {
	s := speckey.Spec{
		Benchmark:   r.Benchmark,
		Scheme:      r.Policy.Scheme.String(),
		Variant:     r.Policy.Variant.String(),
		Conds:       uint8(r.Policy.VPConds()),
		Consistency: r.Policy.Consistency.String(),
		Seed:        r.Seed,
		Warmup:      r.Warmup,
		Measure:     r.Measure,
		TraceBuffer: r.TraceBuffer,
		Config:      r.Config,
	}
	if atk, ok := r.Workload.(*trace.Attack); ok {
		s.Attack = speckey.AttackCanonical(atk)
	}
	return s
}

// Key returns the run's content-addressed identity: memoization key, job
// ID, cache address and checkpoint label.
func (r *Run) Key() string { return r.spec().Key() }

// WarmKey identifies the run's warmed prefix: its key with the measure
// length zeroed, so runs differing only in how long they measure share one
// warmup checkpoint.
func (r *Run) WarmKey() string {
	s := r.spec()
	s.Measure = 0
	return s.Key()
}

// Finished is a simulation that has run, still inside its simulator:
// Output snapshots it into plain data, the public API hands out the live
// counters and the sampled time series.
type Finished struct {
	core.Result
	Sys        *core.System
	Events     []obs.Event
	EventsLost uint64
}

// Simulate is the one run assembly: build the machine (blank when a
// checkpoint will overwrite it), attach the recorder and sampler, restore,
// install the checkpoint and warmup hooks, run. The context is threaded
// into the cycle loop: cancellation stops the simulation mid-run. A panic
// anywhere inside the simulator is recovered into an error so one broken
// run cannot take down a worker. The run must be resolved.
func (r *Run) Simulate(ctx context.Context) (f *Finished, err error) {
	fail := func(what string, err error) error {
		return fmt.Errorf("simrun: %s %s: %s%w", r.Benchmark, r.Policy, what, err)
	}
	defer func() {
		if p := recover(); p != nil {
			f, err = nil, fail("", fmt.Errorf("panic: %v", p))
		}
	}()
	// A resumed run restores over everything a pre-warm would install.
	build := core.New
	if len(r.Resume) > 0 {
		build = core.NewBlank
	}
	sys, err := build(*r.Config, r.Policy, r.Workload, r.Seed)
	if err != nil {
		return nil, fail("", err)
	}
	var ring *obs.Ring
	if r.TraceBuffer > 0 {
		ring = obs.NewRing(r.TraceBuffer)
		sys.SetRecorder(ring)
	}
	sys.SampleEvery(r.MetricsInterval)
	if len(r.Resume) > 0 {
		meta, err := checkpoint.Restore(r.Resume, sys)
		if err != nil {
			return nil, fail("", &ResumeError{err})
		}
		if r.OnResume != nil {
			r.OnResume(meta)
		}
	}
	if r.CheckpointEvery > 0 && r.CheckpointSink != nil {
		sys.SetCheckpointHook(r.CheckpointEvery, func() error {
			b, err := checkpoint.Capture(sys, r.CheckpointIdentity)
			if err != nil {
				return err
			}
			return r.CheckpointSink(b)
		})
	}
	if r.WarmupSink != nil {
		sys.SetWarmupHook(func() {
			if b, err := checkpoint.Capture(sys, r.CheckpointIdentity); err == nil {
				r.WarmupSink(b)
			}
		})
	}
	res, err := sys.RunContext(ctx, r.Warmup, r.Measure)
	if err != nil {
		return nil, fail("", err)
	}
	f = &Finished{Result: res, Sys: sys}
	if ring != nil {
		f.Events, f.EventsLost = ring.Events(), ring.Dropped()
	}
	return f, nil
}

// ResumeError is a failure of the restore stage: the Resume checkpoint did
// not apply to this run's machine (an older format, another configuration's
// fingerprint, a corrupted write). The run itself has not started.
type ResumeError struct{ Err error }

func (e *ResumeError) Error() string { return "resume: " + e.Err.Error() }
func (e *ResumeError) Unwrap() error { return e.Err }

// ExecuteOrCold is Execute for a run whose Resume checkpoint the caller
// cannot vouch for (a warm store, a file a killed process left): when the
// checkpoint does not restore, rejected — if non-nil — is told why and the
// run executes cold instead. That is the only fallback. A failure after a
// good restore (a cancelled context, the deadlock backstop, a recovered
// panic) belongs to the run, not the checkpoint; a cold run would repeat it
// at full cost, so it is returned as is.
func (r *Run) ExecuteOrCold(ctx context.Context, rejected func(error)) (*Output, error) {
	out, err := r.Execute(ctx)
	var re *ResumeError
	if !errors.As(err, &re) {
		return out, err
	}
	if rejected != nil {
		rejected(err)
	}
	cold := *r
	cold.Resume = nil
	return cold.Execute(ctx)
}

// Execute simulates the run and snapshots the result.
func (r *Run) Execute(ctx context.Context) (*Output, error) {
	f, err := r.Simulate(ctx)
	if err != nil {
		return nil, err
	}
	out := &Output{
		CPI:        f.CPI,
		Cycles:     f.Cycles,
		Insts:      f.Insts,
		Counters:   f.Counters.Snapshot(),
		Events:     f.Events,
		EventsLost: f.EventsLost,
	}
	for i := 0; i < r.Config.Cores; i++ {
		var hs HW
		if l1, dir := f.Sys.Core(i).CSTs(); l1 != nil {
			hs.CST = true
			hs.L1FP = l1.FalsePositiveRate()
			hs.DirFP = dir.FalsePositiveRate()
		}
		if cpt := f.Sys.Core(i).CPT(); cpt != nil {
			hs.CPT = true
			hs.CPTMean = cpt.Occupancy().Mean()
			hs.CPTMax = cpt.Occupancy().Max()
			hs.CPTSamples = cpt.Occupancy().Samples()
			hs.CPTInserts = cpt.Inserts()
			hs.CPTOverflows = cpt.Overflows()
		}
		out.HW = append(out.HW, hs)
	}
	return out, nil
}

// Execute resolves and runs one simulation of w in a single call, for
// callers that hold the pieces rather than a Run.
func Execute(ctx context.Context, w trace.Source, pol defense.Policy, cfg *arch.Config, p Params) (*Output, error) {
	r := Run{Workload: w, Policy: pol, Config: cfg, Params: p}
	if err := r.Resolve(); err != nil {
		return nil, err
	}
	return r.Execute(ctx)
}

// MarshalCSV renders the result as the canonical two-column CSV artifact:
// a metric,value header, the headline numbers, then every event counter
// in sorted order. The encoding is deterministic — identical outputs
// produce byte-identical CSV — so it doubles as an equality check between
// in-process runs and service-computed results.
func (o *Output) MarshalCSV() []byte {
	var b strings.Builder
	b.WriteString("metric,value\n")
	fmt.Fprintf(&b, "cpi,%s\n", strconv.FormatFloat(o.CPI, 'g', -1, 64))
	fmt.Fprintf(&b, "cycles,%d\n", o.Cycles)
	fmt.Fprintf(&b, "insts,%d\n", o.Insts)
	names := make([]string, 0, len(o.Counters))
	for name := range o.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "counter.%s,%d\n", name, o.Counters[name])
	}
	return []byte(b.String())
}
