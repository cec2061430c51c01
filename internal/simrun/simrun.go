// Package simrun executes one simulation and snapshots everything its
// consumers need — CPI, event counters, per-core Pinned Loads hardware
// statistics and (optionally) the traced event stream — into a plain,
// JSON-serializable Output. It is the single execution path shared by the
// experiment runner's memoized worker pool and the simulation service's
// job workers, so a result computed by either is interchangeable with the
// other and nothing simulator-internal (no *core.System, no pointer into
// one) escapes to the caller.
package simrun

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/checkpoint"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
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

// Execute runs one simulation of w under the policy and snapshots the
// result. A nil cfg means the paper configuration at the workload's core
// count. The context is threaded into the cycle loop: cancellation stops
// the simulation mid-run. A panic anywhere inside the simulator is
// recovered into an error so one broken run cannot take down a worker.
func Execute(ctx context.Context, w trace.Source, pol defense.Policy, cfg *arch.Config, p Params) (out *Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("simrun: %s %s: panic: %v", w.Name(), pol, r)
		}
	}()
	c := arch.PaperConfig(w.Cores())
	if cfg != nil {
		c = *cfg
	}
	// A resumed run restores over everything a pre-warm would install.
	build := core.New
	if len(p.Resume) > 0 {
		build = core.NewBlank
	}
	sys, err := build(c, pol, w, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("simrun: %s %s: %w", w.Name(), pol, err)
	}
	var ring *obs.Ring
	if p.TraceBuffer > 0 {
		ring = obs.NewRing(p.TraceBuffer)
		sys.SetRecorder(ring)
	}
	if len(p.Resume) > 0 {
		meta, err := checkpoint.Restore(p.Resume, sys)
		if err != nil {
			return nil, fmt.Errorf("simrun: %s %s: resume: %w", w.Name(), pol, err)
		}
		if p.OnResume != nil {
			p.OnResume(meta)
		}
	}
	if p.CheckpointEvery > 0 && p.CheckpointSink != nil {
		sys.SetCheckpointHook(p.CheckpointEvery, func() error {
			b, err := checkpoint.Capture(sys, p.CheckpointIdentity)
			if err != nil {
				return err
			}
			return p.CheckpointSink(b)
		})
	}
	if p.WarmupSink != nil {
		sys.SetWarmupHook(func() {
			if b, err := checkpoint.Capture(sys, p.CheckpointIdentity); err == nil {
				p.WarmupSink(b)
			}
		})
	}
	res, err := sys.RunContext(ctx, p.Warmup, p.Measure)
	if err != nil {
		return nil, fmt.Errorf("simrun: %s %s: %w", w.Name(), pol, err)
	}
	out = &Output{
		CPI:      res.CPI,
		Cycles:   res.Cycles,
		Insts:    res.Insts,
		Counters: res.Counters.Snapshot(),
	}
	if ring != nil {
		out.Events = ring.Events()
		out.EventsLost = ring.Dropped()
	}
	for i := 0; i < c.Cores; i++ {
		var hs HW
		if l1, dir := sys.Core(i).CSTs(); l1 != nil {
			hs.CST = true
			hs.L1FP = l1.FalsePositiveRate()
			hs.DirFP = dir.FalsePositiveRate()
		}
		if cpt := sys.Core(i).CPT(); cpt != nil {
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
