// Package core assembles the full simulated machine — out-of-order cores
// (package pipeline), the coherent memory hierarchy (package coherence),
// and a workload (package trace) — and runs it cycle by cycle under a
// defense policy. It is the engine behind the public pinnedloads API.
package core

import (
	"context"
	"fmt"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/coherence"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/pipeline"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// System is one configured simulation: cores, memory hierarchy, workload
// generators and a defense policy.
type System struct {
	cfg    arch.Config
	policy defense.Policy
	mem    *coherence.System
	cores  []*pipeline.Core
	count  stats.Counters
	cycle  int64

	// sampler, when set, captures periodic counter snapshots; see
	// SampleEvery. The nil default costs the cycle loop one branch.
	sampler *obs.Sampler

	// Checkpoint/restore state. warmupDone records the cycle the warmup
	// phase ended (-1 until then) and warmupTarget its instruction target;
	// both travel in snapshots so a restored run can skip a completed
	// warmup. The checkpoint hook fires at safe points inside the cycle
	// loop's existing poll mask, so ckptEvery=0 costs the hot loop nothing.
	warmupDone   int64
	warmupTarget int64
	resumed      bool
	ckptEvery    int64
	lastCkpt     int64
	ckptFn       func() error
	warmupHook   func()

	// jumps and jumped count the clock jumps the run loop took and the cycles
	// they covered (FastForwarded); host-side figures, never serialized.
	jumps, jumped int64
}

// progressWindow bounds how long the simulator tolerates zero retirement
// before declaring a deadlock (a correctness backstop, not a mechanism).
const progressWindow = 200_000

// New builds a system running the workload under the policy. The workload's
// natural core count is used unless cfg.Cores overrides it upward.
func New(cfg arch.Config, policy defense.Policy, w trace.Source, seed uint64) (*System, error) {
	s, err := NewBlank(cfg, policy, w, seed)
	if err != nil {
		return nil, err
	}
	// Pre-warm the LLC with the workload's resident working set, modeling
	// the warm cache state of a checkpointed simulation interval.
	if warmer, ok := w.(trace.Warmer); ok {
		for i := 0; i < s.cfg.Cores; i++ {
			s.mem.Prewarm(warmer.WarmRanges(i))
		}
	}
	return s, nil
}

// NewBlank is New without the pre-warmed LLC: the machine a caller builds
// only to Restore a snapshot into, which overwrites every line a pre-warm
// would have installed.
func NewBlank(cfg arch.Config, policy defense.Policy, w trace.Source, seed uint64) (*System, error) {
	if cfg.Cores < w.Cores() {
		cfg.Cores = w.Cores()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, policy: policy, warmupDone: -1}
	s.mem = coherence.NewSystem(&s.cfg, &s.count)
	bar := pipeline.NewBarrierSync(cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		gen := w.Generator(i, seed)
		s.cores = append(s.cores, pipeline.NewCore(i, &s.cfg, policy, s.mem.L1(i), gen, bar, &s.count))
	}
	return s, nil
}

// SetRecorder attaches an event recorder to every core (and, through each
// core, its L1). Call it before Run; the enabled state is cached. Every core
// records into r itself, so r sees the events in global recording order.
func (s *System) SetRecorder(r obs.Recorder) {
	for _, c := range s.cores {
		c.SetRecorder(r)
	}
}

// SampleEvery arranges for a counter snapshot every interval cycles during
// Run (plus a final one when the run ends); interval <= 0 disables
// sampling. Snapshots returns the result.
func (s *System) SampleEvery(interval int64) {
	if interval <= 0 {
		s.sampler = nil
		return
	}
	s.sampler = obs.NewSampler(interval)
}

// Snapshots returns the metrics snapshots captured so far.
func (s *System) Snapshots() []obs.Snapshot {
	if s.sampler == nil {
		return nil
	}
	return s.sampler.Snapshots()
}

// Result summarizes one run's measured interval.
type Result struct {
	// Cycles is the measured interval length; Insts the per-core
	// instruction target; CPI the per-core cycles per instruction.
	Cycles int64
	Insts  int64
	CPI    float64
	// Counters holds every event counter accumulated during the whole
	// run (including warmup).
	Counters *stats.Counters
}

// Run executes warmup instructions per core unmeasured, then measures the
// cycles needed for every core to retire measure further instructions.
func (s *System) Run(warmup, measure int64) (Result, error) {
	return s.RunContext(context.Background(), warmup, measure)
}

// ctxCheckMask spaces the cycle loop's context polls: the deadline is
// checked every ctxCheckMask+1 cycles, keeping the common-path cost of
// cancellation support to one branch on a local counter.
const ctxCheckMask = 4096 - 1

// RunContext is Run with cancellation: when ctx is canceled or its
// deadline passes, the simulation stops mid-run (within a few thousand
// cycles) and returns an error wrapping ctx.Err().
func (s *System) RunContext(ctx context.Context, warmup, measure int64) (Result, error) {
	if measure <= 0 {
		return Result{}, fmt.Errorf("core: measure count must be positive, got %d", measure)
	}
	r := s.begin(ctx, warmup, measure)
	for {
		more, err := s.step(&r)
		if err != nil {
			return Result{}, err
		}
		if !more {
			r.res.Counters = &s.count
			return r.res, nil
		}
	}
}

// A run is RunContext under way, which step advances one pass of the cycle
// loop at a time: its phase, the instruction target every core is to retire
// in that phase, the retirement-progress backstop's last reading, and the
// cycle the warmup ended.
type run struct {
	ctx                       context.Context
	warmup, measure, target   int64
	measuring                 bool
	start                     int64
	lastProgress, lastRetired int64
	res                       Result
}

// begin starts a run in its warmup phase, or in its measure phase if the
// system was restored from a snapshot taken after the same warmup.
func (s *System) begin(ctx context.Context, warmup, measure int64) run {
	r := run{ctx: ctx, warmup: warmup, measure: measure}
	if s.resumed && s.warmupDone >= 0 && s.warmupTarget == warmup {
		r.measuring, r.start = true, s.warmupDone
		s.aim(&r, warmup+measure)
	} else {
		s.aim(&r, warmup)
	}
	return r
}

// aim starts a phase: a target of 0 or less is reached at once.
func (s *System) aim(r *run, target int64) {
	r.target, r.lastProgress, r.lastRetired = target, s.cycle, s.totalRetired()
	for _, c := range s.cores {
		if target > 0 {
			c.SetTarget(target)
		}
	}
}

// step is one pass of the cycle loop: next, then the clock jump and one
// cycle. It returns false, without moving, when the run is over; the run
// is then done with.
func (s *System) step(r *run) (bool, error) {
	if more, err := s.next(r); !more {
		return false, err
	}
	s.fastForward()
	s.stepCycle()
	return true, nil
}

// next readies the run's next cycle. While every core has retired the
// phase's target or halted, it ends the phase — the interval ends when the
// slowest core reached the target — and enters the next one, or records the
// result and returns false after the measure phase. On the cycles it polls,
// every ctxCheckMask+1, a canceled or timed-out run stops mid-simulation,
// the retirement-progress backstop reads (progressWindow is vastly larger
// than the poll interval, so a deadlock is caught within one interval of the
// window expiring) and the checkpoint hook fires when due.
func (s *System) next(r *run) (bool, error) {
	for !s.pending(r.target) {
		end := s.cycle
		for _, c := range s.cores {
			if r.target > 0 {
				end = max(end, c.DoneCycle())
			}
		}
		if r.measuring {
			if s.sampler != nil {
				s.sampler.Finish(s.cycle, &s.count)
			}
			r.res = Result{Cycles: end - r.start, Insts: r.measure, CPI: float64(end-r.start) / float64(r.measure)}
			return false, nil
		}
		r.measuring, r.start, s.warmupDone, s.warmupTarget = true, end, end, r.warmup
		if s.warmupHook != nil {
			s.warmupHook()
		}
		s.aim(r, r.warmup+r.measure)
	}
	if s.cycle&ctxCheckMask == 0 {
		if done := r.ctx.Done(); done != nil { // nil if ctx can never be canceled
			select {
			case <-done:
				return false, fmt.Errorf("core: run stopped at cycle %d: %w", s.cycle, r.ctx.Err())
			default:
			}
		}
		if n := s.totalRetired(); n > r.lastRetired {
			r.lastRetired, r.lastProgress = n, s.cycle
		} else if s.cycle-r.lastProgress > progressWindow {
			return false, fmt.Errorf("core: no retirement progress for %d cycles at cycle %d (policy %s)",
				progressWindow, s.cycle, s.policy)
		}
		if s.ckptEvery > 0 && s.cycle-s.lastCkpt >= s.ckptEvery {
			s.lastCkpt = s.cycle
			if err := s.ckptFn(); err != nil {
				return false, fmt.Errorf("core: checkpoint at cycle %d: %w", s.cycle, err)
			}
		}
	}
	return true, nil
}

// pending reports whether a core has yet to retire target instructions or
// halt.
func (s *System) pending(target int64) bool {
	for _, c := range s.cores {
		if c.DoneCycle() < 0 && !c.Halted() {
			return target > 0
		}
	}
	return false
}

// stepCycle advances the whole machine by one cycle: memory system first,
// then every core, then the optional metrics sampler. This is the cycle
// loop's entire steady-state body, shared by step and the tests.
func (s *System) stepCycle() {
	s.cycle++
	s.mem.Tick(s.cycle)
	for _, c := range s.cores {
		c.Tick(s.cycle)
	}
	if s.sampler != nil {
		s.sampler.MaybeSample(s.cycle, &s.count)
	}
}

// fastForward jumps the clock over the cycles in which the whole machine is
// a fixed point: every core asleep (pipeline/sleep.go) and no message due.
// It stops one cycle short of the first cycle that something must see — a
// core's next completion or the end of its frontend stall, the next message
// arrival, a queued directory request, the cycle loop's next poll (so
// cancellation, the deadlock backstop and checkpoint safe points happen at
// the cycles they always did) and the sampler's next snapshot — and leaves
// every clock and counter exactly where stepping would have: stepCycle then
// evaluates that cycle as usual.
func (s *System) fastForward() {
	wake := (s.cycle | ctxCheckMask) + 1
	for _, c := range s.cores {
		w := c.WakeCycle()
		if w <= s.cycle+1 {
			return
		}
		wake = min(wake, w)
	}
	if s.sampler != nil {
		wake = min(wake, s.sampler.Next())
	}
	wake = min(wake, s.mem.NextDue())
	k := wake - 1 - s.cycle
	if k <= 0 {
		return
	}
	s.cycle += k
	// No message is due in the skipped cycles, so the memory system's tick
	// for the last of them stands for all.
	s.mem.Tick(s.cycle)
	for _, c := range s.cores {
		c.FastForward(k)
	}
	s.jumps++
	s.jumped += k
}

// FastForwarded returns how many clock jumps the run loop took and how many
// cycles they covered. Like pipeline.Core.SleptCycles these are host-side
// figures for tests and EXPERIMENTS.md, deliberately absent from the
// counters and from simrun.Output so no digest or golden can depend on them.
func (s *System) FastForwarded() (jumps, cycles int64) { return s.jumps, s.jumped }

func (s *System) totalRetired() int64 {
	var n int64
	for _, c := range s.cores {
		n += c.Retired()
	}
	return n
}

// Counters exposes the accumulated event counters.
func (s *System) Counters() *stats.Counters { return &s.count }

// Core returns core i (for tests and detailed inspection).
func (s *System) Core(i int) *pipeline.Core { return s.cores[i] }

// Mem returns the memory system (for traffic statistics).
func (s *System) Mem() *coherence.System { return s.mem }

// Cycle returns the current simulation cycle.
func (s *System) Cycle() int64 { return s.cycle }
