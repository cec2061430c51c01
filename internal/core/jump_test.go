package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/trace"
)

// plainRunUntil is runUntil as it was before the clock jump: the same exit
// test, the same masked poll (cancellation, progress backstop, checkpoint
// hook), and stepCycle for every single cycle. It is the reference the jump
// is held against.
func plainRunUntil(s *System, ctx context.Context, target int64) (int64, error) {
	if target <= 0 {
		return s.cycle, nil
	}
	for _, c := range s.cores {
		c.SetTarget(target)
	}
	lastProgress, lastRetired := s.cycle, s.totalRetired()
	for {
		allDone := true
		for _, c := range s.cores {
			if c.DoneCycle() < 0 && !c.Halted() {
				allDone = false
			}
		}
		if allDone {
			break
		}
		if s.cycle&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("core: run stopped at cycle %d: %w", s.cycle, err)
			}
			if r := s.totalRetired(); r > lastRetired {
				lastRetired, lastProgress = r, s.cycle
			} else if s.cycle-lastProgress > progressWindow {
				return 0, fmt.Errorf("core: no retirement progress for %d cycles at cycle %d (policy %s)",
					progressWindow, s.cycle, s.policy)
			}
			if s.ckptEvery > 0 && s.cycle-s.lastCkpt >= s.ckptEvery {
				s.lastCkpt = s.cycle
				if err := s.ckptFn(); err != nil {
					return 0, err
				}
			}
		}
		s.stepCycle()
	}
	end := s.cycle
	for _, c := range s.cores {
		end = max(end, c.DoneCycle())
	}
	return end, nil
}

// plainRun is RunContext over plainRunUntil.
func plainRun(s *System, warmup, measure int64) (Result, error) {
	ctx := context.Background()
	defer s.flushEvents()
	start, err := plainRunUntil(s, ctx, warmup)
	if err != nil {
		return Result{}, err
	}
	s.warmupDone, s.warmupTarget = start, warmup
	end, err := plainRunUntil(s, ctx, warmup+measure)
	if err != nil {
		return Result{}, err
	}
	if s.sampler != nil {
		s.sampler.Finish(s.cycle, &s.count)
	}
	return Result{Cycles: end - start, Insts: measure, CPI: float64(end-start) / float64(measure), Counters: &s.count}, nil
}

// safePoint is one firing of the checkpoint hook: where, the hash of the
// snapshot taken there, and whether every core was asleep with its next
// wake-up beyond the following cycle — a point inside a jump span.
type safePoint struct {
	cycle    int64
	hash     uint64
	midSleep bool
}

// observed is a system with everything observable switched on, and what it
// observed: a sampler (in sys), a ring recorder, and a checkpoint hook that
// hashes a snapshot at every safe point, keeping the first payload taken
// inside a jump span for the fork test.
type observed struct {
	sys      *System
	ring     *obs.Ring
	points   []safePoint
	midSleep []byte
}

func observe(t *testing.T, src trace.Source, pol defense.Policy, tune func(*arch.Config)) *observed {
	t.Helper()
	cfg := arch.PaperConfig(src.Cores())
	if tune != nil {
		tune(&cfg)
	}
	sys, err := New(cfg, pol, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := &observed{sys: sys, ring: obs.NewRing(1 << 15)}
	sys.SetRecorder(o.ring)
	sys.SampleEvery(1000)
	sys.SetCheckpointHook(4*(ctxCheckMask+1), func() error {
		blob, err := sys.Snapshot()
		if err != nil {
			return err
		}
		h := fnv.New64a()
		h.Write(blob)
		p := safePoint{cycle: sys.cycle, hash: h.Sum64(), midSleep: true}
		for _, c := range sys.cores {
			if c.WakeCycle() <= sys.cycle+2 {
				p.midSleep = false
			}
		}
		if p.midSleep && o.midSleep == nil {
			o.midSleep = blob
		}
		o.points = append(o.points, p)
		return nil
	})
	return o
}

// TestJumpMatchesEveryCycle holds RunContext, which jumps the clock over the
// spans in which the whole machine is a fixed point, against the plain loop
// that steps every cycle: the result, every counter, the sampled counter
// snapshots, the recorded event stream, the snapshot bytes at every
// checkpoint safe point and at the end must all be identical, and a snapshot
// taken in the middle of a jump span must resume, in a fresh machine, to the
// same end. It also pins how much the mechanism finds to skip: on mcf_r at
// least 60% of cycles slept under every core1_stall policy and at least 50%
// jumped under all but IS, and under 10% slept on gcc_r Unsafe.
func TestJumpMatchesEveryCycle(t *testing.T) {
	type row struct {
		src             trace.Source
		pol             defense.Policy
		tune            func(*arch.Config)
		warmup, measure int64
		// Floors on the slept and jumped shares of all cycles and a ceiling on
		// the slept share, in percent; zero means none.
		sleptAtLeast, jumpedAtLeast, sleptBelow float64
	}
	mcf := trace.ByName("mcf_r")
	var rows []row
	for _, pol := range []defense.Policy{
		{Scheme: defense.Unsafe},
		{Scheme: defense.Fence, Variant: defense.Comp},
		{Scheme: defense.DOM, Variant: defense.Comp},
		{Scheme: defense.STT, Variant: defense.Comp},
		{Scheme: defense.IS, Variant: defense.Comp},
		{Scheme: defense.RCP, Variant: defense.Comp},
		{Scheme: defense.Fence, Variant: defense.EP},
		{Scheme: defense.DOM, Variant: defense.EP},
		{Scheme: defense.Fence, Variant: defense.Comp, Consistency: defense.RC},
	} {
		r := row{src: mcf, pol: pol, warmup: 4_000, measure: 20_000, sleptAtLeast: 60, jumpedAtLeast: 50}
		if pol.Scheme == defense.IS {
			r.jumpedAtLeast = 0
		}
		rows = append(rows, r)
	}
	rows = append(rows,
		row{src: trace.ByName("gcc_r"), pol: defense.Policy{Scheme: defense.Unsafe}, warmup: 20_000, measure: 60_000, sleptBelow: 10},
		row{src: trace.ByName("gcc_r"), pol: defense.Policy{Scheme: defense.DOM, Variant: defense.EP}, warmup: 5_000, measure: 20_000},
		row{src: trace.ByName("ocean_cp"), pol: defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, warmup: 1_000, measure: 4_000},
		row{src: trace.ByName("canneal"), pol: defense.Policy{Scheme: defense.DOM, Variant: defense.EP}, warmup: 1_000, measure: 3_000},
		row{src: trace.ByName("radix"), pol: defense.Policy{Scheme: defense.STT, Variant: defense.LP}, warmup: 1_000, measure: 3_000},
		row{src: &trace.Attack{AttackKind: "mcv", Secret: 1}, pol: defense.Policy{Scheme: defense.RCP, Variant: defense.Comp}, warmup: 100, measure: 1 << 30},
		row{src: &trace.Attack{AttackKind: "interference", Secret: 1}, pol: defense.Policy{Scheme: defense.IS, Variant: defense.Comp},
			tune: func(c *arch.Config) { c.DirPortsPerCycle = 1 }, warmup: 100, measure: 1 << 30},
		row{src: barrierWaits(), pol: defense.Policy{Scheme: defense.Unsafe}, warmup: 500, measure: 6_000},
		row{src: contendedLines(), pol: defense.Policy{Scheme: defense.Fence, Variant: defense.EP},
			tune: func(c *arch.Config) { c.CPTEntries = 1; c.PinRecordL1Tags = true }, warmup: 500, measure: 2_000},
	)
	for _, r := range rows {
		t.Run(r.src.Name()+"/"+r.pol.String(), func(t *testing.T) {
			t.Parallel()
			warmup, measure := r.warmup, r.measure
			if raceEnabled && measure < 1<<30 {
				warmup, measure = warmup/4, measure/4
			}
			ref := observe(t, r.src, r.pol, r.tune)
			plain := ref.sys
			want, err := plainRun(plain, warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			jumping := observe(t, r.src, r.pol, r.tune)
			jump := jumping.sys
			got, err := jump.RunContext(context.Background(), warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, "jumping run", jump, got, plain, want)
			if !reflect.DeepEqual(jump.Snapshots(), plain.Snapshots()) {
				t.Fatalf("sampled counter snapshots differ (%d vs %d)", len(jump.Snapshots()), len(plain.Snapshots()))
			}
			if !reflect.DeepEqual(jumping.ring.Events(), ref.ring.Events()) || jumping.ring.Total() != ref.ring.Total() {
				t.Fatalf("event streams differ (%d vs %d events)", jumping.ring.Total(), ref.ring.Total())
			}
			if !reflect.DeepEqual(jumping.points, ref.points) {
				t.Fatalf("checkpoint safe points differ:\n%v\nvs\n%v", jumping.points, ref.points)
			}

			var slept int64
			for _, c := range jump.cores {
				slept += c.SleptCycles()
			}
			jumps, jumped := jump.FastForwarded()
			if pj, _ := plain.FastForwarded(); pj != 0 {
				t.Fatal("the plain loop jumped")
			}
			sleptPct := 100 * float64(slept) / float64(jump.cycle*int64(len(jump.cores)))
			jumpedPct := 100 * float64(jumped) / float64(jump.cycle)
			t.Logf("%d cycles: %.1f%% of core-cycles slept, %.1f%% of cycles jumped in %d jumps, %d safe points",
				jump.cycle, sleptPct, jumpedPct, jumps, len(jumping.points))
			if raceEnabled {
				return // the shares below are for the full-size runs
			}
			if sleptPct < r.sleptAtLeast || jumpedPct < r.jumpedAtLeast {
				t.Fatalf("slept %.1f%% (want >= %.0f%%), jumped %.1f%% (want >= %.0f%%)",
					sleptPct, r.sleptAtLeast, jumpedPct, r.jumpedAtLeast)
			}
			if r.sleptBelow > 0 && sleptPct >= r.sleptBelow {
				t.Fatalf("slept %.1f%% of a busy workload's cycles, want < %.0f%%", sleptPct, r.sleptBelow)
			}

			if r.sleptAtLeast == 0 {
				return
			}
			// The stalled rows spend most safe points inside a jump span.
			if jumping.midSleep == nil {
				t.Fatalf("no checkpoint safe point fell inside a jump span: %v", jumping.points)
			}
			fork := observe(t, r.src, r.pol, r.tune).sys
			if err := fork.Restore(jumping.midSleep); err != nil {
				t.Fatal(err)
			}
			forked, err := fork.RunContext(context.Background(), warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, "run resumed from a snapshot inside a jump span", fork, forked, plain, want)
		})
	}
}

// sameRun requires two finished runs to agree on the result, every counter
// and the complete final snapshot.
func sameRun(t *testing.T, what string, got *System, gotRes Result, want *System, wantRes Result) {
	t.Helper()
	if gotRes.Cycles != wantRes.Cycles || gotRes.Insts != wantRes.Insts || gotRes.CPI != wantRes.CPI {
		t.Fatalf("%s: result %+v, the plain loop's is %+v", what, gotRes, wantRes)
	}
	if g, w := got.count.String(), want.count.String(); g != w {
		t.Fatalf("%s: counters differ from the plain loop's:\n%s\nvs\n%s", what, g, w)
	}
	a, err := got.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: final snapshot differs from the plain loop's at byte %d of %d", what, firstDiff(a, b), len(b))
	}
}
