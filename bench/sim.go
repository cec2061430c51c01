package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// simJob is one simulation the benchmark asks for.
type simJob struct {
	bench   string
	pol     defense.Policy
	warmup  int64
	measure int64
}

func (j simJob) String() string { return j.bench + " " + j.pol.String() }

func (j simJob) source() *trace.Profile { return trace.ByName(j.bench) }

// insts is the instruction count the job simulates over all its cores.
func (j simJob) insts() int64 {
	return (j.warmup + j.measure) * int64(j.source().Cores())
}

// simSeed is the simulation seed of every job. It is pinned, and --seed
// only orders the jobs and picks which results are verified: every
// simulated statistic is then the same on every run of one commit, whatever
// its --seed, and two commits that differ only in speed must agree on all
// of them exactly.
const simSeed = 1

func (j simJob) params() simrun.Params {
	return simrun.Params{Seed: simSeed, Warmup: j.warmup, Measure: j.measure}
}

func (j simJob) execute() (*simrun.Output, error) {
	return simrun.Execute(context.Background(), j.source(), j.pol, nil, j.params())
}

// policy builds a defense policy from its figure label parts.
func policy(s defense.Scheme, v defense.Variant, c defense.Consistency) defense.Policy {
	return defense.Policy{Scheme: s, Variant: v, Consistency: c}
}

// crossJobs is every proxy under every policy, in an order shuffled by the
// run seed so that no job always runs beside the same neighbour.
func crossJobs(benches []string, pols []defense.Policy, warmup, measure int64, seed uint64) []simJob {
	var jobs []simJob
	for _, b := range benches {
		for _, p := range pols {
			jobs = append(jobs, simJob{bench: b, pol: p, warmup: warmup, measure: measure})
		}
	}
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// scaled sizes an instruction or pass count for the run, never below min.
func scaled(n int64, scale float64, min int64) int64 {
	if v := int64(float64(n)*scale + 0.5); v > min {
		return v
	}
	return min
}

// simStats accumulates the simulated statistics of a set of outputs. They
// are a deterministic function of the job list, so two runs of one commit —
// and two commits that differ only in speed — must agree on every one of
// them exactly.
type simStats struct {
	cycles int64 // measured-interval cycles
	cpis   []float64
	digest hash.Hash64
}

func newSimStats() *simStats { return &simStats{digest: fnv.New64a()} }

func (s *simStats) add(out *simrun.Output) {
	s.cycles += out.Cycles
	s.cpis = append(s.cpis, out.CPI)
	s.digest.Write(out.MarshalCSV())
}

// digestValue is the digest folded to 52 bits, which a float64 and
// therefore JSON carries exactly.
func digestValue(h hash.Hash64) float64 { return float64(h.Sum64() & (1<<52 - 1)) }

func (s *simStats) report(led *ledger) {
	led.set("sim.digest", digestValue(s.digest))
	led.set("sim.cycles_total", float64(s.cycles))
	led.set("sim.cpi_geomean", stats.GeoMean(s.cpis))
}

// stepStats accumulates what stepping systems from outside observes: the
// host-time split of the cycle loop and the whole-run event counters.
type stepStats struct {
	jobs       int
	newNS      []float64
	runNS      int64
	snapNS     int64
	coreCycles int64 // cycles × cores, warmup included
	cycles     int64 // cycles, warmup included
	idle       int64 // core-cycles in which the core retired nothing
	sampled    int64 // cycles whose two ticks were timed
	memNS      int64 // over the sampled cycles
	pipeNS     int64
	counters   map[string]uint64
	// clockNS is what one time.Now costs here; each timed interval of a
	// sampled cycle contains one, which is taken off again.
	clockNS int64
}

func newStepStats() *stepStats {
	return &stepStats{
		counters: make(map[string]uint64),
		clockNS:  int64(timeEach(10_000, func() { time.Now() })),
	}
}

func (s *stepStats) report(led *ledger) {
	if s.jobs == 0 {
		return
	}
	perK := func(count uint64, base int64) float64 {
		if base == 0 {
			return 0
		}
		return float64(count) * 1000 / float64(base)
	}
	retired := int64(s.counters["retired"])
	var msgs uint64
	for name, v := range s.counters {
		if strings.HasPrefix(name, "coh.msg.") {
			msgs += v
		}
	}
	led.set("core.new_ms", mean(s.newNS)/1e6)
	led.set("core.run_ms_per_job", float64(s.runNS)/1e6/float64(s.jobs))
	led.set("simrun.overhead_ms", float64(s.snapNS)/1e6/float64(s.jobs))
	if s.sampled > 0 {
		scale := float64(s.cycles) / float64(s.sampled)
		led.set("pipeline.tick_ns_per_cycle", float64(s.pipeNS)/float64(s.sampled))
		led.set("coherence.tick_ns_per_cycle", float64(s.memNS)/float64(s.sampled))
		led.set("pipeline.tick_share", float64(s.pipeNS)*scale/float64(s.runNS))
		led.set("coherence.tick_share", float64(s.memNS)*scale/float64(s.runNS))
	}
	led.set("pipeline.noretire_cycle_frac", float64(s.idle)/float64(s.coreCycles))
	led.set("pipeline.squashed_per_kinst", perK(s.counters["squashed_insts"], retired))
	led.set("pipeline.stall_dom_miss_per_kcycle", perK(s.counters["stall.dom_miss"], s.coreCycles))
	led.set("pipeline.stall_rob_full_per_kcycle", perK(s.counters["stall.rob_full"], s.coreCycles))
	led.set("pipeline.stall_lq_full_per_kcycle", perK(s.counters["stall.lq_full"], s.coreCycles))
	led.set("pipeline.loads_spec_revalidated", float64(s.counters["loads.spec_revalidated"]))
	led.set("coherence.msgs_per_kinst", perK(msgs, retired))
	led.set("coherence.l1_miss_per_kinst", perK(s.counters["l1.misses"], retired))
	led.set("coherence.dram_fetch_per_kinst", perK(s.counters["coh.dram_fetches"], retired))
	led.set("coherence.defers", float64(s.counters["coh.defers"]))
	led.set("coherence.nacks", float64(s.counters["coh.nacks"]))
	led.set("coherence.retried_writes", float64(s.counters["coh.retried_writes"]))
	led.set("pin.pinned_per_kinst", perK(s.counters["pin.pinned"], retired))
	led.set("pin.stall_cst_per_kinst", perK(s.counters["pin.stall_cst"], retired))
}

// stepSampleMask times the two ticks of every 16th cycle.
const stepSampleMask = 16 - 1

// stepLimit stops a stepped run that retires nothing for this long; the
// simulator's own backstop is inside the loop this function replaces.
const stepLimit = 200_000

// steppedRun simulates the job by building the system with core.New and
// stepping it from outside through the public per-cycle interface, the
// same order core.System.stepCycle uses: memory system, then every core.
// It returns what simrun.Execute would have reported, so the caller can
// hold the two against each other, and books the host-time split to st.
func steppedRun(e *env, j simJob, id int, st *stepStats) (*simrun.Output, error) {
	w := j.source()
	sp := e.tr.begin("core.New", id)
	t0 := time.Now()
	sys, err := core.New(arch.PaperConfig(w.Cores()), j.pol, w, simSeed)
	newNS := time.Since(t0)
	e.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("core.New %s: %w", j, err)
	}
	n := w.Cores()
	mem := sys.Mem()
	last := make([]int64, n)
	var cycle, idle, sampled, memNS, pipeNS int64

	runUntil := func(target int64) (int64, error) {
		if target <= 0 {
			return cycle, nil
		}
		for i := 0; i < n; i++ {
			sys.Core(i).SetTarget(target)
		}
		progressAt := cycle
		for {
			done := true
			for i := 0; i < n; i++ {
				if c := sys.Core(i); c.DoneCycle() < 0 && !c.Halted() {
					done = false
					break
				}
			}
			if done {
				break
			}
			cycle++
			if cycle&stepSampleMask == 0 {
				a := time.Now()
				mem.Tick(cycle)
				b := time.Now()
				for i := 0; i < n; i++ {
					sys.Core(i).Tick(cycle)
				}
				memNS += int64(b.Sub(a))
				pipeNS += int64(time.Since(b))
				sampled++
			} else {
				mem.Tick(cycle)
				for i := 0; i < n; i++ {
					sys.Core(i).Tick(cycle)
				}
			}
			for i := 0; i < n; i++ {
				if r := sys.Core(i).Retired(); r == last[i] {
					idle++
				} else {
					last[i] = r
					progressAt = cycle
				}
			}
			if cycle-progressAt > stepLimit {
				return 0, fmt.Errorf("stepped %s: no retirement for %d cycles at cycle %d", j, stepLimit, cycle)
			}
		}
		end := cycle
		for i := 0; i < n; i++ {
			if d := sys.Core(i).DoneCycle(); d > end {
				end = d
			}
		}
		return end, nil
	}

	sp = e.tr.begin("core.run", id)
	t0 = time.Now()
	start, err := runUntil(j.warmup)
	var end int64
	if err == nil {
		end, err = runUntil(j.warmup + j.measure)
	}
	runNS := time.Since(t0)
	pipeNS = max(pipeNS-sampled*st.clockNS, 0)
	memNS = max(memNS-sampled*st.clockNS, 0)
	if e.tr != nil && sampled > 0 {
		// The cycle loop's split, scaled up from the sampled cycles and
		// laid end to end from the start of the run span, inside it.
		end := e.tr.now()
		s0 := end - int64(runNS)
		scale := float64(cycle) / float64(sampled)
		pipeEnd := min(s0+int64(float64(pipeNS)*scale), end)
		memEnd := min(pipeEnd+int64(float64(memNS)*scale), end)
		e.tr.add("pipeline.Tick", id, s0, pipeEnd, true)
		e.tr.add("coherence.Tick", id, pipeEnd, memEnd, true)
	}
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}

	// What simrun.Execute does after the run: snapshot the counters and
	// the per-core hardware summaries.
	sp = e.tr.begin("simrun.snapshot", id)
	t0 = time.Now()
	cycles := end - start
	out := &simrun.Output{
		CPI:      float64(cycles) / float64(j.measure),
		Cycles:   cycles,
		Insts:    j.measure,
		Counters: sys.Counters().Snapshot(),
	}
	for i := 0; i < n; i++ {
		var hw simrun.HW
		if l1, dir := sys.Core(i).CSTs(); l1 != nil {
			hw.CST, hw.L1FP, hw.DirFP = true, l1.FalsePositiveRate(), dir.FalsePositiveRate()
		}
		if cpt := sys.Core(i).CPT(); cpt != nil {
			hw.CPT, hw.CPTMean, hw.CPTMax = true, cpt.Occupancy().Mean(), cpt.Occupancy().Max()
		}
		out.HW = append(out.HW, hw)
	}
	snapNS := time.Since(t0)
	e.tr.end(sp)

	st.jobs++
	st.newNS = append(st.newNS, float64(newNS))
	st.runNS += int64(runNS)
	st.snapNS += int64(snapNS)
	st.cycles += cycle
	st.coreCycles += cycle * int64(n)
	st.idle += idle
	st.sampled += sampled
	st.memNS += memNS
	st.pipeNS += pipeNS
	for name, v := range out.Counters {
		st.counters[name] += v
	}
	return out, nil
}
