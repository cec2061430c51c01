package main

import (
	"bytes"
	"sort"
	"strconv"
	"time"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/simrun"
)

// coreSpec sizes one of the core* workloads: every proxy under every
// policy, corePasses times, straight through simrun.Execute — the path an
// architect running one simulation (plsim, pinnedloads.Run) takes.
type coreSpec struct {
	benches []string
	pols    []defense.Policy
	warmup  int64
	measure int64
	// primeDiv sizes the priming pass of the set-up: the whole job list
	// once at 1/primeDiv of its length, which warms the Go heap, the code
	// and the host's caches with about a second of the real work.
	primeDiv int64
}

// corePasses is how often the job list is run. The host's slowdowns come
// in bursts of a fraction of a second to a few seconds, so a job's best
// time over four passes, spread over the whole window, reads the
// undisturbed simulator where a sum over the passes reads the host: on the
// same samples the sum spread by 5-8 % between identical windows, each
// job's best of two passes by 3 %, of four by 2 % (README.md).
const corePasses = 4

// coreBusy: compute-bound SPEC17 proxies (CPI < 1). pipeline.Core.Tick's
// stages do nearly all the host work; the memory system and idle cycles do
// little. It also puts RCP and an @RC policy on the ledger.
var coreBusy = coreSpec{
	benches: []string{"gcc_r", "exchange2_r", "leela_r", "x264_r", "perlbench_r", "namd_r"},
	pols: []defense.Policy{
		policy(defense.Unsafe, defense.Comp, defense.TSO),
		policy(defense.Fence, defense.EP, defense.TSO),
		policy(defense.DOM, defense.EP, defense.TSO),
		policy(defense.STT, defense.LP, defense.TSO),
		policy(defense.IS, defense.EP, defense.TSO),
		policy(defense.RCP, defense.Comp, defense.TSO),
		policy(defense.DOM, defense.Spectre, defense.TSO),
		policy(defense.Unsafe, defense.Comp, defense.RC),
	},
	warmup:   20_000,
	measure:  62_000,
	primeDiv: 5,
}

// coreStall: mcf_r, CPI 5-8, where nearly every cycle retires nothing. A
// next-event fast-forward must show a multiple here and nothing on
// core1_busy.
var coreStall = coreSpec{
	benches: []string{"mcf_r"},
	pols: []defense.Policy{
		policy(defense.Unsafe, defense.Comp, defense.TSO),
		policy(defense.Fence, defense.Comp, defense.TSO),
		policy(defense.DOM, defense.Comp, defense.TSO),
		policy(defense.STT, defense.Comp, defense.TSO),
		policy(defense.IS, defense.Comp, defense.TSO),
		policy(defense.RCP, defense.Comp, defense.TSO),
		policy(defense.Fence, defense.EP, defense.TSO),
		policy(defense.DOM, defense.EP, defense.TSO),
		policy(defense.Fence, defense.Comp, defense.RC),
	},
	warmup:   20_000,
	measure:  85_000,
	primeDiv: 4,
}

// coreSharing: 8-core SPLASH2/PARSEC proxies, the only place the
// directory, deferred invalidations, the mesh and the barrier path carry
// load. Nothing in pipeline is bypassed, so a pipeline gain shows here
// too; a coherence gain shows here and not on core1_*.
var coreSharing = coreSpec{
	benches: []string{"ocean_cp", "radix", "fft", "canneal"},
	pols: []defense.Policy{
		policy(defense.Unsafe, defense.Comp, defense.TSO),
		policy(defense.Fence, defense.EP, defense.TSO),
		policy(defense.DOM, defense.EP, defense.TSO),
		policy(defense.STT, defense.LP, defense.TSO),
		policy(defense.RCP, defense.Comp, defense.TSO),
	},
	warmup:   3_000,
	measure:  7_500,
	primeDiv: 11,
}

func coreWorkload(name string, spec coreSpec) workload {
	return workload{
		name: name,
		setup: func(e *env) (any, func(), error) {
			jobs := crossJobs(spec.benches, spec.pols,
				scaled(spec.warmup, e.scale, 500), scaled(spec.measure, e.scale, 1000), e.seed)
			for _, j := range jobs {
				j.warmup, j.measure = j.warmup/spec.primeDiv, j.measure/spec.primeDiv
				if _, err := j.execute(); err != nil {
					return nil, nil, err
				}
			}
			return jobs, func() {}, nil
		},
		run: func(e *env, state any) (int, error) {
			return runCore(e, state.([]simJob))
		},
	}
}

// runCore is the timed window of a core* workload. Untraced, every pass
// goes through simrun.Execute. Traced, the last pass steps each system from
// outside instead, which splits the cycle loop's host time between pipeline
// and coherence and must arrive at the same output.
func runCore(e *env, jobs []simJob) (int, error) {
	var (
		wall  [corePasses][]float64 // per job, host-calibrated ms
		first = make([][]byte, len(jobs))
		outs  = make([]*simrun.Output, len(jobs)) // pass 1's
		steps = newStepStats()
	)
	for pass := 0; pass < corePasses; pass++ {
		phase := "pass" + strconv.Itoa(pass+1)
		stepped := e.traced && pass == corePasses-1
		e.cal.begin(phase)
		raw := make([]float64, len(jobs))
		for i, j := range jobs {
			var (
				out *simrun.Output
				err error
			)
			sp := e.tr.begin("bench.job", i)
			t0 := time.Now()
			if stepped {
				out, err = steppedRun(e, j, i, steps)
			} else {
				ex := e.tr.begin("simrun.Execute", i)
				out, err = j.execute()
				e.tr.end(ex)
			}
			dt := time.Since(t0)
			e.tr.end(sp)
			if !e.op(err) {
				return 0, err
			}
			raw[i] = ms(dt)
			csv := out.MarshalCSV()
			if pass == 0 {
				first[i], outs[i] = csv, out
			} else {
				e.check(bytes.Equal(first[i], csv), "%s: pass %d output differs from pass 1", j, pass+1)
			}
			e.cal.after(dt)
		}
		h := e.cal.factor(phase)
		for _, d := range raw {
			wall[pass] = append(wall[pass], d*h)
		}
	}

	// The run seed shuffles the jobs; the simulated statistics are taken in
	// the jobs' own order, so that they read the same under every seed.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return jobs[order[a]].String() < jobs[order[b]].String() })
	stats := newSimStats()
	for _, i := range order {
		stats.add(outs[i])
	}

	// best[i] is job i's fastest pass; a traced run's stepped pass is
	// slower by construction and stays out.
	timed := corePasses
	if e.traced {
		timed--
	}
	var bestMS, allMS, insts float64
	best := make([]float64, len(jobs))
	for i, j := range jobs {
		best[i] = wall[0][i]
		for pass := 0; pass < timed; pass++ {
			best[i] = min(best[i], wall[pass][i])
			allMS += wall[pass][i]
		}
		bestMS += best[i]
		insts += float64(j.insts())
	}
	e.led.set("sim_kips", insts/bestMS)
	e.led.set("host_ns_per_cycle", bestMS*1e6/float64(stats.cycles))
	// The library keeps nothing between passes, so a job list has one rate,
	// cold, and no hits; the three metrics that other workloads read off
	// stored state restate the timing above, so that every workload reports
	// every end-to-end metric, as the driver requires.
	e.led.set("cold_jobs_per_s", float64(len(jobs))*1000/bestMS)
	e.led.set("warm_jobs_per_s", float64(len(jobs))*1000/bestMS)
	e.led.setN("hit_p50_ms", percentile(best, 50), len(best))
	// What taking each job's best pass leaves out: how much longer the mean
	// pass took than the best-of-passes one.
	e.led.set("host.disturbed_frac", allMS/float64(timed)/bestMS-1)
	stats.report(e.led)

	if e.traced {
		steps.report(e.led)
		e.led.setN("simrun.execute_ms_p50", percentile(best, 50), len(best))
		// The stepped pass did an executed pass's work again with the
		// tracer's timers in the cycle loop: the difference is what
		// tracing cost.
		e.led.set("bench.trace_overhead_frac", sum(wall[corePasses-1])*float64(timed)/allMS-1)
		probeLayers(e, jobs)
	}
	return corePasses * len(jobs), nil
}
