package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/experiments"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// The fig7_* workloads regenerate the paper's Figure 7: the SPEC17 suite
// under Unsafe and {Fence, DOM, STT} × {COMP, LP, EP, SPECTRE}, 273 jobs,
// through experiments.RunCPIFigure on a one-worker Runner.
const (
	fig7Suite = "SPEC17"
	fig7Title = "Figure 7"
	// sampleJobs is how many of a sweep's results are held against a fresh
	// in-process simrun.Execute of the same spec.
	sampleJobs = 16
)

// fig7Jobs lists the sweep's jobs in RunCPIFigure's enumeration order.
func fig7Jobs(warmup, measure int64) []simJob {
	benches := trace.Suites()[fig7Suite]
	sort.Slice(benches, func(i, j int) bool { return benches[i].BenchName < benches[j].BenchName })
	var jobs []simJob
	for _, b := range benches {
		jobs = append(jobs, simJob{bench: b.BenchName, pol: defense.Policy{Scheme: defense.Unsafe}, warmup: warmup, measure: measure})
		for _, sch := range defense.Schemes() {
			for _, v := range defense.Variants() {
				jobs = append(jobs, simJob{bench: b.BenchName, pol: defense.Policy{Scheme: sch, Variant: v}, warmup: warmup, measure: measure})
			}
		}
	}
	return jobs
}

// primeFig7 is the priming pass of a fig7_* set-up: every proxy once under
// a pinning policy at Warmup 1k / Measure 2k, capturing a warm checkpoint,
// and every third one once more forked from it, so the checkpoint path is
// warm too. About a second of the sweep's own work.
func primeFig7() error {
	for n, b := range trace.Suites()[fig7Suite] {
		j := simJob{bench: b.BenchName, pol: defense.Policy{Scheme: defense.DOM, Variant: defense.EP}, warmup: 1000, measure: 2000}
		p := j.params()
		var blob []byte
		p.WarmupSink = func(b []byte) { blob = b }
		if _, err := simrun.Execute(context.Background(), j.source(), j.pol, nil, p); err != nil {
			return err
		}
		if n%3 != 0 {
			continue
		}
		p.WarmupSink, p.Resume = nil, blob
		if _, err := simrun.Execute(context.Background(), j.source(), j.pol, nil, p); err != nil {
			return err
		}
	}
	return nil
}

// sweep is one timed RunCPIFigure.
type sweep struct {
	runner   *experiments.Runner
	fig      *experiments.CPIFigure
	csv      []byte
	wallMS   float64   // sweep wall, reference slices excluded
	jobMS    []float64 // per job as Runner.Progress saw it, in enumeration order
	cpis     []float64 // per job, as the progress line printed it
	renderMS float64   // after the last job: normalisation and figure build
}

// runSweep runs the Figure 7 sweep on a fresh one-worker Runner. Progress
// fires once per finished simulation, in enumeration order, with no job in
// flight: that is where the job is timed and the reference slices run.
func runSweep(e *env, name string, p experiments.Params, configure func(*experiments.Runner)) (*sweep, error) {
	s := &sweep{runner: experiments.NewRunner(p)}
	s.runner.Workers = 1
	configure(s.runner)
	sp := e.tr.begin("experiments.sweep", -1)
	spent0 := e.cal.spent
	start := time.Now()
	last, lastSpan := start, e.tr.now()
	s.runner.Progress = func(line string) {
		now, nowSpan := time.Now(), e.tr.now()
		dt := now.Sub(last)
		s.jobMS = append(s.jobMS, ms(dt))
		if _, cpi, ok := strings.Cut(line, "CPI="); ok {
			if v, err := strconv.ParseFloat(cpi, 64); err == nil {
				s.cpis = append(s.cpis, v)
			}
		}
		e.tr.wrap("experiments.job", len(s.jobMS)-1, lastSpan, nowSpan)
		e.cal.after(dt)
		last, lastSpan = time.Now(), e.tr.now()
	}
	var err error
	s.fig, err = experiments.RunCPIFigure(s.runner, fig7Title, fig7Suite)
	end := time.Now()
	e.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	s.renderMS = ms(end.Sub(last))
	s.wallMS = ms(end.Sub(start) - (e.cal.spent - spent0))
	if s.csv, err = experiments.MarshalCSV(s.fig); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// overheadMSPerJob is the sweep's wall time that was not inside a job.
func (s *sweep) overheadMSPerJob() float64 {
	return (s.wallMS - sum(s.jobMS)) / float64(len(s.jobMS))
}

// cycles estimates the sweep's measured-interval cycles from the CPIs its
// progress lines printed (three decimals): the Runner does not hand out
// its outputs, and the estimate repeats exactly.
func (s *sweep) cycles(measure int64) float64 {
	var c float64
	for _, cpi := range s.cpis {
		c += math.Round(cpi * float64(measure))
	}
	return c
}

// reportSpeed books the simulator speed of a sweep in which every job
// simulates, as its caller sees it: the jobs' instructions and measured
// cycles over the sweep's wall time times h. The sweep's jobs-per-second
// reads the same timing; a fig7_* workload has no other.
func (s *sweep) reportSpeed(e *env, jobs []simJob, h float64) {
	var insts float64
	for _, j := range jobs {
		insts += float64(j.insts())
	}
	e.led.set("sim_kips", insts/(s.wallMS*h))
	e.led.set("host_ns_per_cycle", s.wallMS*h*1e6/s.cycles(jobs[0].measure))
}

// slowTenthShare is the share of a pass's job time that its slowest tenth
// of jobs took: with a gigabyte of checkpoints live, the jobs a collector
// cycle lands on.
func slowTenthShare(jobMS []float64) float64 {
	s := append([]float64(nil), jobMS...)
	sort.Float64s(s)
	return sum(s[len(s)-len(s)/10:]) / sum(s)
}

// sampleIndexes picks sampleJobs distinct job indexes from the run seed:
// the results that are verified.
func sampleIndexes(n int, seed uint64) []int {
	idx := rand.New(rand.NewSource(int64(seed))).Perm(n)
	if len(idx) > sampleJobs {
		idx = idx[:sampleJobs]
	}
	sort.Ints(idx)
	return idx
}

// freshRuns are jobs of a sweep run afresh in this process through
// simrun.Execute: per job its output (nil where it failed) and its
// host-calibrated wall time.
type freshRuns struct {
	idx  []int // job indexes, ascending
	outs []*simrun.Output
	ms   []float64
}

func runFresh(e *env, jobs []simJob, idx []int) *freshRuns {
	fr := &freshRuns{idx: idx, outs: make([]*simrun.Output, len(idx)), ms: make([]float64, len(idx))}
	e.cal.begin("fresh")
	for k, i := range idx {
		sp := e.tr.begin("simrun.Execute", i)
		t0 := time.Now()
		out, err := jobs[i].execute()
		d := time.Since(t0)
		e.tr.end(sp)
		e.cal.after(d)
		if e.op(err) {
			fr.outs[k], fr.ms[k] = out, ms(d)
		}
	}
	h := e.cal.factor("fresh")
	for k := range fr.ms {
		fr.ms[k] *= h
	}
	return fr
}

// verifySample runs the seeded sample of the sweep's jobs afresh, for the
// caller to hold the sweep's results against. In a traced run each job is
// also stepped from outside, which gives the fig7_* workloads their
// cycle-loop split, and the two must agree.
func verifySample(e *env, jobs []simJob, steps *stepStats) *freshRuns {
	fr := runFresh(e, jobs, sampleIndexes(len(jobs), e.seed))
	if e.traced {
		e.led.setN("simrun.execute_ms_p50", percentile(fr.ms, 50), len(fr.ms))
		for k, i := range fr.idx {
			stepped, err := steppedRun(e, jobs[i], i, steps)
			if e.op(err) && fr.outs[k] != nil {
				e.check(bytes.Equal(stepped.MarshalCSV(), fr.outs[k].MarshalCSV()), "%s: stepped run differs from simrun.Execute", jobs[i])
			}
		}
	}
	return fr
}

type warmforkState struct {
	jobs   []simJob
	store  *experiments.WarmStore
	forked *experiments.CPIFigure // what pass B rendered
}

// Warmup and measure of the fig7_warmfork sweep. Both passes use the same
// sizing, so the second must render the first's bytes; the warmup is the
// longer part, which is what forking skips.
const (
	warmforkWarmup  = 6_000
	warmforkMeasure = 3_000
)

// fig7_warmfork: the sweep in-process on a Runner with a warm-checkpoint
// store. Pass A simulates everything and writes 273 warm checkpoints; pass
// B, a fresh Runner on the same store, reads them and forks. It is the
// only workload where checkpoint, ckptio, the per-package serializers and
// the Runner do real work, with capture beside restore so that a gain for
// one that costs the other shows.
func warmforkWorkload() workload {
	return workload{
		name: "fig7_warmfork",
		setup: func(e *env) (any, func(), error) {
			st := &warmforkState{
				jobs:  fig7Jobs(scaled(warmforkWarmup, e.scale, 500), scaled(warmforkMeasure, e.scale, 500)),
				store: experiments.NewWarmStore(),
			}
			return st, func() {}, primeFig7()
		},
		run: func(e *env, state any) (int, error) {
			return runWarmfork(e, state.(*warmforkState))
		},
		verify: func(e *env, state any) { verifyWarmfork(e, state.(*warmforkState), nil) },
	}
}

func runWarmfork(e *env, st *warmforkState) (int, error) {
	p := experiments.Params{Warmup: st.jobs[0].warmup, Measure: st.jobs[0].measure, Seed: simSeed}
	withStore := func(r *experiments.Runner) { r.Warm = st.store }

	e.cal.begin("cold")
	a, err := runSweep(e, "pass A", p, withStore)
	if err != nil {
		return 0, err
	}
	// Pass B starts from a collected heap, as pass A does: the collector's
	// cycles then land on the same jobs in every run.
	runtime.GC()
	e.cal.begin("warm")
	b, err := runSweep(e, "pass B", p, withStore)
	if err != nil {
		return 0, err
	}
	st.forked = b.fig
	n := len(st.jobs)
	e.check(len(a.jobMS) == n && len(b.jobMS) == n, "sweeps ran %d and %d jobs, want %d", len(a.jobMS), len(b.jobMS), n)
	e.check(a.runner.Simulations() == int64(n) && a.runner.Forks() == 0, "pass A: %d simulations, %d forks", a.runner.Simulations(), a.runner.Forks())
	e.check(b.runner.Forks() == int64(n), "pass B forked %d of %d jobs", b.runner.Forks(), n)
	e.check(st.store.Len() == n, "warm store holds %d checkpoints, want %d", st.store.Len(), n)
	e.check(bytes.Equal(a.csv, b.csv), "pass B renders different CSV bytes than pass A")
	e.attempted += 2 * n // the jobs themselves; a failed one fails its sweep

	hc, hw := e.cal.factor("cold"), e.cal.factor("warm")
	e.led.set("cold_jobs_per_s", float64(n)*1000/(a.wallMS*hc))
	e.led.set("warm_jobs_per_s", float64(n)*1000/(b.wallMS*hw))
	e.led.setN("hit_p50_ms", percentile(b.jobMS, 50)*hw, n)
	a.reportSpeed(e, st.jobs, hc)
	e.led.set("experiments.slow_tenth_share", (slowTenthShare(a.jobMS)+slowTenthShare(b.jobMS))/2)

	digest := fnv.New64a()
	digest.Write(a.csv)
	e.led.set("sim.digest", digestValue(digest))
	e.led.set("sim.cycles_total", a.cycles(p.Measure))
	e.led.set("sim.cpi_geomean", stats.GeoMean(a.cpis))
	e.led.set("experiments.simulations", float64(a.runner.Simulations()+b.runner.Simulations()))
	e.led.set("experiments.forks", float64(b.runner.Forks()))
	e.led.set("experiments.remote_runs", float64(a.runner.RemoteRuns()+b.runner.RemoteRuns()))

	if e.traced {
		e.led.set("experiments.render_ms", (a.renderMS+b.renderMS)/2)
		e.led.set("experiments.runner_overhead_ms_per_job", (a.overheadMSPerJob()+b.overheadMSPerJob())/2)
		steps := newStepStats()
		verifyWarmfork(e, st, steps)
		steps.report(e.led)
		probeLayers(e, st.jobs)
		e.led.set("bench.trace_overhead_frac", spanOverheadFrac(e.tr, a.wallMS+b.wallMS))
	}
	return 2 * n, nil
}

// verifyWarmfork holds a seeded sample of pass B's forked results against
// fresh cold runs. The Runner keeps its outputs to itself, so the check
// goes through what it renders: a job's normalized CPI must be exactly the
// fresh run's CPI over the fresh Unsafe run's CPI.
func verifyWarmfork(e *env, st *warmforkState, steps *stepStats) {
	fr := verifySample(e, st.jobs, steps)
	base := make(map[string]float64)
	for k, i := range fr.idx {
		j, out := st.jobs[i], fr.outs[k]
		if out == nil || j.pol.Scheme == defense.Unsafe {
			continue // failed already, or normalizes to itself
		}
		if _, ok := base[j.bench]; !ok {
			u := simJob{bench: j.bench, pol: defense.Policy{Scheme: defense.Unsafe}, warmup: j.warmup, measure: j.measure}
			uo, err := u.execute()
			if !e.op(err) {
				continue
			}
			base[j.bench] = uo.CPI
		}
		got := st.forked.Norm[j.pol.Scheme][j.pol.Variant][j.bench]
		e.check(got == out.CPI/base[j.bench], "%s: forked normalized CPI %v, fresh run gives %v", j, got, out.CPI/base[j.bench])
	}
}

// spanOverheadFrac estimates what recording spans cost a traced run whose
// tracing is nothing but spans at call boundaries: spans recorded, times
// the measured cost of recording one, over the traced wall time.
func spanOverheadFrac(t *tracer, wallMS float64) float64 {
	scratch := newTracer()
	const reps = 10_000
	per := timeEach(reps, func() { scratch.end(scratch.begin("bench.calibrate", 0)) })
	return float64(t.count()) * ms(per) / wallMS
}
