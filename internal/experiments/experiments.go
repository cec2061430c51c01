// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 9): the VP-condition breakdown (Figure 1), the load
// overlap microbenchmark (Figure 2), the per-benchmark normalized CPI
// sweeps (Figures 7 and 8), the overhead breakdown with LP/EP (Figure 9),
// the network traffic analysis (Section 9.1.3), and the hardware structure
// studies (Sections 9.2.1-9.2.4). Each experiment returns a renderable
// result; cmd/plbench drives them through Catalog.
//
// An experiment is spelled once, as the body that renders it, and sweep
// runs that body twice. The first pass plans: every simulation the body
// asks its query for is noted and answered with a placeholder. The plan
// then executes on a pool of Workers goroutines (runAll: deduplicated by
// memoization key, Progress in plan order). The second pass renders: the
// same body, asking the same questions, now reads the memo. The run set
// cannot disagree with the rendering because it is the rendering. A
// singleflight entry per key guarantees each simulation executes exactly
// once even when concurrent experiments request overlapping keys (every
// figure normalizes against the same Unsafe baselines), and parallel
// execution is bit-identical to sequential execution because each
// simulation is a deterministic function of its key and parameters.
// Catalog lists the experiments, in the paper's order, for cmd/plbench.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/service"
	"pinnedloads/internal/simcache"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

// Params controls simulation length; the defaults trade precision for
// wall-clock time on a laptop-class machine.
type Params struct {
	Warmup  int64
	Measure int64
	Seed    uint64
}

// DefaultParams returns the standard experiment sizing.
func DefaultParams() Params { return Params{Warmup: 15_000, Measure: 60_000, Seed: 1} }

// QuickParams returns a fast sizing for tests and smoke runs.
func QuickParams() Params { return Params{Warmup: 2_000, Measure: 8_000, Seed: 1} }

// runReq is one planned simulation as the pool carries it: the workload,
// the defense policy, and an optional config override. Memoization is
// content-addressed over the resolved run, so two requests dedupe exactly
// when they describe the same simulation.
type runReq struct {
	bench trace.Source
	pol   defense.Policy
	cfg   *arch.Config
}

// RemoteRunner dispatches a simulation to a plserved instance instead of
// executing it locally. The service/client SDK implements it; cmd/plbench
// installs it behind the -server flag.
type RemoteRunner interface {
	Run(ctx context.Context, spec service.JobSpec) (*simrun.Output, error)
}

// WarmStore caches warmup-boundary checkpoints so sweeps that revisit the
// same warmed prefix fork from the checkpoint instead of re-simulating
// warmup. The key covers everything that determines the warmed state —
// benchmark, policy, effective configuration, seed and warmup length —
// with the measure length zeroed out: two runs that differ only in how
// long they measure share one warmed prefix. A store is safe for
// concurrent use and can be shared across Runner instances (a repeated
// sweep's second pass forks every run). Because the simulator is
// deterministic, a forked run is bit-identical to a cold one; the
// equivalence tests in internal/checkpoint enforce that, and
// TestWarmForkCSVIdentical enforces it end-to-end at the CSV layer.
type WarmStore struct{ m sync.Map }

// NewWarmStore returns an empty warm-checkpoint store.
func NewWarmStore() *WarmStore { return &WarmStore{} }

// Len reports how many warmed prefixes the store holds.
func (s *WarmStore) Len() (n int) {
	s.m.Range(func(_, _ any) bool { n++; return true })
	return n
}

// store publishes a warm checkpoint; the first writer for a key wins
// (concurrent writers hold byte-identical blobs — the simulation is a
// deterministic function of the key).
func (s *WarmStore) store(key string, blob []byte) { s.m.LoadOrStore(key, blob) }

// Runner executes simulations with memoization so experiments can share
// baselines. run is safe for concurrent use, and so is sweep: a sweep's
// plan lives in its own query, not on the Runner. The zero Workers value
// uses every available CPU.
type Runner struct {
	P Params
	// Workers bounds how many simulations execute concurrently in
	// runAll; 0 (or negative) means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, receives a line per completed simulation.
	// Lines are delivered in plan order (the order the experiment's body
	// first asks for each run) regardless of worker interleaving, and
	// never concurrently.
	Progress func(string)
	// Remote, when non-nil, offloads eligible runs (registered benchmark
	// proxies) to a simulation service; custom workloads — scripts, trace
	// replays, the Figure 2 micro-profiles — always simulate locally
	// because the service can only name what its registry holds.
	Remote RemoteRunner
	// Warm, when non-nil, shares warmup-boundary checkpoints across runs:
	// a local simulation whose warmed prefix is already in the store
	// resumes from the checkpoint instead of re-executing warmup, and a
	// cold run publishes its warmup checkpoint for later runs to fork.
	Warm *WarmStore

	memo   *simcache.Memo
	sims   atomic.Int64
	remote atomic.Int64
	forks  atomic.Int64
}

// NewRunner returns a Runner with the given parameters.
func NewRunner(p Params) *Runner {
	return &Runner{P: p, memo: simcache.NewMemo()}
}

// Simulations returns how many simulations actually executed locally
// (memo hits and remote runs excluded); tests use it to assert
// singleflight deduplication.
func (r *Runner) Simulations() int64 { return r.sims.Load() }

// RemoteRuns returns how many simulations the Remote hook served.
func (r *Runner) RemoteRuns() int64 { return r.remote.Load() }

// Forks returns how many local simulations skipped warmup by forking a
// warm checkpoint from the Warm store.
func (r *Runner) Forks() int64 { return r.forks.Load() }

// resolve converts a request into the canonical run description at the
// runner's sizing; its Key is the memoization key — the same identity the
// simulation service uses as job ID, so a result computed by either side
// names the other's. The description is filled in even when the request is
// invalid, so the error has a key to be memoized under.
func (r *Runner) resolve(bench trace.Source, pol defense.Policy, cfg *arch.Config) (simrun.Run, error) {
	run := simrun.Run{Workload: bench, Policy: pol, Config: cfg,
		Params: simrun.Params{Seed: r.P.Seed, Warmup: r.P.Warmup, Measure: r.P.Measure}}
	err := run.Resolve()
	return run, err
}

// run executes (or recalls) one simulation of bench under the policy. It
// is safe for concurrent use: the first caller for a key simulates, every
// other caller blocks until that simulation finishes and shares its
// result. Failures are returned as errors, never panics, and are
// memoized like results.
func (r *Runner) run(bench trace.Source, pol defense.Policy, cfg *arch.Config) (*simrun.Output, error) {
	run, err := r.resolve(bench, pol, cfg)
	return r.memo.Do(run.Key(), func() (*simrun.Output, error) {
		if err != nil {
			return nil, err
		}
		return r.simulate(run, cfg)
	})
}

// simulate executes one resolved run in the calling goroutine, remotely
// when a Remote hook is installed and the workload is one the service's
// registry also holds, locally otherwise. cfg is the request's override,
// which is what a remote job carries: the backend resolves the same
// default machine, so the wire need not.
func (r *Runner) simulate(run simrun.Run, cfg *arch.Config) (*simrun.Output, error) {
	if r.Remote != nil && run.Registered() {
		spec := service.SpecOf(&run)
		spec.Config = cfg
		out, err := r.Remote.Run(context.Background(), spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: remote %s %s: %w", run.Benchmark, run.Policy, err)
		}
		r.remote.Add(1)
		return out, nil
	}
	forked := false
	if r.Warm != nil {
		wkey := run.WarmKey()
		if blob, ok := r.Warm.m.Load(wkey); ok {
			run.Resume, forked = blob.([]byte), true
		}
		run.WarmupSink = func(b []byte) { r.Warm.store(wkey, b) }
	}
	// A checkpoint that fails to restore (version skew, fingerprint
	// mismatch) is ignored: the run simulates cold.
	out, err := run.ExecuteOrCold(context.Background(), func(error) { forked = false })
	if err != nil {
		return nil, err
	}
	if forked {
		r.forks.Add(1)
	}
	r.sims.Add(1)
	return out, nil
}

// runAll executes a request set on the worker pool: it deduplicates the
// set by memoization key (preserving first-occurrence order), spreads the
// unique requests over Workers goroutines, and delivers Progress lines in
// request order. The pool always drains — a failed simulation never
// wedges it — and every failure is reported, joined into one error.
func (r *Runner) runAll(reqs []runReq) error {
	seen := make(map[string]bool, len(reqs))
	var unique []runReq
	for _, q := range reqs {
		run, _ := r.resolve(q.bench, q.pol, q.cfg)
		if k := run.Key(); !seen[k] {
			seen[k] = true
			q.pol = run.Policy // the canonical spelling labels the progress line
			unique = append(unique, q)
		}
	}
	if len(unique) == 0 {
		return nil
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(unique) {
		workers = len(unique)
	}

	// Completed requests are flushed to Progress strictly in slot order:
	// a worker finishing slot i may flush slots [next, i] once every
	// earlier slot is done. Workers ahead of the flush frontier park
	// their line and move on.
	type slot struct {
		line string
		err  error
		done bool
	}
	slots := make([]slot, len(unique))
	var (
		pmu  sync.Mutex
		next int
	)
	finish := func(i int, line string, err error) {
		pmu.Lock()
		defer pmu.Unlock()
		slots[i] = slot{line: line, err: err, done: true}
		for next < len(slots) && slots[next].done {
			if r.Progress != nil && slots[next].line != "" {
				r.Progress(slots[next].line)
			}
			next++
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				q := unique[i]
				out, err := r.run(q.bench, q.pol, q.cfg)
				var line string
				if err == nil {
					line = fmt.Sprintf("%-16s %-14s CPI=%.3f",
						q.bench.Name(), q.pol, out.CPI)
				}
				finish(i, line, err)
			}
		}()
	}
	for i := range unique {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var errs []error
	for _, s := range slots {
		if s.err != nil {
			errs = append(errs, s.err)
		}
	}
	return errors.Join(errs...)
}

// query is what an experiment's body asks for its simulations. A live
// query answers from its Runner (after sweep's pool phase, from the memo); a
// planning query has none: it notes each request and answers planned.
type query struct {
	r    *Runner
	reqs []runReq
	// planned is every answer of a planning query: CPI 1 keeps ratios and
	// geomeans defined, the nil counters and hardware rows read as zero.
	planned simrun.Output
}

// run returns one simulation of bench under the policy, on the default
// machine unless cfg overrides it.
func (q *query) run(bench trace.Source, pol defense.Policy, cfg *arch.Config) (*simrun.Output, error) {
	if q.r == nil {
		q.reqs = append(q.reqs, runReq{bench: bench, pol: pol, cfg: cfg})
		return &q.planned, nil
	}
	return q.r.run(bench, pol, cfg)
}

// unsafeCPI returns the Unsafe-baseline CPI for the benchmark.
func (q *query) unsafeCPI(bench trace.Source) (float64, error) {
	out, err := q.run(bench, defense.Policy{Scheme: defense.Unsafe}, nil)
	if err != nil {
		return 0, err
	}
	return out.CPI, nil
}

// normalized returns the benchmark's CPI under the policy (and config
// override, if any), normalized to the Unsafe baseline on the default
// machine. The baseline is asked for first, so a benchmark's runs follow its
// baseline in the plan.
func (q *query) normalized(bench trace.Source, pol defense.Policy, cfg *arch.Config) (float64, error) {
	base, err := q.unsafeCPI(bench)
	if err != nil {
		return 0, err
	}
	out, err := q.run(bench, pol, cfg)
	if err != nil {
		return 0, err
	}
	return out.CPI / base, nil
}

// sweep runs an experiment. body is the experiment's one spelling: it asks
// q for every simulation it needs and builds the result from the answers.
// sweep calls it against a planning query, executes the plan on the pool,
// then calls it again live; the second call's result is the experiment's.
// body must therefore ask the same questions whatever the answers are.
func sweep[T any](r *Runner, body func(q *query) (T, error)) (T, error) {
	plan := &query{planned: simrun.Output{CPI: 1}}
	if res, err := body(plan); err != nil {
		return res, err
	}
	if err := r.runAll(plan.reqs); err != nil {
		return *new(T), err
	}
	return body(&query{r: r})
}

// table is a simple fixed-width text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// suiteBenches returns the benchmarks of the suites, suite by suite, each
// sorted by name.
func suiteBenches(suites ...string) []*trace.Profile {
	var all []*trace.Profile
	for _, suite := range suites {
		benches := trace.Suites()[suite]
		sort.Slice(benches, func(i, j int) bool { return benches[i].BenchName < benches[j].BenchName })
		all = append(all, benches...)
	}
	return all
}
