// Command bench is this repository's performance ledger: five long,
// serial, host-calibrated workloads over the simulator, the experiment
// runner, the checkpoint store and the peered fleet, each reporting the
// same eight end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). README.md has the tables; BENCHMARK.json is the contract
// with the driver.
//
//	bash bench/run.sh --workload core1_busy --seed 1 --seconds 16 --trace 0
//
// run.sh builds the program and starts it at the root of the checkout,
// where it reads BENCHMARK.json for the metrics to report.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, and the last set-up is the one the timed window uses. The
// driver's contract asks for it: one set-up of about a second is too short
// to repeat between runs.
const setupRepeats = 3

// workRoot holds scratch directories and span files, inside the checkout.
var workRoot = filepath.Join(".bench_build", "work")

// env is what one run carries through set-up, the timed window and the
// checks.
type env struct {
	workload string
	spec     *benchSpec
	seed     uint64
	scale    float64 // --seconds over the contract's run_seconds: the workload constants are sized for the latter
	traced   bool
	workdir  string // this run's scratch directory, removed on exit

	tr  *tracer // nil when untraced
	cal *calibrator
	led *ledger

	attempted int
	failed    int
	errs      []string
}

// op counts one operation and, when err is set, its failure.
func (e *env) op(err error) bool {
	e.attempted++
	if err != nil {
		e.failed++
		if len(e.errs) < 10 {
			e.errs = append(e.errs, err.Error())
		}
	}
	return err == nil
}

// check counts one correctness check.
func (e *env) check(ok bool, format string, args ...any) bool {
	var err error
	if !ok {
		err = fmt.Errorf("check failed: "+format, args...)
	}
	return e.op(err)
}

// workload is one entry of the ledger. setup builds whatever the timed
// window needs and returns it with its teardown; run is the timed window
// and returns how many jobs it served; verify runs the checks that need
// work of their own, after an untraced window (a traced run makes them part
// of the window, where they feed the per-layer metrics).
type workload struct {
	name   string
	setup  func(e *env) (state any, teardown func(), err error)
	run    func(e *env, state any) (jobs int, err error)
	verify func(e *env, state any)
}

var workloads = []workload{
	coreWorkload("core1_busy", coreBusy),
	coreWorkload("core1_stall", coreStall),
	coreWorkload("core8_sharing", coreSharing),
	warmforkWorkload(),
	fleetWorkload(),
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run: core1_busy, core1_stall, core8_sharing, fig7_warmfork, fig7_fleet3")
		seed     = flag.Uint64("seed", 1, "orders the jobs and picks the results that are verified")
		seconds  = flag.Float64("seconds", 0, "timed window the work is sized for on the reference host (default: the contract's run_seconds)")
		traceOn  = flag.Int("trace", 0, "1 repeats the workload with spans and layer probes, reports the per-layer metrics and writes the span file")
		jsonOnly = flag.Bool("json", false, "print only the JSON result line")
	)
	flag.Parse()
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: run from the root of a checkout: %v\n", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload, one of:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}

	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// The scratch directory goes on every exit path, signals included.
	defer os.RemoveAll(dir)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		os.RemoveAll(dir)
		os.Exit(130)
	}()

	cal, err := newCalibrator()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	e := &env{
		workload: w.name,
		spec:     spec,
		seed:     *seed,
		scale:    *seconds / spec.RunSeconds,
		traced:   *traceOn != 0,
		workdir:  dir,
		cal:      cal,
		led:      newLedger(),
	}
	if err := runWorkload(e, w); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if e.traced {
		if err := e.tr.write(filepath.Join(workRoot, "trace-"+w.name+".json"), w.name, e.seed); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if bad := e.led.undeclared(spec); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "bench: undeclared metrics %v\n", bad)
		return 1
	}
	printResult(e, *jsonOnly)
	for _, msg := range e.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, msg)
	}
	if e.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload sets up, runs the timed window, and books the metrics every
// workload shares: set-up time, memory, host usage.
func runWorkload(e *env, w *workload) error {
	repeats := setupRepeats
	if e.traced {
		repeats = 1
	}
	var (
		state    any
		teardown func()
		setups   []float64
	)
	e.cal.begin("setup")
	for i := 0; i < repeats; i++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		var err error
		if state, teardown, err = w.setup(e); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		e.cal.after(time.Since(t0))
	}
	defer teardown()
	e.led.setN("setup_s", percentile(setups, 50)*e.cal.factor("setup"), len(setups))

	if e.traced {
		e.tr = newTracer()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	usage0 := readHostUsage()
	root := e.tr.begin("bench.window", -1)
	jobs, err := w.run(e, state)
	e.tr.end(root)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	usage1 := readHostUsage()

	const mb = 1 << 20
	e.led.set("alloc_mb_per_job", float64(after.TotalAlloc-before.TotalAlloc)/mb/float64(jobs))
	e.led.set("heap_live_mb", float64(live.HeapAlloc)/mb)
	e.led.set("host.speed_factor", e.cal.factor())
	e.led.set("host.ref_slice_ms", e.cal.sliceMS())
	e.led.set("host.peak_rss_mb", usage1.peakRSSMB)
	e.led.set("host.cpu_s", usage1.cpuS-usage0.cpuS)
	e.led.set("host.gc_cycles", float64(after.NumGC-before.NumGC))
	e.led.set("host.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	e.led.set("host.invol_ctx_switches", usage1.involCtxSw-usage0.involCtxSw)

	if w.verify != nil && !e.traced {
		w.verify(e, state)
	}
	return nil
}

// result is the JSON object the driver reads from the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints one line per metric — end-to-end first, then
// per-layer — and the JSON result line. An untraced run's JSON carries
// every end-to-end metric; a traced run's carries every per-layer metric.
func printResult(e *env, jsonOnly bool) {
	defs := e.spec.EndToEnd
	if e.traced {
		defs = e.spec.PerLayer
	}
	res := result{
		Correct:   e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: e.led.vals[d.Name].v, Unit: d.Unit}
	}
	if !jsonOnly {
		for _, d := range defs {
			fmt.Println(e.led.line(e.workload, d))
		}
		if !e.traced {
			// The per-layer readings an untraced run has anyway.
			for _, d := range e.spec.PerLayer {
				if _, ok := e.led.vals[d.Name]; ok {
					fmt.Println(e.led.line(e.workload, d))
				}
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return
	}
	fmt.Println(string(line))
}
