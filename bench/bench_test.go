package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1},
	} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if samples[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestLedgerLineReportsSampleCount(t *testing.T) {
	led := newLedger()
	led.setN("hit_p50_ms", 0.25, 8190)
	led.set("sim_kips", 1234)
	led.set("sim.digest", float64(1<<52-1))
	if got, want := led.line("w", metricDef{Name: "hit_p50_ms", Unit: "ms"}), "w hit_p50_ms 0.25 ms n=8190"; got != want {
		t.Errorf("line = %q, want %q", got, want)
	}
	if got, want := led.line("w", metricDef{Name: "sim_kips", Unit: "kinst/s"}), "w sim_kips 1234 kinst/s"; got != want {
		t.Errorf("line = %q, want %q", got, want)
	}
	if got, want := led.line("w", metricDef{Name: "sim.digest", Unit: "hash"}), "w sim.digest 4503599627370495 hash"; got != want {
		t.Errorf("line = %q, want %q", got, want)
	}
	led.set("no.such_metric", 1)
	if bad := led.undeclared(testSpec(t)); len(bad) != 1 || bad[0] != "no.such_metric" {
		t.Errorf("undeclared = %v", bad)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.window", Start: 0, End: 100, Parent: -1},
		{Name: "simrun.Execute", Start: 10, End: 60, Parent: 0},      // nested
		{Name: "core.New", Start: 10, End: 20, Parent: 1},            // grandchild
		{Name: "core.run", Start: 20, End: 55, Parent: 1},            // grandchild
		{Name: "pipeline.Tick", Start: 20, End: 40, Parent: 3},       // overlapping pair under core.run
		{Name: "coherence.Tick", Start: 35, End: 50, Parent: 3},      // overlaps the previous by 5
		{Name: "checkpoint.Capture", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	want := []int64{
		100 - 50 - 10, // window minus Execute minus the clipped Capture
		50 - 10 - 35,
		10,
		35 - 30, // the pair covers [20,50) once
		20,
		15,
		30,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelfTimes(spans)
	if layers["core"] != 15 || layers["bench"] != 40 {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.end(off.begin("bench.window", -1)) // a nil tracer records nothing
	if off.count() != 0 {
		t.Fatal("nil tracer counted a span")
	}
	tr := newTracer()
	root := tr.begin("bench.window", -1)
	job := tr.begin("bench.job", 7)
	tr.add("pipeline.Tick", 7, 1, 2, true)
	tr.begin("core.run", 7) // left open: closed with its parent
	tr.end(job)
	call := tr.begin("fleet.Run", 8)
	tr.end(call)
	tr.wrap("experiments.job", 8, tr.spans[call].Start, tr.now()) // adopts the call it covers
	tr.end(root)
	if tr.count() != 6 {
		t.Fatalf("recorded %d spans, want 6", tr.count())
	}
	for i, wantParent := range []int{-1, 0, 1, 1, 5, 0} {
		if tr.spans[i].Parent != wantParent {
			t.Errorf("span %d parent = %d, want %d", i, tr.spans[i].Parent, wantParent)
		}
		if tr.spans[i].End < tr.spans[i].Start {
			t.Errorf("span %d never closed", i)
		}
	}
}

func TestHostFactor(t *testing.T) {
	if got := hostFactor(refNominalMS); got != 1 {
		t.Errorf("factor at the nominal slice time = %v, want 1", got)
	}
	if got := hostFactor(2 * refNominalMS); got != 0.5 {
		t.Errorf("factor on a host half as fast = %v, want 0.5", got)
	}
	if got := hostFactor(0); got != 1 {
		t.Errorf("factor with no slices = %v, want 1", got)
	}
	c := testCalibrator(t)
	c.slices["a"] = []float64{10, 15}
	c.slices["b"] = []float64{25}
	if got, want := c.sliceMS("a"), 10.0; got != want {
		t.Errorf("sliceMS(a) = %v, want %v", got, want)
	}
	if got, want := c.factor("a", "b"), refNominalMS/15; math.Abs(got-want) > 1e-12 {
		t.Errorf("factor(a,b) = %v, want the median slice's %v", got, want)
	}
	if got, want := c.factor(), c.factor("a", "b"); got != want {
		t.Errorf("factor() = %v, want all phases %v", got, want)
	}
}

func testCalibrator(t *testing.T) *calibrator {
	t.Helper()
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCalibratorOwesFivePercent(t *testing.T) {
	c := testCalibrator(t)
	c.begin("p")
	if n := len(c.slices["p"]); n != minPhaseSlices {
		t.Fatalf("begin ran %d slices, want %d", n, minPhaseSlices)
	}
	c.after(100 * time.Millisecond) // owes 5 ms: less than a slice
	if n := len(c.slices["p"]); n != minPhaseSlices {
		t.Fatalf("100 ms of work ran %d more slices, want 0", n-minPhaseSlices)
	}
	c.after(200 * time.Millisecond) // owes 15 ms in all: one slice
	if n := len(c.slices["p"]); n != minPhaseSlices+1 {
		t.Fatalf("300 ms of work ran %d more slices, want 1", n-minPhaseSlices)
	}
}

func TestRequestReference(t *testing.T) {
	r, err := newRequestRef()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if got := r.factor("warm"); got != 1 {
		t.Errorf("factor with no round trips = %v, want 1", got)
	}
	if err := r.run("warm", 8); err != nil {
		t.Fatal(err)
	}
	if n := len(r.trips["warm"]); n != 8 {
		t.Fatalf("booked %d round trips, want 8", n)
	}
	r.trips["other"] = []float64{2 * refTripNominalMS}
	if got := r.factor("other"); got != 0.5 {
		t.Errorf("factor at twice the nominal round trip = %v, want 0.5", got)
	}
}

func TestReferenceKernelDoesConstantWork(t *testing.T) {
	a, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ia, sa := a.slice()
		ib, sb := b.slice()
		if ia != refIters || ib != refIters {
			t.Fatalf("slice %d ran %d and %d iterations, want %d", i, ia, ib, refIters)
		}
		if sa != sb {
			t.Fatalf("slice %d: two kernels disagree on the state: %x vs %x", i, sa, sb)
		}
	}
	if len(a.small)*8 != 256<<10 || len(a.big)*8 != 64<<20 {
		t.Errorf("reference tables are %d and %d bytes, want 256 KiB and 64 MiB", len(a.small)*8, len(a.big)*8)
	}
}

// testSpec loads the contract from the root of the repository.
func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestContractNamesTheWorkloads holds the workloads BENCHMARK.json names
// against the ones the program has; the metric lists have no second copy.
func TestContractNamesTheWorkloads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// smoke runs one workload at 1/50 size with every check on.
func smoke(t *testing.T, name string, seed uint64, traced bool) *env {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	e := &env{
		workload: name,
		spec:     testSpec(t),
		seed:     seed,
		scale:    1.0 / 50,
		traced:   traced,
		workdir:  t.TempDir(),
		cal:      testCalibrator(t),
		led:      newLedger(),
	}
	if err := runWorkload(e, w); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if e.failed != 0 || e.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, e.failed, e.attempted, e.errs)
	}
	if bad := e.led.undeclared(e.spec); len(bad) > 0 {
		t.Errorf("%s set undeclared metrics %v", name, bad)
	}
	for _, d := range e.spec.EndToEnd {
		if r, ok := e.led.vals[d.Name]; !ok || r.v <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v (set: %v), want > 0", name, d.Name, r.v, ok)
		}
	}
	if traced {
		// Every span nests inside the window, so the layers' self times
		// add up to the traced wall time.
		var sum int64
		for _, d := range layerSelfTimes(e.tr.spans) {
			sum += d
		}
		if wall := e.tr.spans[0].End - e.tr.spans[0].Start; sum != wall {
			t.Errorf("%s: layer self times sum to %d ns, the window took %d ns", name, sum, wall)
		}
	}
	return e
}

// The default smoke test runs the smallest workload, untraced and traced,
// so that `go test` stays under five seconds; BENCH_SMOKE=all runs all five
// (about a minute: a fig7 pass is 273 simulations however small).
func allWorkloads(t *testing.T) {
	t.Helper()
	if os.Getenv("BENCH_SMOKE") != "all" {
		t.Skip("set BENCH_SMOKE=all to smoke-test every workload")
	}
}

func TestSmoke(t *testing.T) {
	smoke(t, "core1_stall", 7, false)
	e := smoke(t, "core1_stall", 7, true)
	for _, name := range []string{
		"pipeline.tick_ns_per_cycle", "coherence.tick_ns_per_cycle", "pipeline.noretire_cycle_frac",
		"core.new_ms", "checkpoint.capture_ms", "checkpoint.restore_ms", "speckey.key_us",
		"simcache.disk_put_ms", "trace.gen_ns_per_inst", "sim.digest", "host.speed_factor",
	} {
		if e.led.vals[name].v <= 0 {
			t.Errorf("traced run left %s at %v", name, e.led.vals[name].v)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := e.tr.write(path, e.workload, e.seed); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) != len(e.tr.spans) {
		t.Errorf("span file does not round-trip: %v", err)
	}
}

func TestSmokeCoreWorkloads(t *testing.T) {
	allWorkloads(t)
	digests := make(map[string]float64)
	for _, name := range []string{"core1_busy", "core1_stall", "core8_sharing"} {
		digests[name] = smoke(t, name, 7, false).led.vals["sim.digest"].v
	}
	// Another seed runs the jobs in another order and must read the same
	// simulated statistics.
	if got := smoke(t, "core1_stall", 8, false).led.vals["sim.digest"].v; got != digests["core1_stall"] {
		t.Errorf("core1_stall: sim.digest %v under seed 8, %v under seed 7", got, digests["core1_stall"])
	}
}

func TestSmokeFig7Workloads(t *testing.T) {
	allWorkloads(t)
	smoke(t, "fig7_warmfork", 7, false)
	e := smoke(t, "fig7_fleet3", 7, true)
	if got := e.led.vals["fleet.executed_total"].v; got != 273 {
		t.Errorf("fleet executed %v jobs, want 273", got)
	}
	if got := e.led.vals["service.peer_hits"].v; got != 546 {
		t.Errorf("fleet served %v peer hits, want 546", got)
	}
}
