package pinnedloads

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunSpec{}); err == nil || !strings.Contains(err.Error(), "Benchmark") {
		t.Fatalf("empty spec error = %v", err)
	}
	if _, err := Run(RunSpec{Benchmark: "no-such-bench"}); err == nil ||
		!strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("unknown benchmark error = %v", err)
	}
}

func TestRunDefaults(t *testing.T) {
	res, err := Run(RunSpec{Benchmark: "leela_r", Scheme: Unsafe, Warmup: 500, Measure: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 3000 || res.Cycles <= 0 || res.CPI <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Counters.Get("retired") == 0 {
		t.Fatal("counters empty")
	}
}

func TestRunCustomConfig(t *testing.T) {
	cfg := PaperConfig(1)
	cfg.Prefetch = false
	res, err := Run(RunSpec{Benchmark: "leela_r", Scheme: DOM, Variant: LP,
		Config: &cfg, Warmup: 500, Measure: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get("l1.prefetches") != 0 {
		t.Fatal("prefetcher ran although disabled")
	}
}

func TestRunInvalidConfig(t *testing.T) {
	// The last three once passed validation and panicked in the fabric or
	// the mesh at the first message.
	for _, mutate := range []func(*Config){
		func(c *Config) { c.ROBEntries = 0 },
		func(c *Config) { c.DRAMCycles = 1100 },
		func(c *Config) { c.WriteRetryBackoff = 2000 },
		func(c *Config) { c.HopCycles = -1 },
	} {
		cfg := PaperConfig(1)
		mutate(&cfg)
		if _, err := Run(RunSpec{Benchmark: "mcf_r", Config: &cfg, Warmup: 500, Measure: 2000}); err == nil {
			t.Fatalf("invalid config accepted: %+v", cfg)
		}
	}
}

func TestSuiteAccessors(t *testing.T) {
	if len(SPEC17()) != 21 || len(SPLASH2()) != 13 || len(PARSEC()) != 10 {
		t.Fatal("suite sizes wrong")
	}
	if Benchmark("mcf_r") == nil || Benchmark("nope") != nil {
		t.Fatal("Benchmark lookup wrong")
	}
}

// TestProfilesAreCopies checks that the profiles the library hands out are
// the caller's own: editing one, down to a kernel, leaves the registry and
// so every other run unchanged, and an unedited copy still counts as the
// registered proxy.
func TestProfilesAreCopies(t *testing.T) {
	for _, p := range []*Profile{Benchmark("mcf_r"), SPEC17()[10], SPLASH2()[0], PARSEC()[0]} {
		reg := trace.ByName(p.BenchName)
		if p == reg || !reflect.DeepEqual(p, reg) {
			t.Fatalf("%s: want an equal copy of the registry's profile", p.BenchName)
		}
		run := simrun.Run{Workload: p}
		if run.Resolve() != nil || !run.Registered() {
			t.Fatalf("%s: an unedited copy is not the registered proxy", p.BenchName)
		}
		p.LoadFrac++
		p.Kernels[0].Weight++
		if reg.LoadFrac == p.LoadFrac || reg.Kernels[0].Weight == p.Kernels[0].Weight {
			t.Fatalf("%s: editing a copy edited the registry", p.BenchName)
		}
		if run.Registered() {
			t.Fatalf("%s: an edited copy still counts as the registered proxy", p.BenchName)
		}
	}
}

func TestOverheadHelper(t *testing.T) {
	if got := Overhead(1.5, 1.0); got < 49.99 || got > 50.01 {
		t.Fatalf("Overhead = %v", got)
	}
}

func TestHardwareCostExport(t *testing.T) {
	cfg := PaperConfig(8)
	c := Cost(&cfg)
	if c.L1CSTBytes != 444 || c.DirCSTBytes != 370 {
		t.Fatalf("cost = %+v", c)
	}
}

// TestOrderingInvariants verifies the paper's headline qualitative results
// on one benchmark per suite at small scale: Comp >= LP >= EP-ish and
// pinned variants strictly better than Comp; Unsafe fastest.
func TestOrderingInvariants(t *testing.T) {
	for _, bench := range []string{"fotonik3d_r", "ocean_cp"} {
		cpi := map[Variant]float64{}
		spec := RunSpec{Benchmark: bench, Scheme: Fence, Warmup: 2000, Measure: 10000}
		unsafeRes, err := Run(RunSpec{Benchmark: bench, Scheme: Unsafe,
			Warmup: spec.Warmup, Measure: spec.Measure})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{Comp, LP, EP, Spectre} {
			spec.Variant = v
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			cpi[v] = res.CPI
		}
		if !(unsafeRes.CPI < cpi[Spectre] && cpi[Spectre] < cpi[EP] &&
			cpi[EP] < cpi[LP] && cpi[LP] < cpi[Comp]) {
			t.Fatalf("%s ordering violated: unsafe=%.3f spectre=%.3f ep=%.3f lp=%.3f comp=%.3f",
				bench, unsafeRes.CPI, cpi[Spectre], cpi[EP], cpi[LP], cpi[Comp])
		}
	}
}

// TestSchemeOrdering verifies Fence >= DOM >= STT under Comp for a
// miss-heavy benchmark, as in the paper.
func TestSchemeOrdering(t *testing.T) {
	cpi := map[Scheme]float64{}
	for _, s := range []Scheme{Fence, DOM, STT} {
		res, err := Run(RunSpec{Benchmark: "bwaves_r", Scheme: s, Variant: Comp,
			Warmup: 2000, Measure: 10000})
		if err != nil {
			t.Fatal(err)
		}
		cpi[s] = res.CPI
	}
	if !(cpi[Fence] > cpi[DOM] && cpi[DOM] > cpi[STT]) {
		t.Fatalf("scheme ordering violated: fence=%.3f dom=%.3f stt=%.3f",
			cpi[Fence], cpi[DOM], cpi[STT])
	}
}

func TestTraceRecordReplayAPI(t *testing.T) {
	path := t.TempDir() + "/leela.pltr"
	if err := RecordTrace(Benchmark("leela_r"), 1, 4000, path); err != nil {
		t.Fatal(err)
	}
	w, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Run(RunSpec{Benchmark: "leela_r", Scheme: Fence, Variant: EP,
		Warmup: 500, Measure: 2500})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := Run(RunSpec{Workload: w, Scheme: Fence, Variant: EP,
		Warmup: 500, Measure: 2500})
	if err != nil {
		t.Fatal(err)
	}
	if orig.Cycles != replay.Cycles {
		t.Fatalf("replay diverged: %d vs %d cycles", replay.Cycles, orig.Cycles)
	}
}

// TestRecordTraceRejectsNegativeCount: a negative count is an error, not a
// panic in the recorder, and writes no file.
func TestRecordTraceRejectsNegativeCount(t *testing.T) {
	path := t.TempDir() + "/neg.pltr"
	if err := RecordTrace(Benchmark("leela_r"), 1, -5, path); err == nil {
		t.Fatal("RecordTrace accepted a negative instruction count")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a rejected recording left a file: %v", err)
	}
}

// TestSeedRobustness guards against seed-lottery conclusions: the headline
// ordering must hold across several workload seeds.
func TestSeedRobustness(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		spec := RunSpec{Benchmark: "fotonik3d_r", Scheme: Fence,
			Seed: seed, Warmup: 2000, Measure: 8000}
		cpi := map[Variant]float64{}
		for _, v := range []Variant{Comp, EP} {
			spec.Variant = v
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			cpi[v] = res.CPI
		}
		if cpi[EP] >= cpi[Comp] {
			t.Fatalf("seed %d: EP (%.3f) not faster than Comp (%.3f)",
				seed, cpi[EP], cpi[Comp])
		}
	}
}
