// Command plsim runs one simulation and prints its statistics.
//
// Usage:
//
//	plsim -bench mcf_r -scheme fence -variant ep
//	plsim -bench fft -scheme stt -variant comp -measure 50000 -counters
//	plsim -bench ocean_cp -variant ep -trace-out run.json      # open in Perfetto
//	plsim -bench gcc_r -metrics-interval 5000                  # periodic snapshots
//	plsim -bench fft -checkpoint-out run.ckpt                  # periodic checkpoints
//	plsim -bench fft -resume run.ckpt                          # continue a killed run
//	plsim -cpuprofile cpu.pprof -memprofile mem.pprof ...
//	plsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"pinnedloads"
	"pinnedloads/internal/checkpoint"
	"pinnedloads/internal/defense"
)

func main() {
	var (
		bench    = flag.String("bench", "gcc_r", "benchmark proxy name")
		scheme   = flag.String("scheme", "fence", "defense scheme: "+defense.SchemeNames())
		variant  = flag.String("variant", "comp", "configuration: "+defense.VariantNames())
		consist  = flag.String("consistency", "tso", "memory consistency model: "+defense.ConsistencyNames())
		warmup   = flag.Int64("warmup", 0, "warmup instructions per core")
		measure  = flag.Int64("measure", 0, "measured instructions per core")
		seed     = flag.Uint64("seed", 1, "workload seed")
		baseline = flag.Bool("baseline", false, "also run Unsafe and report the normalized overhead")
		counters = flag.Bool("counters", false, "dump all event counters")
		asJSON   = flag.Bool("json", false, "emit the result as JSON")
		list     = flag.Bool("list", false, "list available benchmark proxies")

		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON file (open in chrome://tracing or Perfetto)")
		traceBuf   = flag.Int("trace-buf", 1<<18, "event ring-buffer capacity for -trace-out (oldest events drop when full)")
		metricsInt = flag.Int64("metrics-interval", 0, "capture a counter snapshot every N cycles (0 = off)")
		ckptOut    = flag.String("checkpoint-out", "", "write periodic checkpoints to this file (atomically replaced each interval)")
		ckptEvery  = flag.Int64("checkpoint-every", 1_000_000, "cycles between checkpoints for -checkpoint-out")
		resumeFrom = flag.String("resume", "", "resume the run from a checkpoint file written by -checkpoint-out")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal("%v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("%v", err)
			}
		}()
	}

	if *list {
		for _, suite := range []string{"SPEC17", "SPLASH2", "PARSEC"} {
			var names []string
			for _, p := range suiteProfiles(suite) {
				names = append(names, p.BenchName)
			}
			sort.Strings(names)
			fmt.Printf("%s: %s\n", suite, strings.Join(names, " "))
		}
		return
	}

	pol, err := defense.ParsePolicy(*scheme, *variant, *consist, nil)
	if err != nil {
		fatal("%v", err)
	}
	spec := pinnedloads.RunSpec{
		Benchmark: *bench, Scheme: pol.Scheme, Variant: pol.Variant, Consistency: pol.Consistency,
		Warmup: *warmup, Measure: *measure, Seed: *seed,
		MetricsInterval: *metricsInt,
	}
	// The Unsafe baseline is the same run under another scheme, and only
	// that: it writes no checkpoint, resumes none and records no trace.
	base := spec
	base.Scheme, base.Variant = pinnedloads.Unsafe, pinnedloads.Comp
	if *traceOut != "" {
		spec.TraceBuffer = *traceBuf
	}
	if *ckptOut != "" {
		spec.CheckpointEvery = *ckptEvery
		spec.CheckpointSink = func(b []byte) error {
			return checkpoint.WriteFile(*ckptOut, b)
		}
	}
	if *resumeFrom != "" {
		b, err := os.ReadFile(*resumeFrom)
		if err != nil {
			fatal("%v", err)
		}
		meta, err := pinnedloads.CheckpointInfo(b)
		if err != nil {
			fatal("resume: %v", err)
		}
		spec.ResumeFrom = b
		fmt.Fprintf(os.Stderr, "resuming run %s from cycle %d\n", meta.Identity, meta.Cycle)
	}
	res, err := pinnedloads.Run(spec)
	if err != nil {
		fatal("%v", err)
	}
	cores := 1
	if p := pinnedloads.Benchmark(*bench); p != nil && p.Cores() > cores {
		cores = p.Cores()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal("%v", err)
		}
		if err := pinnedloads.WriteChromeTrace(f, res.Events, cores); err != nil {
			fatal("%v", err)
		}
		if err := f.Close(); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events, %d dropped); open in chrome://tracing or https://ui.perfetto.dev\n",
			*traceOut, len(res.Events), res.EventsLost)
	}
	if *asJSON {
		out := map[string]any{
			"benchmark":   *bench,
			"scheme":      pol.Scheme.String(),
			"variant":     pol.Variant.String(),
			"consistency": pol.Consistency.String(),
			"cpi":         res.CPI,
			"cycles":      res.Cycles,
			"insts":       res.Insts,
		}
		if *counters {
			cm := map[string]uint64{}
			for _, name := range res.Counters.Names() {
				cm[name] = res.Counters.Get(name)
			}
			out["counters"] = cm
		}
		if len(res.Snapshots) > 0 {
			out["snapshots"] = res.Snapshots
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal("%v", err)
		}
		return
	}
	fmt.Printf("%s %s: CPI=%.4f (%d cycles / %d insts per core)\n",
		*bench, pol, res.CPI, res.Cycles, res.Insts)

	if *baseline {
		b, err := pinnedloads.Run(base)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s Unsafe: CPI=%.4f; normalized CPI %.3f, execution overhead %.1f%%\n",
			*bench, b.CPI, res.CPI/b.CPI, pinnedloads.Overhead(res.CPI, b.CPI))
	}
	if *counters {
		fmt.Print(res.Counters.String())
	}
	for _, snap := range res.Snapshots {
		fmt.Printf("@%d retired=+%d squashed=+%d l1.misses=+%d pins=+%d defers=+%d\n",
			snap.Cycle, snap.Delta["retired"], snap.Delta["squashed_insts"],
			snap.Delta["l1.misses"], snap.Delta["pin.pinned"], snap.Delta["coh.defers"])
	}
}

func suiteProfiles(suite string) []*pinnedloads.Profile {
	switch suite {
	case "SPEC17":
		return pinnedloads.SPEC17()
	case "SPLASH2":
		return pinnedloads.SPLASH2()
	default:
		return pinnedloads.PARSEC()
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "plsim: "+format+"\n", args...)
	os.Exit(1)
}
