// Command pltrace inspects the synthetic workload generators: it dumps the
// first instructions of a proxy's stream, summarizes its instruction mix
// and memory behaviour, and records/replays binary trace files.
//
// Usage:
//
//	pltrace -bench bwaves_r -n 20                 # dump the first 20 micro-ops
//	pltrace -bench fft -core 3 -stats             # mix statistics for core 3
//	pltrace -bench mcf_r -record mcf.pltr -n 100000
//	pltrace -replay mcf.pltr -stats               # inspect a recorded trace
package main

import (
	"flag"
	"fmt"
	"os"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
	"pinnedloads/internal/tracefile"
)

func main() {
	var (
		bench  = flag.String("bench", "gcc_r", "benchmark proxy name")
		n      = flag.Int("n", 0, "dump the first n instructions")
		core   = flag.Int("core", 0, "core whose stream to inspect")
		seed   = flag.Uint64("seed", 1, "workload seed")
		stats  = flag.Bool("stats", false, "summarize mix and footprint over 100k instructions")
		record = flag.String("record", "", "record the workload to a binary trace file")
		replay = flag.String("replay", "", "inspect a recorded trace file instead of a generator")
	)
	flag.Parse()
	if *n < 0 {
		fmt.Fprintf(os.Stderr, "pltrace: -n %d: want a count of at least 0\n", *n)
		os.Exit(2)
	}

	var src trace.Source
	if *replay != "" {
		tr, err := tracefile.Load(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pltrace: %v\n", err)
			os.Exit(1)
		}
		src = tr
	} else {
		p := trace.ByName(*bench)
		if p == nil {
			fmt.Fprintf(os.Stderr, "pltrace: unknown benchmark %q\n", *bench)
			os.Exit(1)
		}
		src = p
	}
	if *record != "" {
		count := *n
		if count == 0 {
			count = 100_000
		}
		tr := tracefile.Record(src, *seed, count)
		if err := tr.Save(*record); err != nil {
			fmt.Fprintf(os.Stderr, "pltrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d cores x up to %d instructions to %s\n",
			tr.Cores(), count, *record)
		return
	}
	gen := src.Generator(*core, *seed)

	for i := 0; i < *n; i++ {
		in := gen.Next()
		fmt.Printf("%6d: %s\n", i, in.String())
	}
	if !*stats {
		if *n == 0 {
			flag.Usage()
			os.Exit(2)
		}
		return
	}

	const limit = 100_000
	counts := map[isa.Op]int{}
	lines := map[uint64]bool{}
	mispredicts, branches, depLoads, loads, total := 0, 0, 0, 0, 0
	for i := 0; i < limit; i++ {
		in := gen.Next()
		if in.Op == isa.Halt {
			break
		}
		total++
		counts[in.Op]++
		switch in.Op {
		case isa.Branch:
			branches++
			if in.Mispredict {
				mispredicts++
			}
		case isa.Load:
			loads++
			lines[arch.LineAddr(in.Addr)] = true
			if in.Deps[0] != 0 {
				depLoads++
			}
		case isa.Store, isa.Lock:
			lines[arch.LineAddr(in.Addr)] = true
		}
	}
	fmt.Printf("%s (core %d, seed %d) over %d instructions:\n", src.Name(), *core, *seed, total)
	for _, op := range []isa.Op{isa.ALU, isa.FALU, isa.Load, isa.Store, isa.Branch, isa.Lock, isa.Fence, isa.Barrier} {
		if counts[op] > 0 {
			fmt.Printf("  %-8s %6.2f%%\n", op, 100*float64(counts[op])/float64(total))
		}
	}
	if branches > 0 {
		fmt.Printf("  branch mispredict rate: %.2f%%\n", 100*float64(mispredicts)/float64(branches))
	}
	if loads > 0 {
		fmt.Printf("  loads with in-flight address producers: %.1f%%\n", 100*float64(depLoads)/float64(loads))
	}
	fmt.Printf("  distinct lines touched: %d (~%d KB)\n", len(lines), len(lines)*arch.LineBytes/1024)
}
