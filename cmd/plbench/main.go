// Command plbench regenerates the paper's tables and figures.
//
// Usage:
//
//	plbench -fig 7                # Figure 7 (SPEC17 normalized CPI)
//	plbench -fig 1,2,7,8,9        # several figures
//	plbench -sec 9.1.3,9.2.1      # section studies
//	plbench -table 1              # architecture + hardware tables
//	plbench -security             # security matrix (leakage oracle)
//	plbench -all                  # everything
//	plbench -quick -fig 7         # fast, low-precision sizing
//	plbench -workers 8 -all       # bound simulation parallelism
//	plbench -measure 100000 -warmup 20000 -seed 2 ...
//	plbench -server http://host:8321 -fig 7   # offload runs to plserved
//	plbench -server http://h1:8321,http://h2:8321 -fig 7   # ...to a fleet
//
// The selectors name entries of experiments.Catalog, which this command
// loops over; an id no entry carries is an error (exit 2, nothing run).
// Simulations within each experiment run on a worker pool (-workers,
// default: every available CPU); results are bit-identical to a
// sequential -workers 1 run. With several backends (a comma-separated
// -server list) jobs shard by content key with automatic failover.
// Results print as text tables; EXPERIMENTS.md records a reference run. A
// failed simulation aborts with a non-zero exit after the remaining
// experiments have been attempted.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"pinnedloads/internal/experiments"
	"pinnedloads/internal/fleet"
)

func main() {
	var (
		figs     = flag.String("fig", "", "comma-separated figures to regenerate ("+strings.Join(ids("fig"), ",")+")")
		secs     = flag.String("sec", "", "comma-separated sections ("+strings.Join(ids("sec"), ",")+")")
		tables   = flag.String("table", "", "tables to print ("+strings.Join(ids("table"), ",")+")")
		security = flag.Bool("security", false, "run the security matrix (adversarial kernels x defense policies)")
		all      = flag.Bool("all", false, "regenerate everything")
		quick    = flag.Bool("quick", false, "use fast, low-precision simulation sizing")
		warmup   = flag.Int64("warmup", 0, "override warmup instructions per core")
		measure  = flag.Int64("measure", 0, "override measured instructions per core")
		seed     = flag.Uint64("seed", 0, "override workload seed")
		workers  = flag.Int("workers", 0, "concurrent simulations per experiment (0 = all CPUs)")
		verbose  = flag.Bool("v", false, "print each simulation as it completes")
		csvDir   = flag.String("csv", "", "also write experiment data as CSV files into this directory")
		server   = flag.String("server", "", "offload benchmark simulations to plserved; comma-separate several URLs for a fleet")
		chart    = flag.Bool("chart", false, "render figures as terminal bar charts too")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	picked, err := pick(*all, *security, map[string]string{"fig": *figs, "sec": *secs, "table": *tables})
	if err != nil {
		fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
		os.Exit(2)
	}
	if len(picked) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
			}
		}()
	}

	params := experiments.DefaultParams()
	if *quick {
		params = experiments.QuickParams()
	}
	if *warmup > 0 {
		params.Warmup = *warmup
	}
	if *measure > 0 {
		params.Measure = *measure
	}
	if *seed > 0 {
		params.Seed = *seed
	}
	runner := experiments.NewRunner(params)
	runner.Workers = *workers
	remote, err := buildRemote(*server)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
		os.Exit(1)
	}
	runner.Remote = remote
	if *verbose {
		runner.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	failed := false
	for _, e := range picked {
		start := time.Now()
		result, err := e.Run(runner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
			failed = true
			continue
		}
		fmt.Println(result)
		if c, ok := result.(experiments.Charter); ok && *chart {
			fmt.Println(c.Chart())
		}
		if e.CSV != "" && *csvDir != "" {
			if path, err := experiments.WriteCSV(*csvDir, e.CSV, result); err != nil {
				fmt.Fprintf(os.Stderr, "plbench: csv: %v\n", err)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}
	if failed {
		os.Exit(1)
	}
}

// ids lists the catalog's IDs of one selector kind, in catalog order.
func ids(kind string) []string {
	var out []string
	for _, e := range experiments.Catalog {
		if e.Kind == kind {
			out = append(out, e.ID)
		}
	}
	return out
}

// pick resolves the selector flags against the catalog, keeping catalog
// order. lists maps a selector kind to its flag's comma-separated IDs; an ID
// that names no entry of its kind is an error, so a typo cannot silently
// drop a figure.
func pick(all, security bool, lists map[string]string) ([]experiments.Experiment, error) {
	asked := map[string][]string{}
	for _, kind := range []string{"fig", "sec", "table"} {
		valid := ids(kind)
		for _, id := range strings.Split(lists[kind], ",") {
			if id = strings.TrimSpace(id); id == "" {
				continue
			}
			if !slices.Contains(valid, id) {
				return nil, fmt.Errorf("-%s: unknown id %q (want one of %s)", kind, id, strings.Join(valid, ", "))
			}
			asked[kind] = append(asked[kind], id)
		}
	}
	var picked []experiments.Experiment
	for _, e := range experiments.Catalog {
		if all || e.Kind == "security" && security || slices.Contains(asked[e.Kind], e.ID) {
			picked = append(picked, e)
		}
	}
	return picked, nil
}

// buildRemote resolves the -server flag into a RemoteRunner: nil (local
// execution) or a fleet over the listed backends, be it one or several.
func buildRemote(server string) (experiments.RemoteRunner, error) {
	if server == "" {
		return nil, nil
	}
	return fleet.New(fleet.Options{Backends: fleet.ParseBackends(server)})
}
