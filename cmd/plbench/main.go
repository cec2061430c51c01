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
	"strings"
	"time"

	"pinnedloads/internal/experiments"
	"pinnedloads/internal/fleet"
)

func main() {
	var (
		figs     = flag.String("fig", "", "comma-separated figures to regenerate (1,2,7,8,9)")
		secs     = flag.String("sec", "", "comma-separated sections (9.1.3, 9.2.1, 9.2.2, 9.2.3, 9.2.4)")
		tables   = flag.String("table", "", "tables to print (1)")
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

	want := func(list, item string) bool {
		if *all {
			return true
		}
		for _, f := range strings.Split(list, ",") {
			if strings.TrimSpace(f) == item {
				return true
			}
		}
		return false
	}

	ran := false
	failed := false
	section := func(fn func() error) {
		ran = true
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
			failed = true
			return
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	// show prints a finished experiment, its optional chart rendering, and
	// its optional CSV file.
	show := func(result fmt.Stringer, csvName string) {
		fmt.Println(result)
		if *chart {
			if c, ok := result.(experiments.Charter); ok {
				fmt.Println(c.Chart())
			}
		}
		if csvName == "" || *csvDir == "" {
			return
		}
		if path, err := experiments.WriteCSV(*csvDir, csvName, result); err != nil {
			fmt.Fprintf(os.Stderr, "plbench: csv: %v\n", err)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	if want(*tables, "1") {
		section(func() error {
			fmt.Println(experiments.ArchTable())
			fmt.Println(experiments.HardwareTable())
			return nil
		})
	}
	if want(*figs, "1") {
		section(func() error {
			f, err := experiments.RunFigure1(runner)
			if err != nil {
				return err
			}
			show(f, "figure1")
			return nil
		})
	}
	if want(*figs, "2") {
		section(func() error {
			f, err := experiments.RunFigure2(runner)
			if err != nil {
				return err
			}
			show(f, "")
			return nil
		})
	}
	if want(*figs, "7") {
		section(func() error {
			f, err := experiments.RunCPIFigure(runner, "Figure 7 (SPEC17)", "SPEC17")
			if err != nil {
				return err
			}
			show(f, "figure7")
			return nil
		})
	}
	if want(*figs, "8") {
		section(func() error {
			f, err := experiments.RunCPIFigure(runner, "Figure 8 (SPLASH2+PARSEC)", "SPLASH2", "PARSEC")
			if err != nil {
				return err
			}
			show(f, "figure8")
			return nil
		})
	}
	if want(*figs, "9") {
		section(func() error {
			f, err := experiments.RunFigure9(runner)
			if err != nil {
				return err
			}
			show(f, "figure9")
			return nil
		})
	}
	if want(*secs, "9.1.3") {
		section(func() error {
			f, err := experiments.RunTraffic(runner)
			if err != nil {
				return err
			}
			show(f, "traffic")
			return nil
		})
	}
	if want(*secs, "9.2.1") {
		section(func() error {
			f, err := experiments.RunCSTStudy(runner)
			if err != nil {
				return err
			}
			show(f, "")
			return nil
		})
	}
	if want(*secs, "9.2.2") {
		section(func() error {
			f, err := experiments.RunCPTStudy(runner)
			if err != nil {
				return err
			}
			show(f, "")
			return nil
		})
	}
	if want(*secs, "9.2.3") {
		section(func() error {
			f, err := experiments.RunWdStudy(runner)
			if err != nil {
				return err
			}
			show(f, "wd_study")
			return nil
		})
	}
	if want(*secs, "9.2.4") {
		section(func() error {
			fmt.Println(experiments.HardwareTable())
			return nil
		})
	}
	if *security || *all {
		section(func() error {
			m, err := experiments.RunSecurityMatrix(params.Seed)
			if err != nil {
				return err
			}
			fmt.Println(m)
			return nil
		})
	}

	if failed {
		os.Exit(1)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// buildRemote resolves the -server flag into a RemoteRunner: nil (local
// execution) or a fleet over the listed backends, be it one or several.
func buildRemote(server string) (experiments.RemoteRunner, error) {
	if server == "" {
		return nil, nil
	}
	return fleet.New(fleet.Options{Backends: fleet.ParseBackends(server)})
}
