// Command plctl is the command-line client for a plserved simulation
// service.
//
// Usage:
//
//	plctl -server http://127.0.0.1:8321 <command> [flags]
//
// Commands:
//
//	submit   submit a job; -wait blocks until it finishes
//	get      print a job's status by ID
//	wait     block until a job finishes, then print it
//	trace    download a done job's Chrome trace JSON
//	metrics  print the server's counters
//	cache    cache probe <speckey>: ask the backend's /v1/cache peering
//	         endpoint whether it holds the key locally; prints hit (with
//	         the entry's encoded size) or miss. Exits 0 on a hit, 2 on a
//	         miss — for debugging fleet cache peering per backend.
//	fleet    fleet-wide operations over a comma-separated -server list:
//	         fleet status | fleet metrics | fleet drain
//
// Examples:
//
//	plctl submit -bench mcf_r -scheme fence -variant ep -wait -csv
//	plctl submit -bench gcc_r -trace-buf 4096 -wait
//	plctl trace -o trace.json <job-id>
//	plctl get <job-id>
//	plctl cache probe <speckey>
//	plctl -server http://h1:8321,http://h2:8321 fleet status
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/fleet"
	"pinnedloads/internal/service"
	"pinnedloads/internal/service/client"
)

// Exit codes: 1 for generic failures, 3 when a waited-on job was lost to
// a backend restart (resubmit to continue — scripts branch on this).
const exitJobLost = 3

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "plctl: %v\n", err)
		var lost *client.JobLostError
		if errors.As(err, &lost) {
			os.Exit(exitJobLost)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("plctl", flag.ContinueOnError)
	server := global.String("server", "http://127.0.0.1:8321", "plserved base URL")
	global.Usage = usage(global)
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		global.Usage()
		return fmt.Errorf("missing command")
	}
	ctx := context.Background()
	cmd, rest := rest[0], rest[1:]
	if cmd == "fleet" {
		return cmdFleet(ctx, *server, rest)
	}
	addrs := fleet.ParseBackends(*server)
	if len(addrs) != 1 {
		return fmt.Errorf("%s wants exactly one -server URL (use the fleet command for several)", cmd)
	}
	c := client.New(addrs[0])
	switch cmd {
	case "submit":
		return cmdSubmit(ctx, c, rest)
	case "get":
		return cmdGet(ctx, c, rest)
	case "wait":
		return cmdWait(ctx, c, rest)
	case "trace":
		return cmdTrace(ctx, c, rest)
	case "metrics":
		return cmdMetrics(ctx, c)
	case "cache":
		return cmdCache(ctx, c, rest)
	default:
		global.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// exitCacheMiss is the documented exit code for `cache probe` on a miss,
// so scripts can branch on presence without parsing output.
const exitCacheMiss = 2

// cmdCache handles the cache subcommands; today only probe, the operator
// view into fleet cache peering: it asks one backend's /v1/cache endpoint
// (HEAD, no transfer) whether the key is in its local tiers.
func cmdCache(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 || args[0] != "probe" {
		return fmt.Errorf("cache: want `cache probe <speckey>`")
	}
	key, err := jobID("cache probe", args[1:])
	if err != nil {
		return err
	}
	hit, size, err := c.CacheProbe(ctx, key)
	if err != nil {
		return err
	}
	if !hit {
		fmt.Printf("miss %s\n", key)
		os.Exit(exitCacheMiss)
	}
	fmt.Printf("hit %s bytes=%d\n", key, size)
	return nil
}

func usage(fs *flag.FlagSet) func() {
	return func() {
		fmt.Fprintln(os.Stderr, "usage: plctl [-server URL[,URL...]] <submit|get|wait|trace|metrics|cache|fleet> [flags]")
		fs.PrintDefaults()
	}
}

// cmdFleet handles the fleet subcommands: status, metrics, drain. The
// -server flag may list several backends; a single URL is a one-backend
// fleet, which keeps the commands useful against a lone daemon too.
func cmdFleet(ctx context.Context, server string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("fleet: want a subcommand (status, metrics, drain)")
	}
	f, err := fleet.New(fleet.Options{Backends: fleet.ParseBackends(server)})
	if err != nil {
		return err
	}
	switch args[0] {
	case "status":
		sts := f.Status(ctx)
		bad := 0
		for _, st := range sts {
			if !st.Reach {
				bad++
			}
		}
		if err := printJSON(sts); err != nil {
			return err
		}
		if bad > 0 {
			return fmt.Errorf("fleet: %d of %d backends unreachable", bad, len(sts))
		}
		return nil
	case "metrics":
		m, err := f.Metrics(ctx)
		if perr := printJSON(m); perr != nil {
			return perr
		}
		return err
	case "drain":
		if err := f.Drain(ctx); err != nil {
			return err
		}
		fmt.Printf("draining %d backends\n", len(f.Addrs()))
		return nil
	default:
		return fmt.Errorf("fleet: unknown subcommand %q (want status, metrics, drain)", args[0])
	}
}

func cmdSubmit(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	var (
		bench    = fs.String("bench", "", "benchmark proxy name (required)")
		scheme   = fs.String("scheme", "unsafe", "defense scheme ("+defense.SchemeNames()+")")
		variant  = fs.String("variant", "comp", "variant ("+defense.VariantNames()+")")
		consist  = fs.String("consistency", "", "memory consistency model ("+defense.ConsistencyNames()+"; default tso)")
		conds    = fs.String("conds", "", "comma-separated VP conditions ("+defense.CondNames()+")")
		seed     = fs.Uint64("seed", 0, "workload seed (0 = default)")
		warmup   = fs.Int64("warmup", 0, "warmup instructions per core (0 = default)")
		measure  = fs.Int64("measure", 0, "measured instructions per core (0 = default)")
		traceBuf = fs.Int("trace-buf", 0, "event trace ring size (0 = no tracing)")
		wait     = fs.Bool("wait", false, "block until the job finishes")
		asCSV    = fs.Bool("csv", false, "with -wait: print the result as CSV instead of JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bench == "" {
		return fmt.Errorf("submit: -bench is required")
	}
	spec := service.JobSpec{
		Benchmark:   *bench,
		Scheme:      *scheme,
		Variant:     *variant,
		Consistency: *consist,
		Seed:        *seed,
		Warmup:      *warmup,
		Measure:     *measure,
		TraceBuffer: *traceBuf,
	}
	if *conds != "" {
		spec.Conds = strings.Split(*conds, ",")
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if *wait && !st.State.Terminal() {
		if st, err = c.Wait(ctx, st.ID); err != nil {
			return err
		}
	}
	if st.State == service.StateFailed {
		return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	if *asCSV && st.State == service.StateDone {
		os.Stdout.Write(st.Result.MarshalCSV())
		return nil
	}
	return printJSON(st)
}

func jobID(name string, args []string) (string, error) {
	if len(args) != 1 || args[0] == "" {
		return "", fmt.Errorf("%s: exactly one job ID expected", name)
	}
	return args[0], nil
}

func cmdGet(ctx context.Context, c *client.Client, args []string) error {
	id, err := jobID("get", args)
	if err != nil {
		return err
	}
	st, err := c.Get(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdWait(ctx context.Context, c *client.Client, args []string) error {
	id, err := jobID("wait", args)
	if err != nil {
		return err
	}
	st, err := c.Wait(ctx, id)
	if err != nil {
		return err
	}
	if st.State == service.StateFailed {
		return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	return printJSON(st)
}

func cmdTrace(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	out := fs.String("o", "", "write the trace to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id, err := jobID("trace", fs.Args())
	if err != nil {
		return err
	}
	data, err := c.Trace(ctx, id)
	if err != nil {
		return err
	}
	if *out != "" {
		return os.WriteFile(*out, data, 0o644)
	}
	_, err = os.Stdout.Write(data)
	return err
}

func cmdMetrics(ctx context.Context, c *client.Client) error {
	m, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s=%d\n", n, m[n])
	}
	return nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
