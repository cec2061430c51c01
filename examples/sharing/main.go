// Sharing: run an 8-core lock- and barrier-synchronized workload under
// Pinned Loads and inspect the coherence-protocol side of the design: how
// often writes are deferred by pinned lines, how often they must retry with
// GetX*, and how rarely evictions are denied — the paper's Section 9.1.3
// traffic analysis for one application.
//
//	go run ./examples/sharing [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	"pinnedloads"
)

func main() {
	bench := "radiosity" // lock-heavy SPLASH2 proxy
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	p := pinnedloads.Benchmark(bench)
	if p == nil {
		log.Fatalf("unknown benchmark %q", bench)
	}
	fmt.Printf("Coherence behaviour of %s (%d cores) under Fence + Early Pinning\n\n",
		bench, p.Cores())

	res, err := pinnedloads.Run(pinnedloads.RunSpec{
		Benchmark: bench,
		Scheme:    pinnedloads.Fence, Variant: pinnedloads.EP,
		Warmup: 5_000, Measure: 25_000,
	})
	if err != nil {
		log.Fatal(err)
	}

	insts := float64(res.Counters.Get("retired"))
	perM := func(name string) float64 {
		// The conversion rounds the rate, so that no platform fuses the
		// product into a sum of rates.
		return float64(float64(res.Counters.Get(name)) / insts * 1e6)
	}

	fmt.Printf("CPI:                       %.3f\n", res.CPI)
	fmt.Printf("loads pinned:              %d\n", res.Counters.Get("pin.pinned"))
	fmt.Printf("invalidations deferred:    %d\n", res.Counters.Get("coh.defers"))
	fmt.Printf("retried writes / Minst:    %.2f   (paper worst case: 14.8)\n",
		perM("coh.retried_writes"))
	fmt.Printf("retried evictions / Minst: %.3f   (paper worst case: 0.05)\n",
		perM("coh.retried_evictions"))
	fmt.Printf("CPT overflows:             %d\n", res.Counters.Get("cpt.overflow"))
	fmt.Printf("MCV squashes:              %d\n", res.Counters.Get("squash.mcv"))
	fmt.Printf("stores merged:             %d\n", res.Counters.Get("stores.merged"))

	fmt.Println("\nEven on a lock-heavy workload, retried writes are a tiny fraction of")
	fmt.Println("all stores and evictions almost never retry: pinning windows are short")
	fmt.Println("because pinned loads are guaranteed to retire (paper Section 9.1.3).")
}
