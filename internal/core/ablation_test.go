package core

import (
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/trace"
)

// runCfg executes a short run of the benchmark under the config/policy.
func runCfg(t *testing.T, cfg arch.Config, pol defense.Policy, bench string) Result {
	t.Helper()
	return runFor(t, cfg, pol, trace.ByName(bench), 1, 1500, 8000)
}

// TestPrefetcherAblation checks that disabling the prefetcher hurts a
// streaming workload.
func TestPrefetcherAblation(t *testing.T) {
	pol := defense.Policy{Scheme: defense.Unsafe}
	on := runCfg(t, arch.PaperConfig(1), pol, "cactuBSSN_r")
	cfg := arch.PaperConfig(1)
	cfg.Prefetch = false
	off := runCfg(t, cfg, pol, "cactuBSSN_r")
	if off.CPI <= on.CPI {
		t.Fatalf("prefetcher did not help a streaming app: on %.3f, off %.3f",
			on.CPI, off.CPI)
	}
}

// TestWdOneStillCorrect checks EP with the minimum directory reservation.
func TestWdOneStillCorrect(t *testing.T) {
	cfg := arch.PaperConfig(8)
	cfg.Wd = 1
	pol := defense.Policy{Scheme: defense.Fence, Variant: defense.EP}
	res := runCfg(t, cfg, pol, "fft")
	if res.Counters.Get("pin.pinned") == 0 {
		t.Fatal("no pinning with Wd=1")
	}
}

// TestSmallCachesStillCorrect stresses eviction-denial paths with a tiny
// hierarchy under every pinned variant.
func TestSmallCachesStillCorrect(t *testing.T) {
	for _, v := range []defense.Variant{defense.LP, defense.EP} {
		cfg := arch.PaperConfig(8)
		cfg.L1Sets = 8
		cfg.L1Ways = 2
		cfg.LLCSets = 32
		cfg.L1CSTEntries = 4
		cfg.L1CSTRecords = 2
		pol := defense.Policy{Scheme: defense.DOM, Variant: v}
		res := runCfg(t, cfg, pol, "ocean_cp")
		if res.CPI <= 0 {
			t.Fatalf("%v: bad CPI", v)
		}
	}
}
