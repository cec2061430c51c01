package arch

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperConfigValid(t *testing.T) {
	for _, cores := range []int{1, 2, 8} {
		cfg := PaperConfig(cores)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("PaperConfig(%d): %v", cores, err)
		}
	}
}

func TestPaperConfigTable1(t *testing.T) {
	cfg := PaperConfig(8)
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"IssueWidth", cfg.IssueWidth, 8},
		{"ROBEntries", cfg.ROBEntries, 192},
		{"LQEntries", cfg.LQEntries, 62},
		{"SQEntries", cfg.SQEntries, 32},
		{"L1Sets", cfg.L1Sets, 64},
		{"L1Ways", cfg.L1Ways, 8},
		{"L1HitCycles", cfg.L1HitCycles, 2},
		{"L1Ports", cfg.L1Ports, 3},
		{"LLCSlices", cfg.LLCSlices, 8},
		{"LLCSets", cfg.LLCSets, 2048},
		{"LLCWays", cfg.LLCWays, 16},
		{"LLCHitCycles", cfg.LLCHitCycles, 8},
		{"DRAMCycles", cfg.DRAMCycles, 100},
		{"MeshCols", cfg.MeshCols, 4},
		{"MeshRows", cfg.MeshRows, 2},
		{"L1CSTEntries", cfg.L1CSTEntries, 12},
		{"L1CSTRecords", cfg.L1CSTRecords, 8},
		{"DirCSTEntries", cfg.DirCSTEntries, 40},
		{"DirCSTRecords", cfg.DirCSTRecords, 2},
		{"Wd", cfg.Wd, 2},
		{"CPTEntries", cfg.CPTEntries, 4},
		{"LQIDTagBits", cfg.LQIDTagBits, 24},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	// Geometry sanity: 64 sets x 8 ways x 64 B = 32 KB L1; 2048 x 16 x 64 = 2 MB slice.
	if cfg.L1Sets*cfg.L1Ways*LineBytes != 32*1024 {
		t.Error("L1 geometry is not 32 KB")
	}
	if cfg.LLCSets*cfg.LLCWays*LineBytes != 2*1024*1024 {
		t.Error("LLC slice geometry is not 2 MB")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		substr string
	}{
		{"cores", func(c *Config) { c.Cores = 0 }, "Cores"},
		{"width", func(c *Config) { c.IssueWidth = 0 }, "IssueWidth"},
		{"rob", func(c *Config) { c.ROBEntries = 0 }, "ROB"},
		{"wb", func(c *Config) { c.WriteBufferEntries = 0 }, "WriteBuffer"},
		{"l1geom", func(c *Config) { c.L1Ways = 0 }, "L1 geometry"},
		{"l1pow2", func(c *Config) { c.L1Sets = 48 }, "power of two"},
		{"mshr", func(c *Config) { c.L1MSHRs = 0 }, "MSHR"},
		{"llcgeom", func(c *Config) { c.LLCWays = 0 }, "LLC geometry"},
		{"llcpow2", func(c *Config) { c.LLCSets = 100 }, "LLCSets"},
		{"meshcores", func(c *Config) { c.Cores = 9 }, "mesh"},
		{"meshslices", func(c *Config) { c.LLCSlices = 9 }, "mesh"},
		{"wd", func(c *Config) { c.Wd = 0 }, "Wd"},
		{"wdshare", func(c *Config) { c.Wd = 3 }, "associativity"},
		{"lqtag", func(c *Config) { c.LQIDTagBits = 4 }, "LQIDTagBits"},
		{"cpt", func(c *Config) { c.CPTEntries = -1 }, "CPT"},
		{"meshgeom", func(c *Config) { c.MeshCols, c.MeshRows = -4, -2 }, "mesh geometry"},
		{"hopneg", func(c *Config) { c.HopCycles = -1 }, "latencies"},
		{"dramneg", func(c *Config) { c.DRAMCycles = -1 }, "latencies"},
		{"l1hitneg", func(c *Config) { c.L1HitCycles = -2 }, "latencies"},
		{"dram", func(c *Config) { c.DRAMCycles = 1100 }, "longest message delay"},
		{"dramedge", func(c *Config) { c.DRAMCycles = MaxFabricSlots }, "longest message delay"},
		{"retry", func(c *Config) { c.WriteRetryBackoff = 2000 }, "longest message delay"},
		{"hop", func(c *Config) { c.HopCycles = 300 }, "longest message delay"},
		{"llchit", func(c *Config) { c.LLCHitCycles = 1020 }, "longest message delay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PaperConfig(8)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("error %q does not mention %q", err, tc.substr)
			}
		})
	}
}

// TestFabricSlots: the ring is the smallest power of two, at least 64, above
// the longest delay, and the longest accepted delay fills the format's slots.
func TestFabricSlots(t *testing.T) {
	for _, tc := range []struct {
		name          string
		mutate        func(*Config)
		longest, ring int
	}{
		{"paper", func(c *Config) {}, 100, 128},
		// 1 cycle at each of 4+2-1 routers, then the 8-cycle slice.
		{"mesh", func(c *Config) { c.DRAMCycles, c.WriteRetryBackoff = 1, 1 }, 13, 64},
		{"hops", func(c *Config) { c.HopCycles = 30 }, 158, 256},
		{"retry", func(c *Config) { c.WriteRetryBackoff = 200 }, 200, 256},
		{"dram127", func(c *Config) { c.DRAMCycles = 127 }, 127, 128},
		{"dram128", func(c *Config) { c.DRAMCycles = 128 }, 128, 256},
		{"dram1023", func(c *Config) { c.DRAMCycles = MaxFabricSlots - 1 }, MaxFabricSlots - 1, MaxFabricSlots},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PaperConfig(8)
			tc.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := cfg.LongestDelay(); got != tc.longest {
				t.Errorf("LongestDelay %d, want %d", got, tc.longest)
			}
			if got := cfg.FabricSlots(); got != tc.ring {
				t.Errorf("FabricSlots %d, want %d", got, tc.ring)
			}
		})
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0) != 0 || LineAddr(63) != 0 || LineAddr(64) != 1 || LineAddr(130) != 2 {
		t.Fatal("LineAddr arithmetic wrong")
	}
}

func TestMappingRanges(t *testing.T) {
	cfg := PaperConfig(8)
	if err := quick.Check(func(line uint64) bool {
		s := cfg.L1Set(line)
		sl := cfg.LLCSlice(line)
		st := cfg.LLCSet(line)
		return s >= 0 && s < cfg.L1Sets && sl >= 0 && sl < cfg.LLCSlices &&
			st >= 0 && st < cfg.LLCSets
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMappingDeterministic(t *testing.T) {
	cfg := PaperConfig(8)
	if cfg.LLCSlice(8) != cfg.LLCSlice(8) || cfg.L1Set(77) != cfg.L1Set(77) {
		t.Fatal("mapping not deterministic")
	}
	// Consecutive lines interleave across slices.
	if cfg.LLCSlice(0) == cfg.LLCSlice(1) {
		t.Fatal("consecutive lines map to the same slice")
	}
}
