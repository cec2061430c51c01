package core

import (
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/trace"
)

// TestInvalidWaysAreZero steps eight-core machines through LLC evictions,
// recalls and (under RCP) SpecUndo removals of spec-born lines, and checks
// every 256 cycles that no invalid way holds state and that the derived
// occupancy counts match the valid bits: the checkpoint leaves invalid ways
// out, which is lossless only while that holds. The LLC is shrunk to 8 sets
// a slice, fewer lines than the eight L1s hold between them, so that sets
// overflow and held lines are recalled within the run.
func TestInvalidWaysAreZero(t *testing.T) {
	cycles := int64(24_000)
	if testing.Short() || raceEnabled {
		cycles = 8_000
	}
	for _, bench := range []string{"ocean_cp", "canneal"} {
		for _, pol := range []defense.Policy{
			{Scheme: defense.DOM, Variant: defense.EP},
			{Scheme: defense.RCP, Variant: defense.Comp},
			{Scheme: defense.Fence, Consistency: defense.RC},
		} {
			t.Run(bench+"/"+pol.String(), func(t *testing.T) {
				w := trace.ByName(bench)
				cfg := arch.PaperConfig(w.Cores())
				cfg.LLCSets = 8
				sys, err := New(cfg, pol, w, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range sys.cores {
					c.SetTarget(1 << 40)
				}
				for sys.cycle < cycles {
					sys.stepCycle()
					if sys.cycle&255 == 0 {
						if err := sys.mem.CheckResidency(); err != nil {
							t.Fatalf("cycle %d: %v", sys.cycle, err)
						}
					}
				}
				for _, name := range []string{"coh.llc_evictions", "coh.msg.Recall"} {
					if sys.count.Get(name) == 0 {
						t.Errorf("%s = 0: the run never took that path", name)
					}
				}
				if pol.Scheme == defense.RCP && sys.count.Get("coh.msg.SpecUndo") == 0 {
					t.Error("coh.msg.SpecUndo = 0: the run never took that path")
				}
			})
		}
	}
}
