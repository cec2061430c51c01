package checkpoint

import (
	"hash/fnv"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/trace"
)

// Checkpoint byte-stability pins: FNV-1a of the Capture blob taken at the
// warmup boundary (seed 1, 3k warmup instructions). The blob covers the
// whole serialized machine, so a pin moves when — and only when — the
// format, the serialization order, or the simulated state at that cycle
// changes. Refactors of derived, non-serialized state (the ROB slot
// arithmetic, the load-queue candidate lists, the probe memo) must leave
// them alone; a deliberate format change bumps Version and re-records them.
const (
	pinGccDOMLP  uint64 = 0x81f63ceacf2a03cf
	pinMcfRCPCmp uint64 = 0x80be47a70d5b5d97
)

// captureAtWarmup runs the proxy to its warmup boundary under the policy
// and returns the checkpoint captured there.
func captureAtWarmup(t *testing.T, bench string, pol defense.Policy) []byte {
	t.Helper()
	w := trace.ByName(bench)
	if w == nil {
		t.Fatalf("%s profile missing", bench)
	}
	sys, err := core.New(arch.PaperConfig(0), pol, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	sys.SetWarmupHook(func() {
		blob, err = Capture(sys, "stability")
	})
	if _, runErr := sys.Run(3_000, 1); runErr != nil {
		t.Fatal(runErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("warmup hook never fired")
	}
	return blob
}

func TestCheckpointBytesStable(t *testing.T) {
	for _, c := range []struct {
		bench string
		pol   defense.Policy
		want  uint64
	}{
		{"gcc_r", defense.Policy{Scheme: defense.DOM, Variant: defense.LP}, pinGccDOMLP},
		{"mcf_r", defense.Policy{Scheme: defense.RCP, Variant: defense.Comp}, pinMcfRCPCmp},
	} {
		t.Run(c.bench+"/"+c.pol.String(), func(t *testing.T) {
			blob := captureAtWarmup(t, c.bench, c.pol)
			if blob[len(magic)] != 2 {
				t.Fatalf("format version %d: re-record the pins with the bump", blob[len(magic)])
			}
			h := fnv.New64a()
			h.Write(blob)
			if got := h.Sum64(); got != c.want {
				t.Fatalf("checkpoint bytes changed: FNV-1a %#016x, pinned %#016x (%d bytes)",
					got, c.want, len(blob))
			}
		})
	}
}
