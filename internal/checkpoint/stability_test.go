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
// The version 3 pins were recorded with nothing but the sparse directory
// codec applied to the version 2 tree, so they also hold the rest of that
// change (zeroed invalid ways, bulk Prewarm, the blank resume machine) to
// leaving the serialized state alone.
const (
	pinGccDOMLP  uint64 = 0xbb441b9153a6b365
	pinMcfRCPCmp uint64 = 0x2652030e38e15ff2
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

// TestCheckpointSizeRatchet pins "bytes encoded per checkpoint" as an exact
// count at the same boundary: a blob follows what the LLC holds (gcc_r and
// mcf_r keep a few tens of thousands of lines resident, exchange2_r 128),
// and an encoding change that costs a byte per line shows here on any host.
func TestCheckpointSizeRatchet(t *testing.T) {
	for _, c := range []struct {
		bench string
		pol   defense.Policy
		want  int
	}{
		{"gcc_r", defense.Policy{Scheme: defense.DOM, Variant: defense.LP}, 297778},
		{"mcf_r", defense.Policy{Scheme: defense.RCP, Variant: defense.Comp}, 553593},
		{"exchange2_r", defense.Policy{Scheme: defense.Unsafe}, 16515},
	} {
		t.Run(c.bench+"/"+c.pol.String(), func(t *testing.T) {
			if got := len(captureAtWarmup(t, c.bench, c.pol)); got != c.want {
				t.Fatalf("checkpoint is %d bytes, pinned %d", got, c.want)
			}
		})
	}
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
			if blob[len(magic)] != Version {
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
