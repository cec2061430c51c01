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
// changes; a refactor of derived state must leave them alone, and a
// deliberate format change bumps Version (whose comment holds the format's
// history) and re-records them. ocean_cp is the 8-core row: its lines have
// sharers and owners, so it pins the long form and the backlog as the SPEC17
// rows pin the runs.
const (
	pinGccDOMLP   uint64 = 0xf29ec145b7031d95
	pinMcfRCPCmp  uint64 = 0xf9537f1f7534d134
	pinOceanDOMEP uint64 = 0x6884ccdb872acc31
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
// count at the same boundary. A blob follows what the warmup has done to the
// LLC, not what the LLC holds: gcc_r and mcf_r keep a few tens of thousands of
// lines resident, nearly all of them as Prewarm left them and so a few hundred
// runs (version 3 spent 297 778 and 553 593 bytes on them); exchange2_r holds
// 128 lines and none in the default state, so it is the row that shows a byte
// added to the long form; ocean_cp is eight cores sharing. An encoding change
// that costs a byte per record shows here on any host. gcc_r/DOM-LP must stay
// below 45 000.
func TestCheckpointSizeRatchet(t *testing.T) {
	for _, c := range []struct {
		bench string
		pol   defense.Policy
		want  int
	}{
		{"gcc_r", defense.Policy{Scheme: defense.DOM, Variant: defense.LP}, 23316},
		{"mcf_r", defense.Policy{Scheme: defense.RCP, Variant: defense.Comp}, 30405},
		{"exchange2_r", defense.Policy{Scheme: defense.Unsafe}, 15533},
		{"ocean_cp", defense.Policy{Scheme: defense.DOM, Variant: defense.EP}, 220456},
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
		{"ocean_cp", defense.Policy{Scheme: defense.DOM, Variant: defense.EP}, pinOceanDOMEP},
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

// TestCaptureBlobIsItsBytes: a warm store and the service keep the slice
// Capture returns for as long as they live, so what a stored checkpoint
// costs is the capacity of that slice. It must be the blob's bytes and an
// allocator size class's slack, not a buffer somebody sized from an estimate
// and filled part of; and capturing from a machine that has captured before
// allocates the blob, the sorted counter names and nothing that grows with
// the machine (the fingerprint in the header builds its strings each time and
// is counted apart).
func TestCaptureBlobIsItsBytes(t *testing.T) {
	for _, c := range []struct {
		bench string
		pol   defense.Policy
	}{
		{"gcc_r", defense.Policy{Scheme: defense.DOM, Variant: defense.LP}},
		{"exchange2_r", defense.Policy{Scheme: defense.Unsafe}},
		{"ocean_cp", defense.Policy{Scheme: defense.DOM, Variant: defense.EP}},
	} {
		t.Run(c.bench+"/"+c.pol.String(), func(t *testing.T) {
			sys, err := core.New(arch.PaperConfig(0), c.pol, trace.ByName(c.bench), 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(0, 3_000); err != nil {
				t.Fatal(err)
			}
			blob, err := Capture(sys, "stability")
			if err != nil {
				t.Fatal(err)
			}
			if cap(blob) > len(blob)+len(blob)/4 {
				t.Fatalf("a %d-byte checkpoint holds %d bytes of memory", len(blob), cap(blob))
			}
			// The race detector's sync.Pool drops a quarter of what it is
			// handed, and -coverpkg's counters make the walks allocate.
			if raceEnabled || testing.CoverMode() != "" {
				return
			}
			fingerprint := testing.AllocsPerRun(5, func() { sys.Fingerprint() })
			if got := testing.AllocsPerRun(5, func() { Capture(sys, "stability") }) - fingerprint; got > 3 {
				t.Fatalf("Capture allocates %v times beside the fingerprint, want at most 3", got)
			}
		})
	}
}
