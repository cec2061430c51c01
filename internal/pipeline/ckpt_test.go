package pipeline

import (
	"strings"
	"testing"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/ckptio/ckpttest"
)

// entryDerived names the fields of entry that walk leaves out: the
// Delay-On-Miss probe memo, void after a restore (probeEpoch 0).
var entryDerived = []string{"probeEpoch", "probeLine", "probeHit"}

// Fields of Core that State leaves out. coreDerived is recomputed or reset
// when loading (here, or by wake) or is meaningful only within a tick;
// coreConfig is fixed by NewCore from configuration, policy and wiring. The
// optional parts and the generator are listed as configuration: State walks
// what they hold, not whether they exist.
var (
	coreDerived = []string{"headSlot", "issueCand", "exposeCand", "specCand", "active", "asleep",
		"wire", "charges", "nCharges", "calMask", "barrierSeen", "slept",
		"lastOdd", "stFilter", "freshFrom", "gateVisits", "forwardScans"}
	coreConfig = []string{"id", "cfg", "policy", "l1", "gen", "bar", "cnt", "rec", "tracing",
		"l1CST", "dirCST", "cpt", "lqTagMask"}
)

// TestWalksCoverEveryField: a field added to a record must move the saved
// bytes or be in the record's derived list, and a field added to Core must be
// walked or classified.
func TestWalksCoverEveryField(t *testing.T) {
	ckpttest.Fields(t, entry{}, func(s ckptio.State, en *entry) { en.walk(s) }, entryDerived)
	ckpttest.Fields(t, ref{}, func(s ckptio.State, r *ref) { r.walk(s) }, nil)
	ckpttest.Container(t, "ckpt.go", Core{}, coreDerived, coreConfig)
}

// TestEntryWalkRejectsMalformed feeds the entry walk records that are wrong in
// one field: the load must end in the sticky error, not in a wrapped value.
func TestEntryWalkRejectsMalformed(t *testing.T) {
	// A zero entry saves as one byte a field: nine of the instruction, seq,
	// gen, winIdx and wrong, then state at 13 and depsLeft at 14.
	var en entry
	e := ckptio.NewEncoder()
	en.walk(ckptio.SaveTo(e))
	zero := e.Bytes()
	for _, tc := range []struct {
		name     string
		state    uint8
		depsLeft int64
		want     string
	}{
		{"in range", stDone, -128, ""},
		{"depsLeft above int8", 0, 200, "int8"},
		{"depsLeft below int8", 0, -129, "int8"},
		{"state past stDone", stDone + 1, 0, "ROB entry state"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := ckptio.NewEncoder()
			e.Raw(zero[:13])
			e.U8(tc.state)
			e.I64(tc.depsLeft)
			e.Raw(zero[15:])
			d := ckptio.NewDecoder(e.Bytes())
			en.walk(ckptio.LoadFrom(d))
			err := d.Done()
			if tc.want == "" {
				if err != nil || en.state != tc.state || int64(en.depsLeft) != tc.depsLeft {
					t.Fatalf("loaded state %d, depsLeft %d, error %v", en.state, en.depsLeft, err)
				}
			} else if err == nil || !strings.HasPrefix(err.Error(), "ckptio: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want a ckptio error mentioning %q", err, tc.want)
			}
		})
	}
}
