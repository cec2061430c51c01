package pipeline

import (
	"strings"
	"testing"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/ckptio/ckpttest"
	"pinnedloads/internal/defense"
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
	coreDerived = []string{"headSlot", "loadsInROB", "fences", "loadSeqs", "storeSeqs", "perfLines",
		"issueCand", "exposeCand", "specCand", "pinnedLines", "active", "asleep",
		"wire", "charges", "nCharges", "calMask", "barrierSeen", "slept",
		"lastOdd", "stFilter", "freshFrom", "gateVisits", "forwardScans"}
	coreConfig = []string{"id", "cfg", "policy", "l1", "gen", "bar", "cnt", "rec", "tracing",
		"l1CST", "dirCST", "cpt", "lqTagMask"}
)

// TestWalksCoverEveryField: a field added to a record must move the saved
// bytes or be in the record's derived list, and a field added to Core must be
// walked or classified.
func TestWalksCoverEveryField(t *testing.T) {
	ckpttest.Fields(t, entry{}, func(s ckptio.State, en *entry) { en.walk(s, 0, 1) }, entryDerived)
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
	en.walk(ckptio.SaveTo(e), 0, 1)
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
			en.walk(ckptio.LoadFrom(d), 0, 1)
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

// TestCoreStateRejectsMalformed saves a core that holds pinned loads, memory
// tokens and more instructions than its load queue, with one wreck in its
// ROB, and loads it into a fresh core. A restore rebuilds the core's indexes
// from the ROB, so a live slot that holds another seq, a pinned load under a
// policy that does not pin, more pinned loads than the load queue holds, and
// pinned loads that do not hold the last LQ IDs issued, must end in the
// sticky error, not in a panic or a core that breaks later; the intact cores
// must load whole. A memory token is saved as its access count and rebuilt
// from its slot, so no input names another slot.
func TestCoreStateRejectsMalformed(t *testing.T) {
	pinning := defense.Policy{Scheme: defense.Fence, Variant: defense.EP}
	comp := defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}
	for _, tc := range []struct {
		name  string
		pol   defense.Policy
		wreck func(c *Core)
		want  string
	}{
		{"intact", pinning, func(*Core) {}, ""},
		{"intact without pinning", comp, func(*Core) {}, ""},
		{"pinned load without pinning", comp, func(c *Core) {
			e := c.at(c.head)
			e.pinned, e.lqTag = true, 1
		}, "pinned load under Fence-COMP, which does not pin"},
		{"slot's seq", pinning, func(c *Core) { c.at(c.tail-1).seq++ }, "holds seq"},
		{"pinned loads", pinning, func(c *Core) {
			for seq := c.head; seq < c.tail; seq++ {
				e := c.at(seq)
				e.pinned, e.lqTag = true, uint32(seq)
			}
		}, "more pinned loads than a 62-entry load queue"},
		{"pinned LQ IDs", pinning, func(c *Core) { c.lqTagNext++ }, "the pinned loads hold the last IDs issued"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newMachine(pinStream(), tc.pol)
			c := src.cores[0]
			for (tc.pol.Pinning() && c.pinnedLines.Len() < 2) || !holdsToken(c) || c.tail-c.head <= int64(c.cfg.LQEntries) {
				if src.cycle == 20_000 {
					t.Fatalf("no cycle held 2 pinned loads when pinning, a token and more than %d instructions", c.cfg.LQEntries)
				}
				src.step(t)
			}
			tc.wreck(c)
			e := ckptio.NewEncoder()
			c.State(ckptio.SaveTo(e))
			dst := newMachine(pinStream(), tc.pol).cores[0]
			d := ckptio.NewDecoder(e.Bytes())
			dst.State(ckptio.LoadFrom(d))
			err := d.Done()
			if tc.want == "" {
				if err == nil {
					err = dst.Check()
				}
				if err != nil {
					t.Fatal(err)
				}
			} else if err == nil || !strings.HasPrefix(err.Error(), "ckptio: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want a ckptio error mentioning %q", err, tc.want)
			}
		})
	}
}
