package pipeline

import (
	"strings"
	"testing"

	"pinnedloads/internal/defense"
)

// holdsToken reports whether a load of c has an access in flight.
func holdsToken(c *Core) bool {
	for seq := c.head; seq < c.tail; seq++ {
		if c.at(seq).token != 0 {
			return true
		}
	}
	return false
}

// TestCheckNamesEachWreck breaks one piece of derived state, or one bound, at
// a time in a core that holds pinned loads and memory tokens, and requires
// Check to name it.
func TestCheckNamesEachWreck(t *testing.T) {
	for _, tc := range []struct {
		name  string
		wreck func(c *Core)
		want  string
	}{
		{"intact", func(c *Core) {}, ""},
		{"load count", func(c *Core) { c.loadsInROB++ }, "loadsInROB = "},
		{"load list", func(c *Core) { c.loadSeqs.reset() }, "loadSeqs = [], a walk of the ROB"},
		{"candidate list", func(c *Core) { c.issueCand.insert(c.tail - 1) }, "issueCand = "},
		{"head slot", func(c *Core) { c.headSlot++ }, "headSlot"},
		{"slot's seq", func(c *Core) { c.at(c.head).seq++ }, "slot of seq"},
		{"probe memo", func(c *Core) {
			e := c.at(c.head)
			e.probeEpoch, e.probeLine, e.probeHit = c.l1.TagEpoch(), 0x12345, true
		}, "a fresh Probe disagrees"},
		{"token table", func(c *Core) { c.at(c.head).token = int64(len(c.entries) + c.headSlot + 1) }, "names ROB slot"},
		{"tag table", func(c *Core) {
			for seq := c.head; ; seq++ {
				if e := c.at(seq); e.pinned {
					e.lqTag++
					return
				}
			}
		}, "holds LQ ID"},
		{"pinned-line table", func(c *Core) { c.pinnedLines.Push(0x12345) }, "pinnedLines holds"},
		{"store filter", func(c *Core) { c.stFilter[7]++ }, "store-address filter"},
		{"lastOdd", func(c *Core) { c.at(c.loadSeqs.seqs()[0]).inst.Fault = true }, "faults or has a transient address, lastOdd"},
		{"L1 bound", func(c *Core) { c.cfg.L1Ways = 1 }, "L1 set"},
		{"directory bound", func(c *Core) { c.cfg.Wd = 0 }, "directory set"},
		{"load-queue bound", func(c *Core) { c.cfg.LQEntries = 0 }, "bounded by a 0-entry load queue"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(pinStream(), defense.Policy{Scheme: defense.Fence, Variant: defense.EP})
			c := m.cores[0]
			for c.pinnedLines.Len() < 2 || !holdsToken(c) {
				m.step(t)
			}
			tc.wreck(c)
			err := c.Check()
			switch {
			case tc.want == "" && err != nil:
				t.Fatal(err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Check = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}
