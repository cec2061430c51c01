package pin

import "pinnedloads/internal/ckptio"

// maxCPTLines bounds a decoded CPT line list (ideal tables are unbounded in
// capacity but hold at most a handful of contested lines in practice).
const maxCPTLines = 1 << 16

func (r *cstRecord) walk(s ckptio.State) {
	s.Bool(&r.valid)
	s.U16(&r.addrHash)
	s.U32(&r.lqID)
	s.U64(&r.line)
}

// State walks the records and statistics of a CST of one geometry.
func (c *CST) State(s ckptio.State) {
	if !s.Geometry(len(c.entries), "CST records") {
		return
	}
	for i := range c.entries {
		c.entries[i].walk(s)
	}
	s.U64(&c.attempts)
	s.U64(&c.denies)
	s.U64(&c.falsePositives)
}

// State walks the CPT's mutable state.
func (t *CPT) State(s ckptio.State) {
	ckptio.Slice(s, &t.lines, maxCPTLines)
	for i := range t.lines {
		s.U64(&t.lines[i])
	}
	s.Bool(&t.stalled)
	t.occupancy.State(s)
	s.U64(&t.inserts)
	s.U64(&t.overflows)
}
