package stats

import "pinnedloads/internal/ckptio"

// maxCounters bounds a decoded counter set (far above any real run; the
// simulator defines a few dozen counter names).
const maxCounters = 1 << 16

// State walks every counter — including zero-valued ones, so the restored
// set holds exactly the same handles — in sorted name order for deterministic
// bytes. Loading goes through Handle and leaves the other counters be, so
// pre-bound handle pointers held by the pipeline and coherence controllers
// keep pointing at the live values; a name already bound costs no string.
func (c *Counters) State(s ckptio.State) {
	for i, n := 0, s.Count(len(c.names), maxCounters); i < n; i++ {
		var name string
		if !s.Loading() {
			name = c.names[i]
		}
		s.Name(&name, c.names)
		if s.Err() != nil {
			return
		}
		s.U64(c.Handle(name))
	}
}

// State walks the occupancy tracker.
func (o *Occupancy) State(s ckptio.State) {
	ckptio.Ticking(s, &o.sum)
	ckptio.Ticking(s, &o.samples)
	s.Int(&o.max)
}
