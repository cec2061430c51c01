package cache

import "pinnedloads/internal/ckptio"

// maxWaiters bounds a decoded MSHR waiter list (waiters are coalesced load
// tokens; the ROB bounds how many can be outstanding).
const maxWaiters = 1 << 12

func (ln *Line) walk(s ckptio.State) {
	s.U64(&ln.Addr)
	ckptio.Enum(s, &ln.State, Modified, "MESI state")
	s.U64(&ln.lru)
}

// State walks the tag array of one geometry: the LRU stamp clock, then every
// way in array order (deterministic).
func (c *SetAssoc) State(s ckptio.State) {
	if s.Loading() {
		c.epoch++
	}
	s.U64(&c.stamp)
	if !s.Geometry(len(c.sets), "tag array ways") {
		return
	}
	for i := range c.sets {
		c.sets[i].walk(s)
	}
}

func (en *mshrEntry) walk(s ckptio.State) {
	s.Bool(&en.used)
	s.U64(&en.addr)
	s.Bool(&en.spec)
	ckptio.Slice(s, &en.waiters, maxWaiters)
	for i := range en.waiters {
		s.I64(&en.waiters[i])
	}
}

// State walks an MSHR file of one geometry: every entry with its waiter list.
func (m *MSHR) State(s ckptio.State) {
	if !s.Geometry(len(m.entries), "MSHR entries") {
		return
	}
	for i := range m.entries {
		m.entries[i].walk(s)
	}
	if s.Loading() {
		m.free = 0
		for i := range m.entries {
			if !m.entries[i].used {
				m.free++
			}
		}
	}
}
