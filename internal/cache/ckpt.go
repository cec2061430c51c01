package cache

import "pinnedloads/internal/ckptio"

// maxWaiters bounds a decoded MSHR waiter list (waiters are coalesced load
// tokens; the ROB bounds how many can be outstanding).
const maxWaiters = 1 << 12

// SaveState serializes the tag array: geometry-independent per-way fields
// plus the LRU stamp clock, in array order (deterministic).
func (c *SetAssoc) SaveState(e *ckptio.Encoder) {
	e.U64(c.stamp)
	e.U64(uint64(len(c.sets)))
	for i := range c.sets {
		e.U64(c.sets[i].Addr)
		e.U8(uint8(c.sets[i].State))
		e.U64(c.sets[i].lru)
	}
}

// LoadState restores a tag array saved from an identically configured one.
func (c *SetAssoc) LoadState(d *ckptio.Decoder) {
	c.epoch++
	c.stamp = d.U64()
	n := d.U64()
	if d.Err() != nil {
		return
	}
	if n != uint64(len(c.sets)) {
		d.Failf("tag array has %d ways, checkpoint has %d", len(c.sets), n)
		return
	}
	for i := range c.sets {
		c.sets[i].Addr = d.U64()
		st := State(d.U8())
		if st > Modified {
			d.Failf("invalid MESI state %d", st)
			return
		}
		c.sets[i].State = st
		c.sets[i].lru = d.U64()
	}
}

// SaveState serializes the MSHR file: every entry with its waiter list.
func (m *MSHR) SaveState(e *ckptio.Encoder) {
	e.U64(uint64(len(m.entries)))
	for i := range m.entries {
		en := &m.entries[i]
		e.Bool(en.used)
		e.U64(en.addr)
		e.Bool(en.forWrit)
		e.Bool(en.pinned)
		e.Bool(en.spec)
		e.U64(uint64(len(en.waiters)))
		for _, w := range en.waiters {
			e.I64(w)
		}
	}
}

// LoadState restores an MSHR file of the same geometry; the free count is
// recomputed from the entries.
func (m *MSHR) LoadState(d *ckptio.Decoder) {
	n := d.U64()
	if d.Err() != nil {
		return
	}
	if n != uint64(len(m.entries)) {
		d.Failf("MSHR has %d entries, checkpoint has %d", len(m.entries), n)
		return
	}
	m.free = len(m.entries)
	for i := range m.entries {
		en := &m.entries[i]
		en.used = d.Bool()
		en.addr = d.U64()
		en.forWrit = d.Bool()
		en.pinned = d.Bool()
		en.spec = d.Bool()
		nw := d.Count(maxWaiters)
		en.waiters = en.waiters[:0]
		for j := 0; j < nw; j++ {
			en.waiters = append(en.waiters, d.I64())
		}
		if en.used {
			m.free--
		}
	}
}
