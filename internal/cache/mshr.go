package cache

// MSHR is a miss-status holding register file. Each entry tracks one
// outstanding line fill and the IDs of the requests coalesced onto it, and
// whether the fill is a reversible speculative one (RCP scheme). It holds
// no Pinned bit (paper Section 6.1.2): a line Early Pinning pins before its
// data arrives is already in the core's load-queue record, which every pin
// decision at the L1 asks.
type MSHR struct {
	entries []mshrEntry
	free    int
}

type mshrEntry struct {
	used    bool
	addr    uint64
	spec    bool
	waiters []int64
}

// NewMSHR returns an MSHR file with n entries.
func NewMSHR(n int) *MSHR {
	if n <= 0 {
		panic("cache: non-positive MSHR count")
	}
	return &MSHR{entries: make([]mshrEntry, n), free: n}
}

// Free returns the number of unused entries.
func (m *MSHR) Free() int { return m.free }

// Lookup returns the index of the entry tracking line addr, or -1.
func (m *MSHR) Lookup(addr uint64) int {
	for i := range m.entries {
		if m.entries[i].used && m.entries[i].addr == addr {
			return i
		}
	}
	return -1
}

// Alloc allocates an entry for line addr with the first waiter, returning
// its index or -1 if the file is full.
func (m *MSHR) Alloc(addr uint64, waiter int64) int {
	for i := range m.entries {
		if !m.entries[i].used {
			m.entries[i] = mshrEntry{
				used:    true,
				addr:    addr,
				waiters: append(m.entries[i].waiters[:0], waiter),
			}
			m.free--
			return i
		}
	}
	return -1
}

// AddWaiter coalesces another request onto entry i.
func (m *MSHR) AddWaiter(i int, waiter int64) {
	m.entries[i].waiters = append(m.entries[i].waiters, waiter)
}

// SetSpec marks entry i as a reversible speculative fill (RCP scheme).
// Spec fills never coalesce with demand requests: the fill may complete
// statelessly, which a demand waiter must not observe.
func (m *MSHR) SetSpec(i int, spec bool) { m.entries[i].spec = spec }

// Spec reports whether entry i is a reversible speculative fill.
func (m *MSHR) Spec(i int) bool { return m.entries[i].spec }

// Lines returns the line addresses of all in-use entries in entry order.
// Outstanding fills are observable microarchitectural state (an attacker
// can probe MSHR occupancy through structural hazards), so the security
// oracle includes them in its state fingerprint.
func (m *MSHR) Lines() []uint64 {
	var out []uint64
	for i := range m.entries {
		if m.entries[i].used {
			out = append(out, m.entries[i].addr)
		}
	}
	return out
}

// Release frees entry i and returns the coalesced waiter IDs. The returned
// slice is valid until the entry is reallocated.
func (m *MSHR) Release(i int) []int64 {
	e := &m.entries[i]
	if !e.used {
		panic("cache: releasing free MSHR entry")
	}
	e.used = false
	e.spec = false
	m.free++
	return e.waiters
}
