// Package cache provides the storage structures of the simulated memory
// hierarchy: set-associative arrays with LRU replacement and pin-aware
// victim selection, and miss-status holding registers (MSHRs). The
// coherence controllers (package coherence) own the protocol state machines
// and use these structures for tags and replacement.
package cache

// State is a MESI coherence state for a cached line.
type State uint8

const (
	// Invalid means the way holds no valid line.
	Invalid State = iota
	// Shared means a read-only copy.
	Shared
	// Exclusive means a clean, writable, sole copy.
	Exclusive
	// Modified means a dirty, writable, sole copy.
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "I"
	}
}

// CanRead reports whether a load may consume data in this state.
func (s State) CanRead() bool { return s != Invalid }

// CanWrite reports whether a store may update data in this state.
func (s State) CanWrite() bool { return s == Exclusive || s == Modified }

// Line is one cached line's tag-array entry.
type Line struct {
	// Addr is the line address (byte address >> 6). Valid only when
	// State != Invalid.
	Addr  uint64
	State State
	lru   uint64
}

// SetAssoc is a set-associative tag array with true-LRU replacement.
type SetAssoc struct {
	sets  []Line // sets*ways entries, way-major within a set
	ways  int
	stamp uint64
	epoch uint64
}

// NewSetAssoc returns a sets x ways array with all ways invalid.
func NewSetAssoc(sets, ways int) *SetAssoc {
	if sets <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	return &SetAssoc{sets: make([]Line, sets*ways), ways: ways, epoch: 1}
}

// Epoch identifies the current set of present lines: it advances whenever
// a line is installed or invalidated (and when State loads), so a Lookup's
// hit-or-miss answer may be reused for as long as Epoch is unchanged. It
// is never zero. Callers that write Line.State directly must only move
// between valid states, which no Lookup can tell apart.
func (c *SetAssoc) Epoch() uint64 { return c.epoch }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return len(c.sets) / c.ways }

// set returns the slice of ways for a set index.
func (c *SetAssoc) set(set int) []Line {
	return c.sets[set*c.ways : (set+1)*c.ways]
}

// Lookup finds line addr in the given set and returns a pointer to its
// entry, or nil on miss. It does not update LRU state; call Touch for that.
func (c *SetAssoc) Lookup(set int, addr uint64) *Line {
	ws := c.set(set)
	for i := range ws {
		if ws[i].State != Invalid && ws[i].Addr == addr {
			return &ws[i]
		}
	}
	return nil
}

// Touch marks the entry as most recently used.
func (c *SetAssoc) Touch(e *Line) {
	c.stamp++
	e.lru = c.stamp
}

// Victim selects a way in the set to hold a new line. Invalid ways are
// preferred; otherwise the least recently used way whose line is not
// excluded by denied (which may be nil) is chosen. It returns nil only if
// every way holds a denied line: a pinned line's eviction is denied (paper
// Section 5.1.3), and the caller decides what a fully denied set means.
//
// When the LRU victim is denied, its replacement state is refreshed as if
// the line had been accessed, per the paper, to minimize future attempts to
// evict it. A refreshed line becomes the most recent, so a set with one way
// that is not denied yields it within Ways looks.
func (c *SetAssoc) Victim(set int, denied func(addr uint64) bool) *Line {
	ws := c.set(set)
	for range ws {
		var victim *Line
		for i := range ws {
			if ws[i].State == Invalid {
				return &ws[i]
			}
			if victim == nil || ws[i].lru < victim.lru {
				victim = &ws[i]
			}
		}
		if denied == nil || !denied(victim.Addr) {
			return victim
		}
		c.Touch(victim)
	}
	return nil
}

// Install writes a new line into the entry returned by Victim.
func (c *SetAssoc) Install(e *Line, addr uint64, st State) {
	e.Addr = addr
	e.State = st
	c.Touch(e)
	c.epoch++
}

// Invalidate marks the entry invalid.
func (c *SetAssoc) Invalidate(e *Line) {
	e.State = Invalid
	c.epoch++
}

// InvalidWay returns an invalid way in the set, or nil if every way holds
// a valid line. Reversible speculation (the RCP scheme) installs lines
// only into invalid ways, so no victim is ever evicted on behalf of a
// speculative access and a squash can restore the array exactly.
func (c *SetAssoc) InvalidWay(set int) *Line {
	ws := c.set(set)
	for i := range ws {
		if ws[i].State == Invalid {
			return &ws[i]
		}
	}
	return nil
}

// InstallQuiet writes a new line into the entry without refreshing its
// replacement state. The line's recency is set to the minimum so it ranks
// below every architecturally-touched line: a speculative install must
// not perturb the replacement order of existing lines, and should be the
// preferred victim while it remains speculative. Its recency is repaired
// by Touch when the speculation commits.
func (c *SetAssoc) InstallQuiet(e *Line, addr uint64, st State) {
	e.Addr = addr
	e.State = st
	e.lru = 0
	c.epoch++
}

// ForEach calls fn for every valid line in the array.
func (c *SetAssoc) ForEach(fn func(e *Line)) {
	for i := range c.sets {
		if c.sets[i].State != Invalid {
			fn(&c.sets[i])
		}
	}
}

// LineSnap is one valid line in a Snapshot: its set, address, state, and
// recency rank within the set (0 = most recently used). Ranks abstract the
// internal LRU stamps so two arrays that would behave identically under
// future accesses compare equal.
type LineSnap struct {
	Set   int
	Addr  uint64
	State State
	Rank  int
}

// Snapshot returns every valid line ordered by set and, within a set, by
// recency (most recent first). It captures the full observable tag-array
// state — presence, coherence state, and replacement order — which the
// security oracle diffs between runs.
func (c *SetAssoc) Snapshot() []LineSnap {
	var out []LineSnap
	for s := 0; s < c.Sets(); s++ {
		ws := c.set(s)
		idx := make([]int, 0, c.ways)
		for i := range ws {
			if ws[i].State != Invalid {
				idx = append(idx, i)
			}
		}
		// Most recently used first (higher stamp = newer).
		for a := 0; a < len(idx); a++ {
			for b := a + 1; b < len(idx); b++ {
				if ws[idx[b]].lru > ws[idx[a]].lru {
					idx[a], idx[b] = idx[b], idx[a]
				}
			}
		}
		for r, i := range idx {
			out = append(out, LineSnap{Set: s, Addr: ws[i].Addr, State: ws[i].State, Rank: r})
		}
	}
	return out
}

// CountValid returns the number of valid lines in the given set.
func (c *SetAssoc) CountValid(set int) int {
	n := 0
	for _, w := range c.set(set) {
		if w.State != Invalid {
			n++
		}
	}
	return n
}
