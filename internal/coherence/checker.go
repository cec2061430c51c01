package coherence

import (
	"fmt"

	"pinnedloads/internal/cache"
)

// pendingMessages counts in-flight fabric messages.
func (f *fabric) pendingMessages() int {
	n := 0
	for i := range f.ring {
		n += len(f.ring[i])
	}
	return n
}

// Quiescent reports whether the memory system has no in-flight messages,
// ownership transactions, writebacks, or pending installs. Invariant
// checking is only meaningful at quiescent points, because the protocol
// legitimately passes through transient states in between.
func (s *System) Quiescent() bool {
	if s.fab.pendingMessages() > 0 {
		return false
	}
	for _, l := range s.l1s {
		if len(l.acq) > 0 || len(l.evictBuf) > 0 || len(l.pending) > 0 {
			return false
		}
		if l.mshr.Free() != s.cfg.L1MSHRs {
			return false
		}
	}
	return true
}

// CheckInvariants validates the global coherence invariants and returns the
// first violation found, or nil. It must only be called when Quiescent.
// Checked invariants:
//
//  1. Single writer: at most one L1 holds a line in M or E state, and then
//     no other L1 holds any copy.
//  2. Inclusion: every line cached in an L1 is present in its home
//     directory/LLC slice.
//  3. Directory conservativeness: every actual L1 holder is covered by the
//     directory's owner or sharer records (the records may be supersets
//     because Shared evictions are silent, but never subsets).
//  4. No directory entry is stuck in a transient state.
func (s *System) CheckInvariants() error {
	type holder struct {
		core  int
		state cache.State
	}
	holders := map[uint64][]holder{}
	for i, l := range s.l1s {
		core := i
		l.tags.ForEach(func(e *cache.Line) {
			holders[e.Addr] = append(holders[e.Addr], holder{core, e.State})
		})
	}
	for line, hs := range holders {
		writers := 0
		for _, h := range hs {
			if h.state.CanWrite() {
				writers++
			}
		}
		if writers > 1 {
			return fmt.Errorf("line %#x: %d writable copies", line, writers)
		}
		if writers == 1 && len(hs) > 1 {
			return fmt.Errorf("line %#x: writable copy coexists with %d other copies",
				line, len(hs)-1)
		}
		d := s.dirs[s.cfg.LLCSlice(line)]
		e := d.lookup(line)
		if e == nil {
			return fmt.Errorf("line %#x: cached in L1 but absent from its home slice", line)
		}
		if e.busy != busyNone {
			return fmt.Errorf("line %#x: directory stuck in transient state %d", line, e.busy)
		}
		for _, h := range hs {
			covered := int(e.owner) == h.core || e.sharers&(1<<uint(h.core)) != 0
			if !covered {
				return fmt.Errorf("line %#x: core %d holds %v but directory records owner=%d sharers=%#x",
					line, h.core, h.state, e.owner, e.sharers)
			}
		}
	}
	// No directory entry may be transient at quiescence, even uncached
	// ones.
	for i, d := range s.dirs {
		for _, ln := range d.valid() {
			if ln.busy != busyNone {
				return fmt.Errorf("slice %d: line %#x stuck in transient state %d",
					i, ln.addr, ln.busy)
			}
		}
	}
	return nil
}

// CheckResidency validates what holds of every directory slice at every
// cycle boundary, transient states included: an invalid way is all zero or
// has no plane (a way carries nothing out of one life into the next, which is
// what lets a checkpoint leave invalid ways out), the derived filter tags and
// occupancy counts match the valid bits, and a valid way sits in its line's
// home slice and set. It returns the first violation found, or nil.
func (s *System) CheckResidency() error {
	for i, d := range s.dirs {
		if err := d.checkWays(); err != nil {
			return fmt.Errorf("slice %d: %w", i, err)
		}
	}
	return nil
}

// checkWays is CheckResidency for one slice: all of it is what LoadState
// guarantees of any input it accepts.
func (d *Dir) checkWays() error {
	resident := 0
	for set, occ := range d.occ {
		n := 0
		for w, tag := range d.row(set) {
			var ln dirLine
			if d.planes[w] != nil {
				ln = d.planes[w][set]
			}
			var want uint16
			if ln.valid {
				n++
				_, want = d.home(ln.addr)
				if !d.atHome(set, ln.addr) {
					return fmt.Errorf("set %d way %d: line %#x is not at home", set, w, ln.addr)
				}
			} else if ln != (dirLine{}) {
				return fmt.Errorf("set %d way %d: invalid way holds %+v", set, w, ln)
			}
			if tag != want {
				return fmt.Errorf("set %d way %d: filter tag %#x, the way's is %#x", set, w, tag, want)
			}
		}
		if int(occ) != n {
			return fmt.Errorf("set %d: occupancy count %d, %d valid ways", set, occ, n)
		}
		if d.warmOnly && n < d.cfg.LLCWays && d.freeWay(set) != n {
			return fmt.Errorf("set %d: warm-only slice whose %d valid ways are not its first", set, n)
		}
		resident += n
	}
	if d.resident != resident {
		return fmt.Errorf("resident count %d, %d valid ways", d.resident, resident)
	}
	return nil
}
