package coherence

import (
	"fmt"
	"slices"

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
// ownership transactions, writebacks, or outstanding fills. Invariant
// checking is only meaningful at quiescent points, because the protocol
// legitimately passes through transient states in between.
func (s *System) Quiescent() bool {
	if s.fab.pendingMessages() > 0 {
		return false
	}
	for _, l := range s.l1s {
		if len(l.acq) > 0 || len(l.evictBuf) > 0 {
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
		e, ok := s.dirs[s.cfg.LLCSlice(line)].peek(line)
		if !ok {
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
	// ones. A lazy set's ways are in the default state.
	for i, d := range s.dirs {
		for _, set := range d.held {
			for _, ln := range d.lines(int(set)) {
				if ln.busy != busyNone {
					return fmt.Errorf("slice %d: line %#x stuck in transient state %d",
						i, ln.addr, ln.busy)
				}
			}
		}
	}
	return nil
}

// CheckResidency validates what holds of every directory slice at every
// cycle boundary, transient states included: the runs are sorted, disjoint,
// inside the slice and at home; a stored set's occupancy is its valid stored
// ways and a lazy set's its run ways; an invalid stored way is all zero (a
// way carries nothing out of one life into the next, which is what lets a
// checkpoint leave invalid ways out); the filter tags, the resident count and
// the list of stored sets match the ways; a valid way sits in its line's
// home slice and set; and the carving is whole: every carved way is one
// stored set's or one free block's, and a free block is all zero, inside the
// carved slabs and on the list for its size. It returns the first violation
// found, or nil.
func (s *System) CheckResidency() error {
	for i, d := range s.dirs {
		if err := d.checkWays(); err != nil {
			return fmt.Errorf("slice %d: %w", i, err)
		}
	}
	return nil
}

// peek is lookup for a reader: it finds the line among its set's ways,
// installing nothing.
func (d *Dir) peek(line uint64) (dirLine, bool) {
	set, _ := d.home(line)
	for _, ln := range d.lines(set) {
		if ln.addr == line {
			return ln, true
		}
	}
	return dirLine{}, false
}

// checkWays is CheckResidency for one slice: all of it is what a loading
// State guarantees of any input it accepts.
func (d *Dir) checkWays() error {
	sets, total, stride := d.cfg.LLCSets, len(d.sets)*d.cfg.LLCWays, uint64(d.cfg.LLCSlices)
	runWays, end := make([]int, sets), 0
	for _, r := range d.runs {
		if r.n < 1 || int(r.at) < end || r.last() >= total {
			return fmt.Errorf("run of %d ways from way %d is not sorted, disjoint and inside the slice", r.n, r.at)
		}
		if !d.atHome(int(r.at)&(sets-1), r.addr) || r.addr+uint64(r.n-1)*stride < r.addr || r.lru+uint64(r.n-1) < r.lru {
			return fmt.Errorf("run of %d ways from way %d: line %#x is not at home or the run wraps", r.n, r.at, r.addr)
		}
		for at := int(r.at); at <= r.last(); at++ {
			runWays[at&(sets-1)]++
		}
		end = r.last() + 1
	}
	listed := make([]bool, sets)
	for _, set := range d.held {
		if listed[set] {
			return fmt.Errorf("set %d is listed as stored twice", set)
		}
		listed[set] = true
	}
	// Every carved way is one stored set's or one free block's: claim marks
	// a block's ways, after checking that it lies inside the carved slabs.
	size, claimed := uint32(1)<<d.slabBits, make([]bool, d.next)
	claim := func(b llcSet) string {
		end := uint64(b.at) + uint64(b.cap)
		if int(b.cap) > d.cfg.LLCWays || b.at%size+uint32(b.cap) > size || end > uint64(d.next) {
			return "is not inside the carved slabs"
		}
		for at := b.at; uint64(at) < end; at++ {
			if claimed[at] {
				return fmt.Sprintf("overlaps another set's storage or a free block at way %d", at)
			}
			claimed[at] = true
		}
		return ""
	}
	resident := 0
	for set, st := range d.sets {
		if (st.cap > 0) != listed[set] {
			return fmt.Errorf("set %d: storage of %d ways, listed as stored %v", set, st.cap, listed[set])
		}
		if st.cap > 0 {
			if msg := claim(st); msg != "" {
				return fmt.Errorf("set %d: storage of %d ways at %d %s", set, st.cap, st.at, msg)
			}
		}
		lines, tags := d.stored(set)
		for w, ln := range lines {
			switch {
			case tags[w] == 0 && ln != (dirLine{}):
				return fmt.Errorf("set %d way %d: invalid way holds %+v", set, w, ln)
			case tags[w] != 0:
				if _, want := d.home(ln.addr); tags[w] != want {
					return fmt.Errorf("set %d way %d: filter tag %#x, the way's is %#x", set, w, tags[w], want)
				}
			}
		}
		valid := 0
		for w, ln := range d.lines(set) {
			if !d.atHome(set, ln.addr) {
				return fmt.Errorf("set %d way %d: line %#x is not at home", set, w, ln.addr)
			}
			valid++
		}
		switch {
		case st.cap > 0 && int(st.occ) != valid:
			return fmt.Errorf("set %d: stored with %d valid ways, occupancy count %d", set, valid, st.occ)
		case st.cap == 0 && int(st.occ) != runWays[set]:
			return fmt.Errorf("set %d: lazy with %d run ways, occupancy count %d", set, runWays[set], st.occ)
		}
		resident += int(st.occ)
	}
	if d.resident != resident {
		return fmt.Errorf("resident count %d, %d valid ways", d.resident, resident)
	}
	for k, free := range d.free {
		for _, b := range free {
			if int(b.cap) != k+1 {
				return fmt.Errorf("free block of %d ways at %d is listed with the blocks of %d", b.cap, b.at, k+1)
			}
			if msg := claim(b); msg != "" {
				return fmt.Errorf("free block of %d ways at %d %s", b.cap, b.at, msg)
			}
			lines, tags := d.block(b)
			for w, ln := range lines {
				if ln != (dirLine{}) || tags[w] != 0 {
					return fmt.Errorf("free block of %d ways at %d: way %d holds %+v, filter tag %#x", b.cap, b.at, w, ln, tags[w])
				}
			}
		}
	}
	if at := slices.Index(claimed, false); at >= 0 {
		return fmt.Errorf("carved way %d is neither a stored set's nor in a free block", at)
	}
	return nil
}
