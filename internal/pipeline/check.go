package pipeline

import (
	"fmt"
	"slices"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
)

// Check holds the core's derived state to a recomputation from what it is
// derived from, as coherence.System.CheckResidency does a directory's, and
// its pinned lines to the bounds the pin governor keeps. The head slot and
// every live slot's seq must be their place in the ring, every live
// Delay-On-Miss probe memo a fresh Probe, perfLines hold every performed
// load's line, the load count, the seq lists and the candidate lists a walk
// of the whole ROB (and under Fence every candidate past the gate bound
// held), the store-address filter a recount of the store queue and the write
// buffer, lastOdd the loads it must cover, every memory token its own slot,
// and the pinned lines and their LQ IDs the ROB's pinned loads. No L1 set
// may hold more pinned lines than L1Ways-1 (l1SetRoom), under Early Pinning
// no directory set more than Wd (paper Section 5.1.4), and the load queue
// no more pinned loads than it has entries.
// It returns the first violation found, or nil. Tests call it between
// cycles; the simulator never does.
func (c *Core) Check() error {
	for _, check := range []func() error{c.checkCandidates, c.checkStoreFilter, c.checkPins, c.checkSetBounds} {
		if err := check(); err != nil {
			return fmt.Errorf("core %d @%d: %w", c.id, c.now, err)
		}
	}
	return nil
}

// bruteForceCandidates recomputes the bookkeeping lists the way the cycle
// loop found its work before they existed: the unretired loads, stores and
// serializing ops by walking the whole ROB, and each load-queue candidate
// list by the filter its stage applied to every unretired load.
func (c *Core) bruteForceCandidates() (loads, stores, fences, issue, expose, spec []int64) {
	for seq := c.head; seq < c.tail; seq++ {
		e := c.at(seq)
		switch e.inst.Op {
		case isa.Load:
			loads = append(loads, seq)
		case isa.Store:
			stores = append(stores, seq)
		case isa.Fence, isa.Lock, isa.Barrier:
			fences = append(fences, seq)
		}
		if !e.isLoad() {
			continue
		}
		if e.state == stAddrDone {
			issue = append(issue, seq)
		}
		if e.invisible && !e.exposeDone && e.performed && e.token == 0 {
			expose = append(expose, seq)
		}
		if e.specToken != 0 && e.performed && e.inst.TransientAddr != 0 {
			spec = append(spec, seq)
		}
	}
	return
}

// checkCandidates holds the head slot and the slots' seqs to the ring, every
// live probe memo to a fresh Probe, the load count to the loads and locks in
// flight, every seq list to the brute-force walk, and under Fence every
// candidate past the gate bound to being held.
func (c *Core) checkCandidates() error {
	if got := int(c.head % int64(len(c.entries))); c.headSlot != got {
		return fmt.Errorf("headSlot %d, head %% len is %d", c.headSlot, got)
	}
	lq := 0
	for seq := c.head; seq < c.tail; seq++ {
		e := c.at(seq)
		if e.seq != seq {
			return fmt.Errorf("slot of seq %d holds seq %d", seq, e.seq)
		}
		if e.inst.Op == isa.Load || e.inst.Op == isa.Lock {
			lq++
		}
		if e.isLoad() && e.performed && c.perfLines&lineBit(e.line) == 0 {
			return fmt.Errorf("performed load %d's line %#x has no bit in perfLines %#x", seq, e.line, c.perfLines)
		}
		if e.probeEpoch == c.l1.TagEpoch() && e.probeHit != c.l1.Probe(e.probeLine) {
			return fmt.Errorf("seq %d remembers Probe(%#x) = %v at epoch %d, a fresh Probe disagrees",
				seq, e.probeLine, e.probeHit, e.probeEpoch)
		}
	}
	if c.loadsInROB != lq {
		return fmt.Errorf("loadsInROB = %d, the ROB [%d, %d) holds %d loads and locks", c.loadsInROB, c.head, c.tail, lq)
	}
	loads, stores, fences, issue, expose, spec := c.bruteForceCandidates()
	for _, l := range []struct {
		name string
		got  []int64
		want []int64
	}{
		{"loadSeqs", c.loadSeqs.seqs(), loads},
		{"storeSeqs", c.storeSeqs.seqs(), stores},
		{"fences", c.fences.seqs(), fences},
		{"issueCand", c.issueCand.seqs(), issue},
		{"exposeCand", c.exposeCand.seqs(), expose},
		{"specCand", c.specCand.seqs(), spec},
	} {
		if !slices.Equal(l.got, l.want) {
			return fmt.Errorf("%s = %v, a walk of the ROB [%d, %d) says %v", l.name, l.got, c.head, c.tail, l.want)
		}
	}
	if c.policy.Scheme != defense.Fence {
		return nil
	}
	bound := c.gate()
	for _, seq := range issue {
		if seq > bound && !c.at(seq).held {
			return fmt.Errorf("candidate %d is past Fence's gate bound %d and not held", seq, bound)
		}
	}
	return nil
}

// checkStoreFilter holds stFilter to a recount from the store queue and the
// write buffer, and lastOdd to the loads it must cover.
func (c *Core) checkStoreFilter() error {
	var want [len(c.stFilter)]uint16
	for _, seq := range c.storeSeqs.seqs() {
		if e := c.at(seq); e.addrReady {
			want[stHash(e.inst.Addr)]++
		}
	}
	for i := 0; i < c.wb.Len(); i++ {
		want[stHash(c.wb.At(i))]++
	}
	if c.stFilter != want {
		return fmt.Errorf("store-address filter differs from a recount of %d SQ entries and %d buffered stores",
			len(c.storeSeqs.seqs()), c.wb.Len())
	}
	for _, seq := range c.loadSeqs.seqs() {
		if e := c.at(seq); (e.inst.Fault || e.inst.TransientAddr != 0) && seq > c.lastOdd {
			return fmt.Errorf("load %d faults or has a transient address, lastOdd is %d", seq, c.lastOdd)
		}
	}
	return nil
}

// tokenErr reports a memory token at seq that does not name seq's own ROB
// slot, which LoadDone would deliver to another load.
func (c *Core) tokenErr(seq int64) error {
	if t := uint64(c.at(seq).token); t != 0 && t%uint64(len(c.entries)) != uint64(seq)%uint64(len(c.entries)) {
		return fmt.Errorf("seq %d: memory token %d names ROB slot %d, not its own", seq, t, t%uint64(len(c.entries)))
	}
	return nil
}

// pinTagsErr holds the pinned loads' extended LQ IDs, youngest first, to the
// last ones lqTagNext issued, as tagLive assumes.
func (c *Core) pinTagsErr() error {
	want := uint32(c.lqTagNext)
	for seq := c.tail - 1; seq >= c.head; seq-- {
		if e := c.at(seq); e.pinned {
			if want--; e.lqTag != want&c.lqTagMask {
				return fmt.Errorf("pinned load %d holds LQ ID %d, not %d: the pinned loads hold the last IDs issued", seq, e.lqTag, want&c.lqTagMask)
			}
		}
	}
	return nil
}

// checkPins holds every memory token to its slot, pinnedLines to the ROB's
// pinned loads' lines in seq order, their LQ IDs to the last ones issued and
// their number to the load-queue bound.
func (c *Core) checkPins() error {
	var want []uint64
	for seq := c.head; seq < c.tail; seq++ {
		if err := c.tokenErr(seq); err != nil {
			return err
		}
		if e := c.at(seq); e.pinned {
			want = append(want, e.line)
		}
	}
	if got := c.pinned(); !slices.Equal(got, want) {
		return fmt.Errorf("pinnedLines holds %#x, the ROB's pinned loads say %#x", got, want)
	}
	if len(want) > c.cfg.LQEntries {
		return fmt.Errorf("%d pinned loads, bounded by a %d-entry load queue", len(want), c.cfg.LQEntries)
	}
	return c.pinTagsErr()
}

// pinned returns a copy of pinnedLines, oldest first.
func (c *Core) pinned() []uint64 {
	lines := make([]uint64, c.pinnedLines.Len())
	for i := range lines {
		lines[i] = c.pinnedLines.At(i)
	}
	return lines
}

// checkSetBounds holds the distinct pinned lines of each L1 set to L1Ways-1
// and, under Early Pinning, of each directory set to Wd.
func (c *Core) checkSetBounds() error {
	l1, dir := map[uint32]int{}, map[uint32]int{}
	for _, line := range slices.Compact(slices.Sorted(slices.Values(c.pinned()))) {
		l1Key, dirKey := c.l1Key(line), c.dirKey(line)
		if l1[l1Key]++; l1[l1Key] > c.cfg.L1Ways-1 {
			return fmt.Errorf("L1 set %d holds more than %d pinned lines", l1Key, c.cfg.L1Ways-1)
		}
		if dir[dirKey]++; dir[dirKey] > c.cfg.Wd && c.policy.Variant == defense.EP {
			return fmt.Errorf("directory set %d holds more than %d pinned lines", dirKey, c.cfg.Wd)
		}
	}
	return nil
}
