package pipeline

import (
	"math"
	"math/bits"
)

// Quiescent-core sleep. A tick is quiet when it received no input — no
// completion due, no message handled by the L1 since the last tick, no
// barrier arrival elsewhere, not the cycle the frontend stall ends — and
// changed no simulated state except its charges (charge). Tick is a
// deterministic function of that state and those inputs, and reads the cycle
// number only to index the calendar and to compare against stallUntil, so
// the tick after a quiet one repeats it exactly for as long as no input
// arrives: the same state, the same charges. A tick that could be quiet (it
// starts with no input and nothing ready to execute) is bracketed by the
// tripwire; if it is quiet, its charges are the whole effect of a cycle and
// later ticks add them instead of walking the stages (replay), until an
// input wakes the core.
//
// All of it is derived state: never serialized, reset when State loads.

// maxCharges bounds a tick's charges: a cause, a dispatch and a pin stall.
const maxCharges = 3

// charge counts the cycle against h, one of its per-cycle tallies, and
// records it: a quiet tick's charges are what a sleeping core replays.
func (c *Core) charge(h *uint64) {
	*h++
	c.charges[c.nCharges] = h
	c.nCharges++
}

// tripwire is the scalar state a tick can move, recorded before the stages
// of a watched tick and compared after them. It backs the c.active marks at the sites that
// change state the scalars do not show (a flag inside a ROB entry, a CST
// probe, a consumed wrong-path instruction): a quiet tick must pass both.
type tripwire struct {
	head, tail                             int64
	vpFrontier, pinVPFrontier, pinFrontier int64
	pinPendingSeq, nextToken               int64
	genNext, tagEpoch, scheduled, barrier  uint64
	wb, ready, window                      int
}

// arm records the tripwire ahead of the stages.
func (c *Core) arm() {
	c.wire = tripwire{
		head: c.head, tail: c.tail,
		vpFrontier: c.vpFrontier, pinVPFrontier: c.pinVPFrontier, pinFrontier: c.pinFrontier,
		pinPendingSeq: c.pinPendingSeq, nextToken: c.nextToken,
		genNext: c.genNext, tagEpoch: c.l1.TagEpoch(), scheduled: c.l1.Scheduled(),
		barrier: c.barrierEpoch(),
		wb:      c.wb.Len(), ready: len(c.readyQ), window: len(c.window),
	}
}

// tripped reports whether anything moved since arm; a busy cycle leaves at
// the first or second comparison.
func (c *Core) tripped() bool {
	w := &c.wire
	return w.tail != c.tail || w.head != c.head || w.genNext != c.genNext ||
		w.vpFrontier != c.vpFrontier || w.pinVPFrontier != c.pinVPFrontier || w.pinFrontier != c.pinFrontier ||
		w.pinPendingSeq != c.pinPendingSeq || w.nextToken != c.nextToken ||
		w.tagEpoch != c.l1.TagEpoch() || w.scheduled != c.l1.Scheduled() ||
		w.barrier != c.barrierEpoch() ||
		w.wb != c.wb.Len() || w.ready != len(c.readyQ) || w.window != len(c.window)
}

func (c *Core) barrierEpoch() uint64 {
	if c.bar == nil {
		return 0
	}
	return c.bar.epoch
}

// wake makes the next tick a full evaluation; everything that changes the
// core's state from outside a tick calls it.
func (c *Core) wake() { c.asleep = false }

// inputDue reports whether the tick at now has something to react to. It
// consumes the L1's touched mark, so it runs once per tick.
func (c *Core) inputDue(now int64) bool {
	touched := c.l1.TakeTouched()
	return touched || c.calMask&(1<<uint(now&calSlotMask)) != 0 ||
		now == c.stallUntil || c.barrierEpoch() != c.barrierSeen
}

// settle ends an evaluated tick: if it was quiet, the core falls asleep with
// the tick's charges as its replay. watched says the tripwire was recorded
// ahead of the stages; a tick that was not watched cannot be quiet, because
// it started with an input or something to execute.
func (c *Core) settle(watched bool) {
	c.barrierSeen = c.barrierEpoch()
	c.asleep = watched && !c.active && c.l1.PortsUsed() == 0 && !c.tripped()
}

// sleepThrough accounts k cycles as copies of the quiet tick. The counters
// are brought up to date at once, so they are exact at every cycle.
func (c *Core) sleepThrough(k int64) {
	for _, h := range c.charges[:c.nCharges] {
		*h += uint64(k)
	}
	if c.cpt != nil {
		c.cpt.SampleN(k)
	}
	c.slept += k
}

// WakeCycle returns the first cycle after the last Tick that the core must
// evaluate: the next one unless it is asleep, else the earlier of its next
// completion and the end of a frontend stall (math.MaxInt64 if neither is
// pending). A message handled by its L1 or a barrier arrival on another core
// wakes it sooner; the caller accounts for those.
func (c *Core) WakeCycle() int64 {
	next := c.now + 1
	if !c.asleep || c.barrierEpoch() != c.barrierSeen {
		return next
	}
	w := int64(math.MaxInt64)
	if c.calMask != 0 {
		// Rotate the slot of cycle next to bit 0: bit j is cycle next+j.
		w = next + int64(bits.TrailingZeros64(bits.RotateLeft64(c.calMask, -int(next&calSlotMask))))
	}
	if c.stallUntil >= next && c.stallUntil < w {
		w = c.stallUntil
	}
	return w
}

// FastForward advances a sleeping core k cycles at once, leaving it exactly
// as k Ticks would. The caller guarantees now+k < WakeCycle() and that the
// core's L1 handles no message in the skipped cycles.
func (c *Core) FastForward(k int64) {
	c.now += k
	c.sleepThrough(k)
}

// SleptCycles returns how many cycles the core replayed instead of
// evaluating, fast-forwarded ones included (a host-side figure for tests and
// EXPERIMENTS.md; it is not a simulated statistic).
func (c *Core) SleptCycles() int64 { return c.slept }

// Quiet reports whether the last Tick was a fixed point: it changed no
// simulated state other than its charges (for the fixed-point oracle).
func (c *Core) Quiet() bool { return c.asleep }

// Charges returns the tallies the last evaluated Tick charged, which a
// sleeping core replays (for the replay oracle).
func (c *Core) Charges() []*uint64 { return c.charges[:c.nCharges] }

// GateVisits returns how many times the issue gate (mayIssueLoad) was
// evaluated, and ForwardScans how many store-forwarding scans got past the
// store-address filter: host work counts for tests, like SleptCycles.
func (c *Core) GateVisits() int64   { return c.gateVisits }
func (c *Core) ForwardScans() int64 { return c.forwardScans }
