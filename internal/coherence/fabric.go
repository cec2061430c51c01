package coherence

import (
	"math"
	"math/bits"

	"pinnedloads/internal/mesh"
	"pinnedloads/internal/stats"
)

// fabric is the message transport: a calendar queue that delivers messages
// at their arrival cycle, in send order within a cycle. Latencies come from
// the mesh model; self events pay no mesh latency.
type fabric struct {
	mesh *mesh.Mesh
	// ring is the calendar: slot at&mask holds the messages arriving at
	// cycle at. Its length, arch.Config.FabricSlots, is a power of two above
	// the longest delay the configuration schedules.
	ring  [][]Msg
	cycle int64
	count *stats.Counters
	// msgCount holds one pre-bound "coh.msg.<kind>" counter handle per
	// message kind: the per-send increment is a pointer add, where the
	// previous "coh.msg." + Kind.String() concatenation allocated on
	// every message — the cycle loop's only steady-state allocation.
	msgCount [numKinds]*uint64

	// Derived, never serialized (DESIGN.md §9). mask is len(ring)-1.
	// occupied has bit s set while ring[s] holds a message, so the next
	// delivery cycle is a bitmap scan (nextDue); a loading State rebuilds
	// it. scheduled counts every message and self event ever queued: a core
	// compares it around its tick to learn whether its L1 sent anything.
	mask      int64
	occupied  []uint64
	scheduled uint64
}

func newFabric(m *mesh.Mesh, count *stats.Counters, slots int) *fabric {
	f := &fabric{mesh: m, count: count, ring: make([][]Msg, slots),
		mask: int64(slots - 1), occupied: make([]uint64, slots/64)}
	for k := kindNone; k < numKinds; k++ {
		f.msgCount[k] = count.Handle("coh.msg." + k.String())
	}
	return f
}

// meshNode maps a participant to its mesh node. Cores and same-indexed LLC
// slices share a node, as in the paper's tiled layout.
func meshNode(a Addr) int { return a.Idx }

// send transmits m across the mesh after an extra processing delay at the
// sender (for example the LLC access latency).
func (f *fabric) send(m Msg, extraDelay int) {
	flits := mesh.ControlFlits
	if m.Kind.isData() {
		flits = mesh.DataFlits
	}
	lat := f.mesh.Latency(meshNode(m.Src), meshNode(m.Dst), flits)
	*f.msgCount[m.Kind]++
	f.schedule(m, lat+extraDelay)
}

// self schedules a local event (no mesh traversal, no traffic accounting).
func (f *fabric) self(m Msg, delay int) {
	if delay < 1 {
		delay = 1
	}
	f.schedule(m, delay)
}

func (f *fabric) schedule(m Msg, delay int) {
	if delay < 1 {
		delay = 1
	}
	if int64(delay) > f.mask {
		panic("coherence: message delay exceeds fabric ring")
	}
	at := (f.cycle + int64(delay)) & f.mask
	f.ring[at] = append(f.ring[at], m)
	f.occupied[at/64] |= 1 << uint(at%64)
	f.scheduled++
}

// nextDue returns the first cycle after the last delivered one at which a
// message arrives, or math.MaxInt64 when nothing is in flight.
func (f *fabric) nextDue() int64 {
	start := int((f.cycle + 1) & f.mask)
	words, bit := len(f.occupied), uint(start%64)
	// Scan a full turn of the ring from start's word: that word comes up
	// twice, first for the slots from start on, last for the ones before
	// it, which are the furthest away.
	for i := 0; i <= words; i++ {
		m := f.occupied[(start/64+i)%words]
		switch i {
		case 0:
			m &^= 1<<bit - 1
		case words:
			m &= 1<<bit - 1
		}
		if m != 0 {
			return f.cycle + 1 + int64(64*i+bits.TrailingZeros64(m)) - int64(bit)
		}
	}
	return math.MaxInt64
}

// due returns the messages arriving at the given cycle. The returned slice
// is reused on the next wrap; callers must consume it immediately.
func (f *fabric) due(cycle int64) []Msg {
	f.cycle = cycle
	slot := cycle & f.mask
	msgs := f.ring[slot]
	f.ring[slot] = f.ring[slot][:0]
	f.occupied[slot/64] &^= 1 << uint(slot%64)
	return msgs
}
