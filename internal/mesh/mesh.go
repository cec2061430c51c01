// Package mesh models the on-chip interconnect: an ordered 2-D mesh with XY
// routing and a fixed per-hop latency (4x2, 1 cycle/hop, 128-bit links in
// the paper's Table 1). The model is latency- and traffic-accurate at the
// message level: each message pays the XY hop distance plus a router cost,
// and the network counts messages and flits so the harness can reproduce
// the paper's Section 9.1.3 traffic analysis. Link contention is not
// modeled (the paper reports Pinned Loads has no significant traffic
// impact, so latency dominates).
package mesh

import (
	"fmt"

	"pinnedloads/internal/ckptio"
)

// Mesh is a cols x rows mesh. Node i sits at column i%cols, row i/cols.
type Mesh struct {
	cols, rows int
	hopCycles  int

	messages uint64
	flits    uint64
}

// ControlFlits and DataFlits are the message sizes used for traffic
// accounting with 128-bit links: a control message is one flit; a data
// message carries a 64-byte line (four 128-bit flits) plus a header.
const (
	ControlFlits = 1
	DataFlits    = 5
)

// New returns a mesh with the given geometry and per-hop latency.
func New(cols, rows, hopCycles int) *Mesh {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("mesh: invalid geometry %dx%d", cols, rows))
	}
	if hopCycles < 0 {
		panic("mesh: negative hop latency")
	}
	return &Mesh{cols: cols, rows: rows, hopCycles: hopCycles}
}

// Nodes returns the number of mesh nodes.
func (m *Mesh) Nodes() int { return m.cols * m.rows }

// Hops returns the XY-routed hop count between nodes a and b.
func (m *Mesh) Hops(a, b int) int {
	ax, ay := a%m.cols, a/m.cols
	bx, by := b%m.cols, b/m.cols
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Latency returns the cycles a message takes from node a to node b and
// records the message for traffic accounting. dataFlits is the message size
// in flits (use ControlFlits or DataFlits).
func (m *Mesh) Latency(a, b, dataFlits int) int {
	m.messages++
	m.flits += uint64(dataFlits)
	// One router traversal even for local delivery, plus one per hop.
	return m.hopCycles * (1 + m.Hops(a, b))
}

// Messages returns the total messages sent.
func (m *Mesh) Messages() uint64 { return m.messages }

// Flits returns the total flits sent.
func (m *Mesh) Flits() uint64 { return m.flits }

// State walks the traffic counters, the mesh's only mutable state.
func (m *Mesh) State(s ckptio.State) {
	s.U64(&m.messages)
	s.U64(&m.flits)
}
