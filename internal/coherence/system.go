package coherence

import (
	"fmt"
	"strings"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/mesh"
	"pinnedloads/internal/stats"
)

// System is the complete coherent memory hierarchy: one L1 per core, one
// directory/LLC slice per mesh node, and the interconnect between them.
type System struct {
	cfg   *arch.Config
	mesh  *mesh.Mesh
	fab   *fabric
	l1s   []*L1
	dirs  []*Dir
	count *stats.Counters
}

// NewSystem builds the memory hierarchy for the given configuration. Core
// hooks must be attached to every L1 (SetHooks) before the first Tick.
func NewSystem(cfg *arch.Config, count *stats.Counters) *System {
	m := mesh.New(cfg.MeshCols, cfg.MeshRows, cfg.HopCycles)
	fab := newFabric(m, count, cfg.FabricSlots())
	s := &System{cfg: cfg, mesh: m, fab: fab, count: count}
	for i := 0; i < cfg.Cores; i++ {
		s.l1s = append(s.l1s, newL1(i, cfg, fab, count))
	}
	for i := 0; i < cfg.LLCSlices; i++ {
		s.dirs = append(s.dirs, newDir(i, cfg, fab, count))
	}
	return s
}

// L1 returns core i's L1 controller.
func (s *System) L1(i int) *L1 { return s.l1s[i] }

// Dir returns directory/LLC slice i.
func (s *System) Dir(i int) *Dir { return s.dirs[i] }

// Dirs returns the number of directory/LLC slices.
func (s *System) Dirs() int { return len(s.dirs) }

// Prewarm gives the LLC runs of lines as present-but-uncached, modeling the
// warm cache state a checkpointed simulation interval starts from. Each slice
// takes its own lines of every range, in order: a line an earlier range of
// the machine's warm history holds, or whose set already has LLCWays lines,
// is skipped (nothing evicts during warm-up, so that is what present means),
// and any other takes way occ of its set and the slice's next stamp. The
// lines are recorded as runs, as a checkpoint writes them, and no set is
// stored until the protocol first opens it. Prewarm is the warm-up of a
// machine: it panics on a slice that has stored a set.
func (s *System) Prewarm(runs []arch.LineRange) {
	for _, d := range s.dirs {
		d.prewarm(runs)
	}
}

// ObservableState renders the attacker-observable memory-system state, the
// projection the leakage oracle (internal/sectest) and the RCP rollback tests
// compare: every L1's tag array (lines, states, LRU order) and outstanding
// MSHRs, and every directory slice's line state. It excludes anything
// timing-derived, which the oracle compares separately, and the RCP journal,
// which is invisible microarchitectural metadata.
func (s *System) ObservableState() string {
	var b strings.Builder
	for i, l := range s.l1s {
		fmt.Fprintf(&b, "L1[%d]\n", i)
		for _, ln := range l.TagSnapshot() {
			fmt.Fprintf(&b, " set=%d addr=%#x state=%d rank=%d\n",
				ln.Set, ln.Addr, ln.State, ln.Rank)
		}
		for _, a := range l.MSHRLines() {
			fmt.Fprintf(&b, " mshr=%#x\n", a)
		}
	}
	for i, d := range s.dirs {
		fmt.Fprintf(&b, "Dir[%d]\n", i)
		for _, ln := range d.Snapshot() {
			fmt.Fprintf(&b, " set=%d addr=%#x sharers=%#x owner=%d busy=%d rank=%d\n",
				ln.Set, ln.Addr, ln.Sharers, ln.Owner, ln.Busy, ln.Rank)
		}
	}
	return b.String()
}

// Mesh returns the interconnect model (for traffic statistics).
func (s *System) Mesh() *mesh.Mesh { return s.mesh }

// Tick advances the memory system by one cycle: it delivers every message
// due this cycle to its controller, which may send further messages for
// future cycles.
func (s *System) Tick(cycle int64) {
	for _, l := range s.l1s {
		l.newCycle(cycle)
	}
	for _, d := range s.dirs { // an idle slice has nothing to reset or serve
		if d.demandUsed != 0 || d.backlog.Len() > 0 {
			d.newCycle()
		}
	}
	for _, m := range s.fab.due(cycle) {
		if m.Dst.Dir {
			s.dirs[m.Dst.Idx].handle(m)
		} else {
			s.l1s[m.Dst.Idx].handle(m)
		}
	}
}

// NextDue returns the first cycle after the last Tick in which the memory
// system has anything to do: the next message arrival, the very next cycle
// while a directory still has demand requests queued, or math.MaxInt64 when
// nothing is in flight. A Tick for any cycle before it only advances the
// clocks, so one Tick at the last such cycle leaves the same state as
// ticking each of them.
func (s *System) NextDue() int64 {
	for _, d := range s.dirs {
		if d.backlog.Len() > 0 {
			return s.fab.cycle + 1
		}
	}
	return s.fab.nextDue()
}
