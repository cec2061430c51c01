// Package trace generates the instruction streams the simulator executes.
//
// The paper evaluates SPEC17 (single-threaded) and SPLASH2/PARSEC
// (8-threaded) applications on gem5. Those binaries cannot run on a
// synthetic simulator, so this package provides deterministic synthetic
// proxies: one Profile per benchmark, combining access-pattern kernels
// (streaming, strided, pointer-chasing, random-footprint, hot-set) and
// per-benchmark parameters for branch misprediction, dependence structure,
// store behaviour, and (for parallel workloads) sharing, locking and
// barriers. The proxies exercise exactly the microarchitectural behaviours
// that determine Pinned Loads' results: where squash conditions resolve
// relative to load issue, L1/LLC miss levels, memory-level parallelism,
// load-address dependences, and cross-core write sharing. See DESIGN.md
// for the substitution rationale.
package trace

import (
	"pinnedloads/internal/arch"
	"pinnedloads/internal/isa"
)

// Generator produces one core's instruction stream. Implementations must
// be deterministic functions of their construction parameters.
type Generator interface {
	// Next returns the next correct-path instruction.
	Next() isa.Inst
	// WrongPath returns the next wrong-path instruction, fetched while a
	// mispredicted branch is unresolved. Wrong-path instructions are
	// bound to squash; they exist to exercise transient execution.
	WrongPath() isa.Inst
}

// Source describes a workload: a name plus per-core generators.
type Source interface {
	// Name identifies the workload (benchmark name for proxies).
	Name() string
	// Cores returns the natural core count (1 for SPEC17 proxies, 8 for
	// parallel proxies); runs may override it.
	Cores() int
	// Generator returns the deterministic stream for the given core.
	Generator(core int, seed uint64) Generator
}

// Warmer is the optional warm-start side of a Source: the LLC-resident
// working set a run of the workload starts with, as the simulator installs
// it before the first cycle (modeling a checkpointed simulation interval).
type Warmer interface {
	// WarmRanges returns the lines to pre-install on behalf of the given
	// core, as runs of consecutive lines in installation order.
	WarmRanges(core int) []arch.LineRange
}

// Script is a fixed instruction sequence used by tests and examples. When
// Loop is true the sequence repeats forever; otherwise a Halt follows.
type Script struct {
	ScriptName string
	NumCores   int
	// Insts[core] is the sequence for that core; core indexes beyond the
	// slice reuse Insts[0].
	Insts [][]isa.Inst
	Loop  bool
	// Wrong is the wrong-path filler instruction (zero value = Nop).
	Wrong isa.Inst
}

// Name implements Source.
func (s *Script) Name() string { return s.ScriptName }

// Cores implements Source.
func (s *Script) Cores() int {
	if s.NumCores > 0 {
		return s.NumCores
	}
	return 1
}

// Generator implements Source.
func (s *Script) Generator(core int, _ uint64) Generator {
	seq := s.Insts[0]
	if core < len(s.Insts) {
		seq = s.Insts[core]
	}
	return &scriptGen{seq: seq, loop: s.Loop, wrong: s.Wrong}
}

type scriptGen struct {
	seq   []isa.Inst
	pos   int
	loop  bool
	wrong isa.Inst
}

func (g *scriptGen) Next() isa.Inst {
	if g.pos >= len(g.seq) {
		if !g.loop || len(g.seq) == 0 {
			return isa.Inst{Op: isa.Halt}
		}
		g.pos = 0
	}
	in := g.seq[g.pos]
	g.pos++
	return in
}

func (g *scriptGen) WrongPath() isa.Inst { return g.wrong }
