package trace

import (
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/xrand"
)

// Decode bounds: pending scripts are a few dozen instructions, branch sites
// a fixed 64.
const (
	maxPending = 1 << 12
	maxSites   = 1 << 10
)

func walkInsts(s ckptio.State, insts *[]isa.Inst) {
	ckptio.Slice(s, insts, maxPending)
	for i := range *insts {
		s.Inst(&(*insts)[i])
	}
}

func walkRNG(s ckptio.State, r *xrand.RNG) {
	v := r.State()
	s.U64(&v)
	r.SetState(v)
}

// State walks a profile generator created from one Profile, core and seed:
// the stream position, RNG streams, kernel cursors and lazily built branch
// sites.
func (g *profileGen) State(s ckptio.State) {
	walkRNG(s, g.rng)
	walkRNG(s, g.wrongRNG)
	if !s.Geometry(len(g.kernels), "generator kernels") {
		return
	}
	for i := range g.kernels {
		s.U64(&g.kernels[i].pos)
		s.I64(&g.kernels[i].lastChase)
	}
	s.I64(&g.idx)
	s.I64(&g.lastLoad)
	// sites is built lazily and its construction consumes RNG draws, so
	// nil-ness must round-trip exactly.
	built := g.sites != nil
	s.Bool(&built)
	if built {
		ckptio.Slice(s, &g.sites, maxSites)
		for i := range g.sites {
			s.F64(&g.sites[i])
		}
	} else {
		g.sites = nil
	}
	walkInsts(s, &g.pending)
	s.Int(&g.pendPos)
	s.Int(&g.sinceBarrier)
}

// State walks a script generator (position only; the sequence is
// configuration).
func (g *scriptGen) State(s ckptio.State) {
	s.Int(&g.pos)
}

// State walks the shared attack-generator machinery of a generator created
// from one Attack, core and seed; the method is promoted into every attack
// kernel's generator, which keeps no state of its own beyond the embedded
// atkGen.
func (g *atkGen) State(s ckptio.State) {
	walkRNG(s, g.rng)
	walkInsts(s, &g.pending)
	s.Int(&g.pendPos)
	s.Int(&g.iter)
	s.Int(&g.wrongPos)
	walkInsts(s, &g.wrong)
}
