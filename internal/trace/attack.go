package trace

import (
	"fmt"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/xrand"
)

// Attack is a deterministic adversarial workload: a transient-execution
// gadget that tries to encode Secret into observable microarchitectural
// state or timing through one specific channel. The security regression
// tier (internal/sectest) runs each kernel twice — Secret=0 and Secret=1 —
// under every defense policy and diffs the observable outcome; any
// divergence is a leak through that channel.
//
// The four kernels cover the squash sources of the paper's threat model
// plus the timing channel of Behnia et al.'s Speculative Interference
// Attacks:
//
//   - spectre_v1: a mispredicted branch shields a wrong-path load whose
//     address encodes the secret (the control channel, CondCtrl).
//   - alias: a load issued past an older unresolved-address store reads a
//     stale value; a dependent probe load carries the secret address via
//     TransientAddr until the store resolves and squashes it (the
//     memory-dependence channel, CondAlias).
//   - mcv: a victim load of a contested shared line performs early and is
//     squashed by a remote invalidation; its dependent probe again carries
//     the secret address transiently (the consistency channel, CondMCV).
//   - interference: the victim's wrong-path burst targets the LLC slice
//     selected by the secret; a second core streaming loads through one
//     slice observes its own latency shift when the directory's request
//     ports contend (run with arch.Config.DirPortsPerCycle > 0). The
//     channel is pure timing: invisible-speculation schemes that hide all
//     cache state still leak through it.
//
// All fields are scalar so the struct can join the content-addressed run
// identity (speckey.AttackCanonical).
type Attack struct {
	// AttackKind selects the kernel: "spectre_v1", "alias", "mcv" or
	// "interference".
	AttackKind string

	// Secret is the value the gadget tries to exfiltrate (0 or 1).
	Secret uint64

	// Iters is the number of gadget activations (default 16; the mcv and
	// interference kernels benefit from more to amortize timing races).
	Iters int

	// BurstLen is the interference kernel's wrong-path load burst length
	// (default 24).
	BurstLen int

	// TargetSlice is the LLC slice the interference attacker streams
	// through, and the victim's burst target when Secret is 0 (default 0).
	// When Secret is 1 the burst targets a different slice.
	TargetSlice int
}

// Attack address-space layout: far above the Profile regions so adversarial
// runs never collide with proxy footprints or prewarmed lines.
const (
	atkBase = uint64(1) << 44
	// Distinct sub-regions, 1 GiB apart.
	atkSecretCells = atkBase + 0<<30 // cells the transient gadget "reads"
	atkProbe       = atkBase + 1<<30 // probe array the secret indexes into
	atkVictim      = atkBase + 2<<30 // alias-kernel store/load collision cells
	atkCold        = atkBase + 3<<30 // mcv-kernel retirement-delay lines
	atkShared      = atkBase + 4<<30 // mcv-kernel contested line
	atkBurst       = atkBase + 5<<30 // interference-kernel victim burst
	atkStream      = atkBase + 6<<30 // interference-kernel attacker stream
)

// sliceStride is 8 lines: adding it to an address never changes the home
// LLC slice under the default 8-slice interleaving, so a secret-selected
// probe line differs in cache state but not in mesh/slice latency. The
// state channels stay state-only and never alias into timing channels.
const sliceStride = 8 * arch.LineBytes

// iterStride separates consecutive iterations' probe lines (a multiple of
// sliceStride, with room for both secret values in between).
const iterStride = 4 * sliceStride

func (a *Attack) iters() int {
	if a.Iters > 0 {
		return a.Iters
	}
	return 16
}

func (a *Attack) burstLen() int {
	if a.BurstLen > 0 {
		return a.BurstLen
	}
	return 24
}

// Name implements Source.
func (a *Attack) Name() string { return "attack_" + a.AttackKind }

// Cores implements Source: the spectre_v1 and alias gadgets are
// single-core; mcv and interference need an attacker core.
func (a *Attack) Cores() int {
	switch a.AttackKind {
	case "mcv", "interference":
		return 2
	}
	return 1
}

// probeAddr returns the architectural probe address for an iteration, and
// probeSecret the transient (secret-selected) one. Both live in the same
// LLC slice.
func probeAddr(iter int) uint64 { return atkProbe + uint64(iter)*iterStride }

func probeSecret(iter int, secret uint64) uint64 {
	return probeAddr(iter) + sliceStride + secret*sliceStride
}

// Generator implements Source.
func (a *Attack) Generator(core int, seed uint64) Generator {
	rng := xrand.New(seed).Derive(uint64(core)*2654435761 + 13)
	base := atkGen{atk: a, rng: rng}
	switch a.AttackKind {
	case "spectre_v1":
		return &spectreGen{base}
	case "alias":
		return &aliasGen{base}
	case "mcv":
		if core == 0 {
			return &mcvVictimGen{base}
		}
		return &mcvAttackerGen{base}
	case "interference":
		if core == 0 {
			return &intfVictimGen{base}
		}
		return &intfAttackerGen{base}
	}
	panic(fmt.Sprintf("trace: unknown attack kind %q", a.AttackKind))
}

// atkGen is the shared iteration/pending-queue machinery of the attack
// generators: Next drains a pending slice refilled once per iteration, and
// WrongPath walks a per-activation script that restarts whenever the
// correct path fetches (no correct-path fetch happens mid-activation).
type atkGen struct {
	atk      *Attack
	rng      *xrand.RNG
	pending  []isa.Inst
	pendPos  int
	iter     int
	wrongPos int
	wrong    []isa.Inst
}

// next drains the pending queue, calling refill once per iteration until
// the configured iteration count is reached.
func (g *atkGen) next(refill func()) isa.Inst {
	g.wrongPos = 0
	if g.pendPos >= len(g.pending) {
		if g.iter >= g.atk.iters() {
			return isa.Inst{Op: isa.Halt}
		}
		g.pending = g.pending[:0]
		g.pendPos = 0
		refill()
		g.iter++
	}
	in := g.pending[g.pendPos]
	g.pendPos++
	return in
}

// wrongNext walks the wrong-path script, padding with dependent ALU filler
// once the script runs out.
func (g *atkGen) wrongNext() isa.Inst {
	if g.wrongPos < len(g.wrong) {
		in := g.wrong[g.wrongPos]
		g.wrongPos++
		return in
	}
	return isa.Inst{Op: isa.ALU, Lat: 1, Deps: [2]int32{1, 2}}
}

// pad appends n dependent single-cycle ALU ops, jittered by the seed so
// distinct seeds yield distinct streams while one seed stays reproducible.
func (g *atkGen) pad(base int) {
	n := base + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		g.pending = append(g.pending, isa.Inst{Op: isa.ALU, Lat: 1, Deps: [2]int32{1}})
	}
}

// delayChain appends n chained FALU ops of the given latency; anything
// data-dependent on the last one resolves roughly n*lat cycles after the
// chain starts executing.
func (g *atkGen) delayChain(n int, lat uint8) {
	for i := 0; i < n; i++ {
		in := isa.Inst{Op: isa.FALU, Lat: lat}
		if i > 0 {
			in.Deps[0] = 1
		}
		g.pending = append(g.pending, in)
	}
}

// --- spectre_v1: the control channel ---

// spectreGen emits, per iteration, a long-resolving branch that always
// mispredicts. The wrong path loads a secret cell and then a probe line
// whose address encodes the secret; every instruction on it is bound to
// squash, so only pre-VP issue can leak.
type spectreGen struct{ atkGen }

func (g *spectreGen) Next() isa.Inst {
	return g.next(func() {
		iter := g.iter
		// ~4x60 cycles of branch-resolution delay: the transient window.
		g.delayChain(4, 60)
		g.pending = append(g.pending, isa.Inst{
			Op: isa.Branch, Taken: false, Mispredict: true, Deps: [2]int32{1},
		})
		g.pad(6)
		g.wrong = []isa.Inst{
			// The transient secret read: a fixed, secret-independent cell.
			// No deps: it must not wait on the (unresolved) branch.
			{Op: isa.Load, Addr: atkSecretCells},
			// The transmitter: its address encodes the secret. It depends
			// on the secret load (STT taint), and each iteration uses
			// fresh lines so it never hits in the L1 (DOM).
			{Op: isa.Load, Addr: probeSecret(iter, g.atk.Secret), Deps: [2]int32{1}},
		}
	})
}

func (g *spectreGen) WrongPath() isa.Inst { return g.wrongNext() }

// --- alias: the memory-dependence channel ---

// aliasGen emits, per iteration, a store whose address resolves late, a
// load to the same address that performs early (memory-dependence
// speculation), and a dependent probe load carrying the secret address in
// TransientAddr. When the store's address resolves, the alias check
// squashes the load and the probe; the replay uses the architectural
// probe address, so the secret line can only be touched inside the window.
type aliasGen struct{ atkGen }

func (g *aliasGen) Next() isa.Inst {
	return g.next(func() {
		iter := g.iter
		victim := atkVictim + uint64(iter)*sliceStride
		// ~4x50 cycles until the store's address resolves.
		g.delayChain(4, 50)
		g.pending = append(g.pending,
			// Store with a late-resolving address (producer: FALU chain).
			isa.Inst{Op: isa.Store, Addr: victim, Deps: [2]int32{1}},
			// The mis-speculated load: same address, issues past the store
			// (its address is unknown), performs from memory, and is
			// squashed when the store resolves.
			isa.Inst{Op: isa.Load, Addr: victim},
			// The transmitter: address depends on the stale loaded value.
			isa.Inst{Op: isa.Load, Addr: probeAddr(iter),
				TransientAddr: probeSecret(iter, g.atk.Secret), Deps: [2]int32{1}},
		)
		g.pad(6)
	})
}

func (g *aliasGen) WrongPath() isa.Inst { return g.wrongNext() }

// --- mcv: the memory-consistency channel ---

// mcvVictimGen emits, per iteration, a cold load that delays retirement, a
// load of a line the attacker core keeps writing, and a dependent probe
// carrying the secret address in TransientAddr. The attacker's
// invalidation squashes the contested load (a memory-consistency
// violation) while it is performed-but-unretired, squashing the probe with
// it. Pinning (LP/EP) instead defers the invalidation, so the probe's
// operands are never transient — the paper's guarantee that pinning does
// not weaken the defense.
type mcvVictimGen struct{ atkGen }

func (g *mcvVictimGen) Next() isa.Inst {
	return g.next(func() {
		iter := g.iter
		g.pending = append(g.pending,
			// Cold line: ~DRAM latency at the head of the ROB, holding
			// retirement open while the contested load performs.
			isa.Inst{Op: isa.Load, Addr: atkCold + uint64(iter)*sliceStride},
			// The contested shared line the attacker keeps invalidating.
			isa.Inst{Op: isa.Load, Addr: atkShared},
			// The transmitter, address-dependent on the contested load.
			isa.Inst{Op: isa.Load, Addr: probeAddr(iter),
				TransientAddr: probeSecret(iter, g.atk.Secret), Deps: [2]int32{1}},
		)
		g.pad(8)
	})
}

func (g *mcvVictimGen) WrongPath() isa.Inst { return g.wrongNext() }

// mcvAttackerGen stores to the contested line on a short period so an
// invalidation lands in every victim iteration's speculation window. It
// runs enough iterations to outlast the victim.
type mcvAttackerGen struct{ atkGen }

func (g *mcvAttackerGen) Next() isa.Inst {
	// The victim's iteration takes ~DRAM latency; ~10 spacer ALUs put one
	// store every ~30 cycles, several per victim window.
	if g.iter >= g.atk.iters()*8+32 {
		return isa.Inst{Op: isa.Halt}
	}
	if g.pendPos >= len(g.pending) {
		g.pending = g.pending[:0]
		g.pendPos = 0
		g.pending = append(g.pending, isa.Inst{Op: isa.Store, Addr: atkShared})
		for i := 0; i < 10; i++ {
			g.pending = append(g.pending, isa.Inst{Op: isa.ALU, Lat: 3, Deps: [2]int32{1}})
		}
		g.iter++
	}
	in := g.pending[g.pendPos]
	g.pendPos++
	return in
}

func (g *mcvAttackerGen) WrongPath() isa.Inst { return g.wrongNext() }

// --- interference: the timing channel ---

// intfVictimGen emits, per iteration, a mispredicted long-resolving branch
// whose wrong path bursts loads at the LLC slice selected by the secret.
// Under invisible speculation the burst leaves no cache state, but its
// requests still occupy the target directory's ports; an attacker
// streaming loads through one slice sees its own completion time shift
// with the secret (Behnia et al.). Run with DirPortsPerCycle > 0.
type intfVictimGen struct{ atkGen }

// burstSlice returns the slice the victim's burst targets: the attacker's
// stream slice when the secret is 0, the diagonally opposite one when 1.
func (a *Attack) burstSlice() int {
	if a.Secret == 0 {
		return a.TargetSlice
	}
	return (a.TargetSlice + 4) % 8
}

func (g *intfVictimGen) Next() isa.Inst {
	return g.next(func() {
		iter := g.iter
		a := g.atk
		// ~2x60 cycles of transient window per iteration.
		g.delayChain(2, 60)
		g.pending = append(g.pending, isa.Inst{
			Op: isa.Branch, Taken: false, Mispredict: true, Deps: [2]int32{1},
		})
		g.pad(4)
		// Wrong path: a secret-independent trigger load, then a burst of
		// loads (all address-dependent on the trigger, so STT taints
		// them) whose lines all home on the secret-selected slice.
		slice := a.burstSlice()
		w := []isa.Inst{{Op: isa.Load,
			Addr: atkSecretCells + 2*arch.LineBytes}}
		for i := 0; i < a.burstLen(); i++ {
			line := atkBurst/arch.LineBytes +
				uint64(iter*a.burstLen()+i)*8 + uint64(slice)
			w = append(w, isa.Inst{Op: isa.Load, Addr: line * arch.LineBytes,
				Deps: [2]int32{int32(i + 1)}})
		}
		g.wrong = w
	})
}

func (g *intfVictimGen) WrongPath() isa.Inst { return g.wrongNext() }

// intfAttackerGen is the measuring core: a pointer-chase style serialized
// miss stream whose lines all home on TargetSlice. Any cycle its request
// finds the directory ports consumed by the victim's burst delays it — and
// every delay shifts the core's final completion cycle, the timing the
// oracle compares.
type intfAttackerGen struct{ atkGen }

func (g *intfAttackerGen) Next() isa.Inst {
	// Two serialized loads per victim iteration, with margin.
	if g.iter >= g.atk.iters()*3+16 {
		return isa.Inst{Op: isa.Halt}
	}
	g.iter++
	line := atkStream/arch.LineBytes +
		uint64(g.iter)*8 + uint64(g.atk.TargetSlice)
	return isa.Inst{Op: isa.Load, Addr: line * arch.LineBytes, Deps: [2]int32{1}}
}

func (g *intfAttackerGen) WrongPath() isa.Inst { return g.wrongNext() }
