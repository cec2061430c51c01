package core

import (
	"pinnedloads/internal/arch"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
	"pinnedloads/internal/xrand"
)

// kernels are what a perturbation of FuzzDerivedState picks its workload
// from, beside randomScript: every proxy, the four attack kernels and the
// scripts below.
var kernels = func() (ks []trace.Source) {
	for _, suite := range [][]*trace.Profile{trace.SPEC17(), trace.SPLASH2(), trace.PARSEC()} {
		for _, p := range suite {
			ks = append(ks, p)
		}
	}
	for _, kind := range []string{"spectre_v1", "alias", "mcv", "interference"} {
		ks = append(ks, &trace.Attack{AttackKind: kind, Secret: 1})
	}
	return append(ks, contendedLines(), barrierWaits(), pinStream(), faultStream())
}()

// contendedLines is a two-core reader/writer fight over three lines: with a
// one-entry Cannot-Pin Table the Inv* of the starved writer overflow it.
func contendedLines() *trace.Script {
	var reader, writer []isa.Inst
	for l := uint64(0); l < 3; l++ {
		line := 0x40000 + l*0x1000
		reader = append(reader, isa.Inst{Op: isa.Load, Addr: line}, isa.Inst{Op: isa.Load, Addr: line + 8},
			isa.Inst{Op: isa.ALU, Lat: 1})
		writer = append(writer, isa.Inst{Op: isa.Store, Addr: line}, isa.Inst{Op: isa.ALU, Lat: 1})
	}
	return &trace.Script{ScriptName: "contended", NumCores: 2, Insts: [][]isa.Inst{reader, writer}, Loop: true}
}

// barrierWaits is a two-core workload whose fast core spends most of each
// period asleep at a barrier, until the slow core's dependence chain (itself
// asleep between completions) arrives.
func barrierWaits() *trace.Script {
	fast := []isa.Inst{{Op: isa.ALU, Lat: 1}, {Op: isa.Barrier}}
	var slow []isa.Inst
	for i := 0; i < 6; i++ {
		slow = append(slow, isa.Inst{Op: isa.FALU, Lat: 9, Deps: [2]int32{1}})
	}
	slow = append(slow, isa.Inst{Op: isa.Barrier})
	return &trace.Script{ScriptName: "barrier-waits", NumCores: 2, Insts: [][]isa.Inst{fast, slow}, Loop: true}
}

// randomScript builds a deterministic pseudo-random 2-core workload mixing
// every op kind, with occasional contended lines.
func randomScript(seed int) *trace.Script {
	rng := xrand.New(uint64(seed)*2654435761 + 17)
	gen := func(core int) []isa.Inst {
		var out []isa.Inst
		for i := 0; i < 64; i++ {
			r := rng.Float64()
			var in isa.Inst
			switch {
			case r < 0.25:
				in = isa.Inst{Op: isa.Load, Addr: randomAddr(rng, core)}
				if rng.Bool(0.3) {
					in.Deps[0] = int32(1 + rng.Intn(4))
				}
			case r < 0.38:
				in = isa.Inst{Op: isa.Store, Addr: randomAddr(rng, core),
					Deps: [2]int32{int32(1 + rng.Intn(4)), int32(1 + rng.Intn(4))}}
			case r < 0.5:
				in = isa.Inst{Op: isa.Branch, Taken: rng.Bool(0.5),
					Mispredict: rng.Bool(0.1), Deps: [2]int32{int32(1 + rng.Intn(4))}}
			case r < 0.53:
				in = isa.Inst{Op: isa.Fence}
			case r < 0.55:
				in = isa.Inst{Op: isa.Lock, Addr: 0x900000}
			default:
				in = isa.Inst{Op: isa.ALU, Lat: uint8(1 + rng.Intn(4)),
					Deps: [2]int32{int32(1 + rng.Intn(6))}}
			}
			out = append(out, in)
		}
		return out
	}
	return &trace.Script{ScriptName: "random", NumCores: 2, Insts: [][]isa.Inst{gen(0), gen(1)}, Loop: true}
}

// randomAddr mixes private and contended lines.
func randomAddr(rng *xrand.RNG, core int) uint64 {
	if rng.Bool(0.2) {
		return 0x800000 + rng.Uint64n(8)*64 // shared, contended
	}
	return uint64(core+1)<<24 + rng.Uint64n(256)*64
}

// pinStream mixes mispredicted branches with L1-missing loads, which sit
// speculative long enough to be pinned (internal/pipeline has it too).
func pinStream() *trace.Script {
	var insts []isa.Inst
	for i := 0; i < 24; i++ {
		if i%4 == 0 {
			insts = append(insts, isa.Inst{Op: isa.Branch, Taken: i%8 == 0, Mispredict: i%8 == 4})
		}
		insts = append(insts, isa.Inst{Op: isa.Load, Addr: 0x200000 + uint64(i)*8*64})
		insts = append(insts, isa.Inst{Op: isa.ALU, Lat: 2})
	}
	return &trace.Script{ScriptName: "pin-stream", Insts: [][]isa.Inst{insts}, Loop: true}
}

// faultStream holds a window of loads, one faulting, behind a branch that
// waits 40 cycles (internal/pipeline's issue-stage oracle has it too).
func faultStream() *trace.Script {
	cfg := arch.PaperConfig(1)
	insts := []isa.Inst{
		{Op: isa.ALU, Lat: 40},
		{Op: isa.Branch, Deps: [2]int32{1}},
	}
	for i := uint64(0); i < 12; i++ {
		load := isa.Inst{Op: isa.Load, Addr: 0x300000 + i*uint64(cfg.L1Sets)*arch.LineBytes, Fault: i == 6}
		if i%2 == 1 {
			load.Deps = [2]int32{int32(3 * i)}
		}
		if i == 4 {
			load.Addr = 0x500000 + 2*64
		}
		insts = append(insts, load,
			isa.Inst{Op: isa.Store, Addr: 0x500000 + i*64, Fault: i == 9},
			isa.Inst{Op: isa.ALU, Lat: 1})
	}
	return &trace.Script{ScriptName: "fault-stream", Insts: [][]isa.Inst{insts}, Loop: true}
}
