// Package isa defines the micro-operation format consumed by the simulated
// pipeline. The simulator is trace-driven: workload generators (package
// trace) emit streams of dependence-annotated micro-ops rather than decoded
// machine code. Data dependences are expressed as backward distances ("this
// op consumes the value produced k ops earlier"), which encodes the dataflow
// graph directly and lets the pipeline model register dependences, address
// dependences, and STT taint propagation without a register renamer.
package isa

import "fmt"

// Op is the micro-operation kind.
type Op uint8

const (
	// Nop does nothing but occupies a ROB slot for one cycle of execute.
	Nop Op = iota
	// ALU is an integer operation with a short latency.
	ALU
	// FALU is a floating-point operation with a longer latency.
	FALU
	// Branch is a conditional branch; Taken is the actual outcome and
	// Mispredict marks ops the (parametric) predictor gets wrong.
	Branch
	// Load reads from memory at Addr once its address operands are ready.
	Load
	// Store writes to memory at Addr; data is deposited into the write
	// buffer at retirement and merged into the cache per TSO.
	Store
	// Fence is an MFENCE: younger loads may not be pinned or issued past
	// it, and it does not retire until the write buffer drains.
	Fence
	// Lock is an atomic read-modify-write (e.g. lock-prefixed x86 op). It
	// behaves as a load+store with full fence semantics.
	Lock
	// Barrier synchronizes all cores in a parallel workload: it retires
	// only when every core has reached the same barrier index.
	Barrier
	// Halt ends the trace for a core.
	Halt
)

var opNames = [...]string{
	Nop: "nop", ALU: "alu", FALU: "falu", Branch: "branch", Load: "load",
	Store: "store", Fence: "fence", Lock: "lock", Barrier: "barrier", Halt: "halt",
}

// String returns the lower-case mnemonic for the op.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the op accesses memory.
func (o Op) IsMem() bool { return o == Load || o == Store || o == Lock }

// MaxDeps is the number of dependence slots per micro-op.
const MaxDeps = 2

// Inst is one micro-operation. The zero value is a Nop with no dependences.
type Inst struct {
	// Op is the operation kind.
	Op Op

	// Lat is the execution latency in cycles for ALU/FALU ops (minimum 1
	// is applied by the pipeline). Memory latency comes from the memory
	// system and branch latency is fixed.
	Lat uint8

	// Deps are backward distances to data producers (0 = unused slot).
	// For loads and stores these feed address generation; for ALU/FALU/
	// Branch ops they feed the computation.
	Deps [MaxDeps]int32

	// Addr is the effective byte address for Load/Store/Lock ops.
	Addr uint64

	// Taken is the actual outcome of a Branch.
	Taken bool

	// Mispredict marks a Branch the parametric predictor mispredicts, or
	// a Load/Store whose unresolved-address speculation will fail (used
	// for alias-misspeculation injection).
	Mispredict bool

	// Fault marks an op that raises an exception at execution (e.g. a
	// page fault during address translation); the pipeline squashes and
	// the workload supplies the post-fault stream.
	Fault bool

	// TransientAddr, when non-zero on a Load, is the address the load uses
	// if its address generation completes while an older squash source
	// (any Comprehensive-model condition) is still unresolved; otherwise
	// the load uses Addr. It models a secret-dependent address computed
	// from transiently forwarded data: on the replayed (architecturally
	// correct) path the older sources have resolved, so the load reads
	// Addr and the secret never reaches retirement. Adversarial kernels
	// use it to emit alias- and MCV-window gadgets; ordinary workloads
	// leave it zero.
	TransientAddr uint64
}

// String renders the instruction for debugging and trace dumps.
func (in *Inst) String() string {
	switch in.Op {
	case Load, Store, Lock:
		return fmt.Sprintf("%s addr=%#x deps=%v", in.Op, in.Addr, in.Deps)
	case Branch:
		return fmt.Sprintf("branch taken=%t mispredict=%t deps=%v", in.Taken, in.Mispredict, in.Deps)
	default:
		return fmt.Sprintf("%s lat=%d deps=%v", in.Op, in.Lat, in.Deps)
	}
}
