// Package defense defines the speculative-execution defense schemes and
// threat models the simulator evaluates, mirroring the paper's Tables 2
// and 3. A Policy combines a hardware defense scheme (how pre-VP loads are
// protected) with a configuration variant (which threat model defines the
// VP, and whether Pinned Loads extends the scheme with Late or Early
// Pinning). The pipeline consults the Policy to decide when each load may
// issue and when it reaches its Visibility Point.
package defense

import (
	"cmp"
	"fmt"
	"strings"
)

// Scheme is a hardware defense scheme (paper Table 2).
type Scheme uint8

const (
	// Unsafe is the unprotected baseline: loads issue as soon as their
	// addresses are ready.
	Unsafe Scheme = iota
	// Fence stalls every speculative load until it reaches its VP, as if
	// a fence preceded it.
	Fence
	// DOM (Delay-On-Miss) lets pre-VP loads execute only if they hit in
	// the L1; misses wait for the VP.
	DOM
	// STT (Speculative Taint Tracking) stalls only loads whose address
	// operands are tainted by transiently accessed data; untainted loads
	// issue freely.
	STT
	// IS (invisible speculation, InvisiSpec-style) lets pre-VP loads
	// execute without changing any cache state, at the cost of a second
	// "exposure" access once the load reaches its VP. It represents the
	// third protection category the paper lists (invisible execution);
	// Pinned Loads helps it by letting loads reach the VP before issuing
	// at all, so the double access disappears.
	IS
	// RCP (reversible coherence protocol, after "A Case for Reversible
	// Coherence Protocol") lets pre-VP loads execute eagerly but buffers
	// every coherence-state transition they cause — L1 installs, directory
	// sharer registrations, LLC fills — and reverses the buffered state on
	// squash instead of fencing, delaying or hiding the access. Squashed
	// speculation therefore leaves the cache hierarchy byte-identical to
	// its pre-speculation state.
	RCP
)

var schemeNames = [...]string{Unsafe: "Unsafe", Fence: "Fence", DOM: "DOM", STT: "STT", IS: "IS", RCP: "RCP"}

// String returns the scheme name as used in the paper.
func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// Schemes lists the protected schemes evaluated in the paper's figures.
func Schemes() []Scheme { return []Scheme{Fence, DOM, STT} }

// AllSchemes additionally includes the InvisiSpec-style scheme, which the
// paper discusses as a protectable category but does not evaluate. RCP is
// deliberately excluded: it is a design-space comparison point outside the
// paper's figures, evaluated only by the security tier's extra matrix rows.
func AllSchemes() []Scheme { return []Scheme{Fence, DOM, STT, IS} }

// Variant is a configuration extension of a defense scheme (paper Table 3).
type Variant uint8

const (
	// Comp is the unmodified scheme under the Comprehensive threat model.
	Comp Variant = iota
	// LP is Comp extended with Pinned Loads using Late Pinning.
	LP
	// EP is Comp extended with Pinned Loads using Early Pinning.
	EP
	// Spectre is the unmodified scheme under the Spectre threat model
	// (only control-flow squashes are considered).
	Spectre
)

var variantNames = [...]string{Comp: "COMP", LP: "LP", EP: "EP", Spectre: "SPECTRE"}

// String returns the variant name as used in the paper's figures.
func (v Variant) String() string {
	if int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("Variant(%d)", uint8(v))
}

// Variants lists the configurations in the paper's figure order.
func Variants() []Variant { return []Variant{Comp, LP, EP, Spectre} }

// Consistency selects the memory consistency model the simulated machine
// enforces. The paper evaluates Pinned Loads under TSO; RC is the relaxed
// design point the surrounding literature (e.g. the STT artifact's
// --needsTSO knob) treats as a first-class axis. The zero value is TSO so
// every pre-existing Policy literal keeps its meaning.
type Consistency uint8

const (
	// TSO is total store order: loads must appear to execute in order, so
	// a remote invalidation of a performed-but-unretired load's line is a
	// memory consistency violation that squashes the load, and the write
	// buffer drains in FIFO order.
	TSO Consistency = iota
	// RC is release consistency: load→load order is not enforced (remote
	// invalidations never squash, and the CondMCV visibility condition is
	// vacuous), and the write buffer may merge stores out of order.
	RC
)

var consistencyNames = [...]string{TSO: "TSO", RC: "RC"}

// String returns the consistency-model name.
func (c Consistency) String() string {
	if int(c) < len(consistencyNames) {
		return consistencyNames[c]
	}
	return fmt.Sprintf("Consistency(%d)", uint8(c))
}

// Consistencies lists the supported consistency models.
func Consistencies() []Consistency { return []Consistency{TSO, RC} }

// Cond is a bitmask of squash sources a load must be safe from before it
// reaches its Visibility Point (the four conditions of paper Section 1).
type Cond uint8

const (
	// CondCtrl: all older branches are resolved.
	CondCtrl Cond = 1 << iota
	// CondAlias: no unresolved older load or store the load could alias
	// with (all older memory addresses are resolved).
	CondAlias
	// CondException: neither the load nor any older instruction can
	// raise an exception (the load's own address has translated).
	CondException
	// CondMCV: neither the load nor an older load can suffer a memory
	// consistency violation.
	CondMCV
)

// CondsComprehensive is the full Comprehensive-model condition set.
const CondsComprehensive = CondCtrl | CondAlias | CondException | CondMCV

// CondsSpectre is the Spectre-model condition set.
const CondsSpectre = CondCtrl

// Has reports whether the mask includes c.
func (m Cond) Has(c Cond) bool { return m&c != 0 }

// condNames[i] names the condition bit 1<<i.
var condNames = [...]string{"ctrl", "alias", "exception", "mcv"}

// Names lists the names of the conditions set in the mask, in the
// canonical ctrl, alias, exception, mcv order.
func (m Cond) Names() []string {
	var out []string
	for i, n := range condNames {
		if m&(1<<i) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// String lists the conditions in the mask.
func (m Cond) String() string {
	if m&CondsComprehensive == 0 {
		return "none"
	}
	return strings.Join(m.Names(), "+")
}

// Policy is the complete protection configuration of one simulation run.
type Policy struct {
	Scheme  Scheme
	Variant Variant
	// Conds overrides the VP condition mask when non-zero; the Figure 1
	// study uses it to apply the conditions cumulatively.
	Conds Cond
	// Consistency is the enforced memory model; the zero value (TSO) is
	// the paper's machine.
	Consistency Consistency
}

// VPConds returns the effective VP condition mask. Under RC the CondMCV
// condition is vacuous — no memory-consistency squashes exist — so it is
// removed from whichever mask applies (including explicit Conds overrides).
func (p Policy) VPConds() Cond {
	mask := p.Conds
	if mask == 0 {
		if p.Variant == Spectre {
			mask = CondsSpectre
		} else {
			mask = CondsComprehensive
		}
	}
	if p.Consistency == RC {
		mask &^= CondMCV
	}
	return mask
}

// Pinning reports whether the policy uses Pinned Loads (LP or EP).
func (p Policy) Pinning() bool { return p.Variant == LP || p.Variant == EP }

// String renders the policy like the paper's figure labels. Non-TSO
// policies carry an "@model" suffix; TSO policies render exactly as they
// did before the consistency axis existed, so goldens, cache keys and
// checkpoint fingerprints for the paper's machine are unchanged.
func (p Policy) String() string {
	s := ""
	if p.Conds != 0 {
		s = fmt.Sprintf("%s[%s]", p.Scheme, p.Conds)
	} else {
		s = fmt.Sprintf("%s-%s", p.Scheme, p.Variant)
	}
	if p.Consistency != TSO {
		s += "@" + p.Consistency.String()
	}
	return s
}

// ParsePolicy resolves the four axes' names (any case: "fence", "EP", "rc",
// "mcv") into a Policy; it accepts exactly the names the String methods
// return, and "" as each axis's zero value (Unsafe, COMP, TSO, the
// variant's natural condition set). It is the only reader of the name
// tables: the wire spec and every command-line flag go through it.
func ParsePolicy(scheme, variant, consistency string, conds []string) (Policy, error) {
	sch, err := lookup("scheme", schemeNames[:], cmp.Or(scheme, schemeNames[0]))
	if err != nil {
		return Policy{}, err
	}
	v, err := lookup("variant", variantNames[:], cmp.Or(variant, variantNames[0]))
	if err != nil {
		return Policy{}, err
	}
	con, err := lookup("consistency model", consistencyNames[:], cmp.Or(consistency, consistencyNames[0]))
	if err != nil {
		return Policy{}, err
	}
	var mask Cond
	for _, name := range conds {
		bit, err := lookup("VP condition", condNames[:], name)
		if err != nil {
			return Policy{}, err
		}
		mask |= 1 << bit
	}
	return Policy{Scheme: Scheme(sch), Variant: Variant(v), Conds: mask, Consistency: Consistency(con)}, nil
}

// lookup finds name in one axis's table, ignoring case.
func lookup(axis string, table []string, name string) (uint8, error) {
	for i, n := range table {
		if strings.EqualFold(name, n) {
			return uint8(i), nil
		}
	}
	return 0, fmt.Errorf("defense: unknown %s %q (want %s)", axis, name, list(table, " or "))
}

// list renders a table's names in lower case, comma-separated, with last
// between the final two.
func list(table []string, last string) string {
	s := strings.ToLower(strings.Join(table[:len(table)-1], ", "))
	return s + last + strings.ToLower(table[len(table)-1])
}

// SchemeNames, VariantNames, ConsistencyNames and CondNames list the names
// ParsePolicy accepts on each axis, for flag help texts.
func SchemeNames() string      { return list(schemeNames[:], ", ") }
func VariantNames() string     { return list(variantNames[:], ", ") }
func ConsistencyNames() string { return list(consistencyNames[:], ", ") }
func CondNames() string        { return list(condNames[:], ", ") }
