// Package sectest is the simulator's security regression tier: a leakage
// oracle that runs deterministic adversarial workloads (internal/trace's
// Attack kernels) under every defense policy and decides, per policy x
// kernel cell, whether the configuration leaks.
//
// The oracle exploits the simulator's determinism. Each kernel is run
// twice with identical seeds and configuration, differing only in the
// secret the transient gadget tries to exfiltrate. In a machine that
// blocks the kernel's channel the two runs are indistinguishable: the
// post-run cache and directory state match line for line, and every core
// halts on the same cycle. Any divergence is a leak, classified as
//
//   - StateLeak: the post-run microarchitectural state differs (cache tag
//     arrays, replacement order, coherence/directory state) — the channel
//     a cache side-channel attack like Flush+Reload reads out.
//   - TimingLeak: a core's halt cycle differs — the channel a speculative
//     interference attack (Behnia et al.) reads out, which exists even
//     when all cache state is hidden.
//
// Because both runs share one seed, workload jitter cancels exactly; the
// secret is the only input bit that changes, so the oracle has no false
// positives by construction. False negatives are bounded by the kernels:
// each is built so the unprotected baseline demonstrably leaks (the
// matrix test pins that, keeping the kernels honest).
package sectest

import (
	"fmt"
	"sort"
	"strings"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

// Kernels lists the adversarial kernels in matrix order, one per squash
// source of the threat model plus the interference timing channel.
func Kernels() []string {
	return []string{"spectre_v1", "alias", "mcv", "interference"}
}

// Policies lists the full security matrix: the unprotected baseline plus
// every protected scheme under every variant, followed by the consistency
// design points. The consistency rows are appended after the legacy TSO
// rows so those stay a byte-identical prefix of the golden matrix — the
// differential-consistency test pins exactly that.
func Policies() []defense.Policy {
	out := []defense.Policy{{Scheme: defense.Unsafe}}
	for _, s := range defense.AllSchemes() {
		for _, v := range defense.Variants() {
			out = append(out, defense.Policy{Scheme: s, Variant: v})
		}
	}
	// The reversible-rollback scheme (RCP) under both threat models.
	out = append(out,
		defense.Policy{Scheme: defense.RCP},
		defense.Policy{Scheme: defense.RCP, Variant: defense.Spectre},
	)
	// Every scheme's Comprehensive point under release consistency.
	for _, s := range []defense.Scheme{
		defense.Unsafe, defense.Fence, defense.DOM,
		defense.STT, defense.IS, defense.RCP,
	} {
		out = append(out, defense.Policy{Scheme: s, Consistency: defense.RC})
	}
	return out
}

// ConfigFor returns the machine configuration a kernel runs under: the
// paper's Table 1 machine, with the directory request ports constrained
// for the interference kernel so slice contention is observable (an
// unlimited-port directory has no timing channel to find).
func ConfigFor(kernel string) arch.Config {
	atk := trace.Attack{AttackKind: kernel}
	cfg := arch.PaperConfig(atk.Cores())
	if kernel == "interference" {
		cfg.DirPortsPerCycle = 1
		// The attacker's measuring stream must observe raw directory
		// latency; the stride prefetcher would run ahead of it and absorb
		// the contention delay (a real attacker defeats it with an
		// irregular stride).
		cfg.Prefetch = false
	}
	return cfg
}

// drainCycles is how long the memory system keeps ticking after the last
// core halts, so in-flight fills (including those of squashed loads, whose
// cache footprint is exactly what leaks) install before the oracle
// snapshots the state.
const drainCycles = 4096

// Observation is everything the oracle considers observable about one run:
// an attacker with cache side channels sees State, an attacker with a
// stopwatch sees Timing. Everything else (counters, event traces) is
// diagnostic only.
type Observation struct {
	// State is the canonical rendering of the post-run microarchitectural
	// state: every L1's tag array (lines, coherence states, LRU order) and
	// outstanding MSHRs, and every directory slice's line state.
	State string
	// Timing is each core's halt cycle.
	Timing []int64
	// Retired is each core's retired instruction count (architectural;
	// equal across secrets by construction).
	Retired []int64
	// CPI is core 0's cycles per retired instruction, the security tier's
	// performance envelope metric.
	CPI float64
	// Events summarizes the run's obs event stream (kind, and for
	// squashes kind.cause, to counts). Diagnostic: it shows which squash
	// sources the kernel actually exercised.
	Events map[string]int64
	// Key is the run's content-addressed identity (speckey), tying the
	// observation to the exact kernel, policy, configuration and seed.
	Key string
}

// Observe runs one kernel under one policy with the given secret and
// returns the observable outcome.
func Observe(pol defense.Policy, kernel string, secret, seed uint64) (Observation, error) {
	atk := &trace.Attack{AttackKind: kernel, Secret: secret}
	cfg := ConfigFor(kernel)
	sys, err := core.New(cfg, pol, atk, seed)
	if err != nil {
		return Observation{}, err
	}
	ring := obs.NewRing(1 << 17)
	sys.SetRecorder(ring)
	// Run to halt: the kernels are finite, so an absurd measure target
	// just means "until every core halts".
	if _, err := sys.Run(0, 1<<40); err != nil {
		return Observation{}, fmt.Errorf("sectest: %s under %s: %w", kernel, pol, err)
	}
	// Let in-flight transactions land before snapshotting: a squashed
	// load's fill that installs after the halt is still attacker-visible
	// state.
	cyc := sys.Cycle()
	for i := int64(1); i <= drainCycles; i++ {
		sys.Mem().Tick(cyc + i)
	}

	o := Observation{
		State:  sys.Mem().ObservableState(),
		Events: eventSummary(ring),
		// A run-to-halt has no warmup or measure length: the description
		// is keyed as it stands, not resolved to the sizing defaults.
		Key: (&simrun.Run{Benchmark: atk.Name(), Workload: atk, Policy: pol, Config: &cfg,
			Params: simrun.Params{Seed: seed}}).Key(),
	}
	for i := 0; i < cfg.Cores; i++ {
		o.Timing = append(o.Timing, sys.Core(i).HaltCycle())
		o.Retired = append(o.Retired, sys.Core(i).Retired())
	}
	if o.Retired[0] > 0 {
		o.CPI = float64(o.Timing[0]) / float64(o.Retired[0])
	}
	return o, nil
}

// eventSummary folds the ring's event stream into per-kind counts
// (squashes additionally keyed by cause).
func eventSummary(ring *obs.Ring) map[string]int64 {
	out := make(map[string]int64)
	for _, ev := range ring.Events() {
		k := ev.Kind.String()
		if ev.Kind == obs.KindSquash {
			k += "." + ev.Cause.String()
		}
		out[k]++
	}
	return out
}

// Verdict is the oracle's decision for one policy x kernel cell.
type Verdict struct {
	StateLeak  bool
	TimingLeak bool
}

// Leaks reports whether any channel leaked.
func (v Verdict) Leaks() bool { return v.StateLeak || v.TimingLeak }

// String renders the verdict as it appears in the matrix table.
func (v Verdict) String() string {
	switch {
	case v.StateLeak && v.TimingLeak:
		return "LEAK(state+timing)"
	case v.StateLeak:
		return "LEAK(state)"
	case v.TimingLeak:
		return "LEAK(timing)"
	}
	return "blocked"
}

// Compare diffs two observations of the same configuration that differed
// only in the secret.
func Compare(a, b Observation) Verdict {
	v := Verdict{StateLeak: a.State != b.State}
	if len(a.Timing) != len(b.Timing) {
		v.TimingLeak = true
		return v
	}
	for i := range a.Timing {
		if a.Timing[i] != b.Timing[i] {
			v.TimingLeak = true
		}
	}
	return v
}

// Cell is one evaluated cell of the security matrix.
type Cell struct {
	Kernel  string
	Policy  defense.Policy
	Verdict Verdict
	// CPI is the secret=0 run's core-0 CPI (the envelope metric).
	CPI float64
	// Events is the secret=0 run's event summary (diagnostics).
	Events map[string]int64
}

// EvalCell runs one policy x kernel cell: two observations, one diff.
func EvalCell(pol defense.Policy, kernel string, seed uint64) (Cell, error) {
	a, err := Observe(pol, kernel, 0, seed)
	if err != nil {
		return Cell{}, err
	}
	b, err := Observe(pol, kernel, 1, seed)
	if err != nil {
		return Cell{}, err
	}
	return Cell{
		Kernel:  kernel,
		Policy:  pol,
		Verdict: Compare(a, b),
		CPI:     a.CPI,
		Events:  a.Events,
	}, nil
}

// Matrix evaluates every policy against every kernel.
func Matrix(seed uint64) ([]Cell, error) {
	var cells []Cell
	for _, kernel := range Kernels() {
		for _, pol := range Policies() {
			c, err := EvalCell(pol, kernel, seed)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// RenderMatrix renders cells as the security-matrix table, one row per
// policy, one column per kernel.
func RenderMatrix(cells []Cell) string {
	byPolicy := map[string]map[string]Verdict{}
	var polOrder []string
	for _, c := range cells {
		p := c.Policy.String()
		if byPolicy[p] == nil {
			byPolicy[p] = map[string]Verdict{}
			polOrder = append(polOrder, p)
		}
		byPolicy[p][c.Kernel] = c.Verdict
	}
	kernels := Kernels()
	w := 20
	var b strings.Builder
	line := fmt.Sprintf("%-14s", "policy")
	for _, k := range kernels {
		line += fmt.Sprintf("%-*s", w, k)
	}
	b.WriteString(strings.TrimRight(line, " ") + "\n")
	for _, p := range polOrder {
		line = fmt.Sprintf("%-14s", p)
		if !strings.HasSuffix(line, " ") {
			// Policy names of 14+ characters (the consistency rows) would
			// otherwise run into the first verdict column. The legacy rows
			// are all shorter, so their rendering is unchanged.
			line += " "
		}
		for _, k := range kernels {
			line += fmt.Sprintf("%-*s", w, byPolicy[p][k].String())
		}
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	return b.String()
}

// Expected returns the verdict the threat-model matrix claims for one
// policy x kernel cell. This is the contract the security tier enforces:
//
//   - Unsafe leaks every channel: the three state kernels diverge in cache
//     state, the interference kernel additionally in timing.
//   - Fence, DOM and STT under the Comprehensive model (Comp, and the LP/EP
//     pinning extensions) block all four kernels outright.
//   - IS under the Comprehensive model hides all state but still leaks the
//     interference kernel's timing channel: invisible accesses occupy
//     directory ports even though they install nothing (Behnia et al.).
//   - The Spectre variant of every scheme blocks the control channel but
//     leaks the alias and mcv kernels: their transmitters sit on correct
//     paths with no older branch, so the Spectre-model VP is already
//     reached when the transient window is still open.
//   - RCP under the Comprehensive model blocks all four kernels: pre-VP
//     loads access memory eagerly, but every cache and directory change
//     is journaled and reversed on squash, and its directory requests
//     ride a reserved virtual network that claims no shared ports. Under
//     the Spectre model RCP inherits the model's blind spots exactly like
//     the delay schemes: the alias and mcv transmitters are past the
//     Spectre-model VP, so they issue as ordinary (irreversible) loads.
//   - Under RC the mcv kernel goes dark for every scheme, the unprotected
//     baseline included: RC permits load-load reordering, so the stale
//     read the kernel provokes is architecturally legal — the LQ never
//     snoops invalidations, no squash occurs, and no transient window
//     opens. The other three kernels keep their TSO verdicts.
//
// Late and Early Pinning never change a verdict relative to Comp — the
// paper's claim that pinning recovers performance without weakening the
// defense — which the matrix test asserts structurally as well.
func Expected(pol defense.Policy, kernel string) Verdict {
	if pol.Consistency == defense.RC && kernel == "mcv" {
		return Verdict{} // the stale read is legal; nothing is transient
	}
	if pol.Scheme == defense.Unsafe {
		if kernel == "interference" {
			return Verdict{StateLeak: true, TimingLeak: true}
		}
		return Verdict{StateLeak: true}
	}
	spectreModel := pol.VPConds() == defense.CondsSpectre
	switch kernel {
	case "spectre_v1":
		return Verdict{} // every scheme guards the control channel
	case "alias", "mcv":
		return Verdict{StateLeak: spectreModel}
	case "interference":
		// The victim's burst is control-shielded, so even the Spectre
		// model delays it — but IS only hides its state, not its port
		// contention. RCP's burst does issue, reversibly and without
		// touching the contended directory ports.
		return Verdict{TimingLeak: pol.Scheme == defense.IS}
	}
	panic("sectest: unknown kernel " + kernel)
}

// envKey identifies one CPI-envelope row: the consistency model is a
// performance axis of its own (RC removes load-load ordering stalls), so
// a scheme's TSO and RC envelopes are tracked separately.
type envKey struct {
	Scheme      defense.Scheme
	Consistency defense.Consistency
}

// cpiEnvelopes bounds each scheme x consistency x kernel cell's core-0
// CPI (secret=0 run, seed 1): [low, high] spans the measured CPIs of the
// scheme's variants with ~25% headroom. A breach means the defense's
// performance character changed — a pinning optimization regressed, or a
// scheme stopped gating what it should — even if no leak appeared.
var cpiEnvelopes = map[envKey]map[string][2]float64{
	{defense.Unsafe, defense.TSO}: {
		"spectre_v1": {14.0, 25.0}, "alias": {12.4, 20.8},
		"mcv": {8.6, 14.5}, "interference": {11.4, 19.1},
	},
	{defense.Fence, defense.TSO}: {
		"spectre_v1": {14.0, 25.0}, "alias": {2.0, 20.8},
		"mcv": {1.9, 21.0}, "interference": {11.4, 19.1},
	},
	{defense.DOM, defense.TSO}: {
		"spectre_v1": {14.0, 25.0}, "alias": {2.0, 20.8},
		"mcv": {2.0, 23.7}, "interference": {11.4, 19.1},
	},
	{defense.STT, defense.TSO}: {
		"spectre_v1": {14.0, 25.0}, "alias": {12.4, 20.8},
		"mcv": {1.6, 14.5}, "interference": {11.4, 19.1},
	},
	{defense.IS, defense.TSO}: {
		"spectre_v1": {14.0, 25.0}, "alias": {12.4, 20.8},
		"mcv": {1.6, 23.0}, "interference": {11.4, 19.1},
	},
	// The mcv span under RCP covers both threat models: COMP pays the
	// retire-time validation round trips (9.3), SPECTRE's irreversible
	// post-VP issues land in between (11.6).
	{defense.RCP, defense.TSO}: {
		"spectre_v1": {14.0, 25.0}, "alias": {12.4, 20.8},
		"mcv": {6.9, 14.5}, "interference": {11.4, 19.1},
	},
	// Under RC the mcv kernel's contested load never squashes or stalls
	// for load-load order, so every scheme's mcv CPI collapses to the
	// kernel's compute bound; spectre_v1 and interference are untouched
	// by the consistency model (no load-load edges in their hot paths).
	{defense.Unsafe, defense.RC}: {
		"spectre_v1": {14.0, 25.0}, "alias": {12.4, 20.8},
		"mcv": {1.2, 2.1}, "interference": {11.4, 19.1},
	},
	{defense.Fence, defense.RC}: {
		"spectre_v1": {14.0, 25.0}, "alias": {2.0, 3.4},
		"mcv": {1.6, 2.8}, "interference": {11.4, 19.1},
	},
	{defense.DOM, defense.RC}: {
		"spectre_v1": {14.0, 25.0}, "alias": {2.0, 3.4},
		"mcv": {1.5, 2.7}, "interference": {11.4, 19.1},
	},
	{defense.STT, defense.RC}: {
		"spectre_v1": {14.0, 25.0}, "alias": {12.4, 20.8},
		"mcv": {1.2, 2.1}, "interference": {11.4, 19.1},
	},
	{defense.IS, defense.RC}: {
		"spectre_v1": {14.0, 25.0}, "alias": {12.4, 20.8},
		"mcv": {1.1, 2.0}, "interference": {11.4, 19.1},
	},
	{defense.RCP, defense.RC}: {
		"spectre_v1": {14.0, 25.0}, "alias": {12.4, 20.8},
		"mcv": {1.5, 2.7}, "interference": {11.4, 19.1},
	},
}

// CPIEnvelope returns the [low, high] CPI bounds for a policy x kernel
// cell and whether an envelope is defined for it. Only the policy's
// scheme and consistency select the envelope; the variants of one scheme
// share a row by design.
func CPIEnvelope(pol defense.Policy, kernel string) ([2]float64, bool) {
	env, ok := cpiEnvelopes[envKey{pol.Scheme, pol.Consistency}][kernel]
	return env, ok
}

// eventsString renders an event summary for test failure messages.
func eventsString(ev map[string]int64) string {
	keys := make([]string, 0, len(ev))
	for k := range ev {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, ev[k]))
	}
	return strings.Join(parts, " ")
}
