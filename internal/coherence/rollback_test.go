package coherence

import (
	"testing"

	"pinnedloads/internal/xrand"
)

// trialLines is the address pool the rollback trials draw from: a mix of
// lines that collide in L1 sets and lines homed on different directory
// slices, so trials cover sharer-bit reuse, spec installs next to
// architectural lines, and cross-slice traffic.
func trialLines() []uint64 {
	var lines []uint64
	for i := 0; i < 12; i++ {
		lines = append(lines, 0x4000+uint64(i)*0x40+uint64(i%3)*0x10000)
	}
	return lines
}

// TestRCPRollbackProperty is the reversible-speculation invariant, pinned
// under randomized schedules: after an arbitrary warmup of architectural
// loads and stores, a burst of reversible (RCP) speculative loads that is
// then entirely squashed must leave the cache and directory fingerprint
// exactly where it started. Trials randomize the warmup, which lines the
// burst touches (hits, misses, lines owned elsewhere), and the abandon
// timing — including squashes that land while the speculative fill is
// still in flight.
func TestRCPRollbackProperty(t *testing.T) {
	const trials = 128
	lines := trialLines()
	for trial := 0; trial < trials; trial++ {
		rng := xrand.New(uint64(trial) + 1)
		h := newHarness(t, 2)
		token := int64(1)

		// Architectural warmup: random demand loads and ownership
		// transactions from both cores.
		for n := rng.Intn(16) + 4; n > 0; n-- {
			core := rng.Intn(2)
			line := lines[rng.Intn(len(lines))]
			if rng.Bool(0.3) {
				h.sys.L1(core).Acquire(line)
			} else {
				h.sys.L1(core).Load(token, line)
				token++
			}
			h.step(rng.Intn(30))
		}
		h.settle(t, 5000)
		for core := 0; core < 2; core++ {
			for _, line := range lines {
				if rng.Bool(0.2) && h.sys.L1(core).HasWritable(line) {
					h.sys.L1(core).MergeStore(line)
				}
			}
		}
		h.settle(t, 5000)
		pre := h.sys.ObservableState()

		// Speculative episode: a burst of reversible loads...
		type specRef struct {
			core  int
			token int64
		}
		var burst []specRef
		for n := rng.Intn(8) + 1; n > 0; n-- {
			core := rng.Intn(2)
			line := lines[rng.Intn(len(lines))]
			if h.sys.L1(core).LoadSpec(token, line) != LoadBlocked {
				burst = append(burst, specRef{core, token})
			}
			token++
			h.step(rng.Intn(40))
		}
		// ...entirely squashed, in random order, sometimes while the
		// speculative fill is still in flight.
		for len(burst) > 0 {
			i := rng.Intn(len(burst))
			h.sys.L1(burst[i].core).SpecAbandon(burst[i].token)
			burst = append(burst[:i], burst[i+1:]...)
			h.step(rng.Intn(20))
		}
		h.checkAll(t)

		if post := h.sys.ObservableState(); post != pre {
			t.Fatalf("trial %d: rollback did not restore state\n--- pre ---\n%s\n--- post ---\n%s",
				trial, pre, post)
		}
	}
}

// TestRCPMixedCommitAbandonInvariants drives randomized episodes where
// some reversible loads commit (retire) and the rest are squashed, then
// checks the global coherence invariants at the quiescent point: partial
// rollback must never strand a sharer bit, orphan a spec-born line, or
// break inclusion/single-writer.
func TestRCPMixedCommitAbandonInvariants(t *testing.T) {
	const trials = 64
	lines := trialLines()
	for trial := 0; trial < trials; trial++ {
		rng := xrand.New(uint64(trial) + 0x9e3779b9)
		h := newHarness(t, 2)
		token := int64(1)
		for n := rng.Intn(10) + 2; n > 0; n-- {
			core := rng.Intn(2)
			line := lines[rng.Intn(len(lines))]
			if rng.Bool(0.25) {
				h.sys.L1(core).Acquire(line)
			} else {
				h.sys.L1(core).Load(token, line)
				token++
			}
			h.step(rng.Intn(30))
		}
		h.settle(t, 5000)

		type specRef struct {
			core  int
			token int64
		}
		var burst []specRef
		for n := rng.Intn(10) + 2; n > 0; n-- {
			core := rng.Intn(2)
			line := lines[rng.Intn(len(lines))]
			if h.sys.L1(core).LoadSpec(token, line) != LoadBlocked {
				burst = append(burst, specRef{core, token})
			}
			token++
			h.step(rng.Intn(40))
		}
		for len(burst) > 0 {
			i := rng.Intn(len(burst))
			if rng.Bool(0.5) {
				h.sys.L1(burst[i].core).SpecCommit(burst[i].token)
			} else {
				h.sys.L1(burst[i].core).SpecAbandon(burst[i].token)
			}
			burst = append(burst[:i], burst[i+1:]...)
			h.step(rng.Intn(20))
		}
		h.checkAll(t)
	}
}

// TestRCPSpecCommitMatchesDemandLoad pins commit-path equivalence: a
// reversible load that commits must leave the memory system in exactly
// the state a plain demand load would have — same L1 line and LRU rank,
// same directory sharer record and replacement state. The deferred LRU
// touch at commit is what repairs the install-quiet ordering. The line is
// put in the directory's Shared state first (two other cores read it)
// because the equivalence deliberately does not extend everywhere: on an
// unshared line a demand GetS is granted E state, and on an owner-held
// line it downgrades the owner — write-permission side effects a
// reversible access must not take, so GetSSpec serves those statelessly.
func TestRCPSpecCommitMatchesDemandLoad(t *testing.T) {
	prime := func(h *harness) {
		h.sys.L1(1).Load(1, 0x40)
		h.settle(t, 5000)
		h.sys.L1(2).Load(2, 0x40)
		h.settle(t, 5000)
	}

	spec := newHarness(t, 3)
	prime(spec)
	if got := spec.sys.L1(0).LoadSpec(3, 0x40); got != LoadMiss {
		t.Fatalf("LoadSpec = %v, want miss", got)
	}
	spec.settle(t, 5000)
	spec.sys.L1(0).SpecCommit(3)
	spec.settle(t, 5000)

	demand := newHarness(t, 3)
	prime(demand)
	if got := demand.sys.L1(0).Load(3, 0x40); got != LoadMiss {
		t.Fatalf("Load = %v, want miss", got)
	}
	demand.settle(t, 5000)

	if s, d := spec.sys.ObservableState(), demand.sys.ObservableState(); s != d {
		t.Fatalf("committed spec load differs from demand load\n--- spec ---\n%s\n--- demand ---\n%s", s, d)
	}
}
