package experiments

import (
	"fmt"
	"strings"
	"testing"

	"pinnedloads"
	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/sectest"
	"pinnedloads/internal/service"
	"pinnedloads/internal/trace"
)

// keySpec is one row of the run-identity table: a run, spelled once, that
// every entry point able to express it must key identically.
type keySpec struct {
	name    string
	bench   string
	pol     defense.Policy
	cfg     *arch.Config
	seed    uint64
	warmup  int64
	measure int64
	trace   int
	// attack, when set, names a sectest kernel instead of a benchmark;
	// only the security tier's Observation.Key can express it.
	attack string
}

// keySpecs covers every scheme x variant, a Conds override, @RC, a Config
// override whose Cores is below an 8-core workload's, a trace buffer,
// defaulted and non-default sizing, and two attack runs.
func keySpecs() []keySpec {
	var specs []keySpec
	for _, sch := range []defense.Scheme{defense.Unsafe, defense.Fence, defense.DOM, defense.STT, defense.IS, defense.RCP} {
		for _, v := range defense.Variants() {
			specs = append(specs, keySpec{
				name: fmt.Sprintf("grid/%s-%s", sch, v), bench: "gcc_r",
				pol: defense.Policy{Scheme: sch, Variant: v}, seed: 1, warmup: 500, measure: 2000,
			})
		}
	}
	lowCores := arch.PaperConfig(2)
	wide := arch.PaperConfig(8)
	wide.ROBEntries = 256
	return append(specs,
		keySpec{name: "conds/ctrl+alias", bench: "mcf_r", seed: 1, warmup: 500, measure: 2000,
			pol: defense.Policy{Scheme: defense.Fence, Conds: defense.CondCtrl | defense.CondAlias}},
		keySpec{name: "conds/full-is-comp", bench: "gcc_r", seed: 1, warmup: 500, measure: 2000,
			pol: defense.Policy{Scheme: defense.Fence, Conds: defense.CondsComprehensive}},
		keySpec{name: "conds/tso-mask-of-rc", bench: "gcc_r", seed: 1, warmup: 500, measure: 2000,
			pol: defense.Policy{Scheme: defense.Fence,
				Conds: defense.CondCtrl | defense.CondAlias | defense.CondException}},
		keySpec{name: "rc/Fence-COMP", bench: "gcc_r", seed: 1, warmup: 500, measure: 2000,
			pol: defense.Policy{Scheme: defense.Fence, Consistency: defense.RC}},
		keySpec{name: "rc/DOM-EP", bench: "ocean_cp", seed: 1, warmup: 500, measure: 2000,
			pol: defense.Policy{Scheme: defense.DOM, Variant: defense.EP, Consistency: defense.RC}},
		keySpec{name: "config/cores-below-workload", bench: "ocean_cp", seed: 1, warmup: 500, measure: 2000,
			pol: defense.Policy{Scheme: defense.STT, Variant: defense.LP}, cfg: &lowCores},
		keySpec{name: "config/rob256", bench: "ocean_cp", seed: 1, warmup: 500, measure: 2000,
			pol: defense.Policy{Scheme: defense.DOM}, cfg: &wide},
		keySpec{name: "trace/4096", bench: "gcc_r", seed: 1, warmup: 500, measure: 2000, trace: 4096,
			pol: defense.Policy{Scheme: defense.Fence, Variant: defense.EP}},
		keySpec{name: "sizing/defaults", bench: "mcf_r",
			pol: defense.Policy{Scheme: defense.Fence, Variant: defense.EP}},
		keySpec{name: "sizing/seed7", bench: "mcf_r", seed: 7, warmup: 15_000, measure: 60_000,
			pol: defense.Policy{Scheme: defense.Fence, Variant: defense.EP}},
		keySpec{name: "attack/spectre_v1", attack: "spectre_v1", seed: 1,
			pol: defense.Policy{Scheme: defense.Fence, Variant: defense.EP}},
		keySpec{name: "attack/interference@RC", attack: "interference", seed: 3,
			pol: defense.Policy{Scheme: defense.DOM, Consistency: defense.RC}},
	)
}

// key is the Runner's memoization key for a request.
func (r *Runner) key(bench trace.Source, pol defense.Policy, cfg *arch.Config) string {
	run, _ := r.resolve(bench, pol, cfg)
	return run.Key()
}

// keysOf returns the key every entry point that can express the spec
// derives for it, by entry-point name.
func keysOf(t *testing.T, s keySpec) map[string]string {
	t.Helper()
	if s.attack != "" {
		o, err := sectest.Observe(s.pol, s.attack, 0, s.seed)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		return map[string]string{"sectest": o.Key}
	}
	keys := make(map[string]string)
	lib, err := pinnedloads.SpecKey(pinnedloads.RunSpec{
		Benchmark: s.bench, Scheme: s.pol.Scheme, Variant: s.pol.Variant, Conds: s.pol.Conds,
		Consistency: s.pol.Consistency, Config: s.cfg, Seed: s.seed,
		Warmup: s.warmup, Measure: s.measure, TraceBuffer: s.trace,
	})
	if err != nil {
		t.Fatalf("%s: SpecKey: %v", s.name, err)
	}
	keys["speckey"] = lib

	job := service.JobSpec{
		Benchmark: s.bench, Scheme: s.pol.Scheme.String(), Variant: s.pol.Variant.String(),
		Consistency: s.pol.Consistency.String(), Conds: s.pol.Conds.Names(), Config: s.cfg,
		Seed: s.seed, Warmup: s.warmup, Measure: s.measure, TraceBuffer: s.trace,
	}
	if err := job.Normalize(); err != nil {
		t.Fatalf("%s: Normalize: %v", s.name, err)
	}
	keys["jobspec"] = job.Key()

	// The Runner has no trace buffer and always spells its sizing out.
	if s.trace == 0 && s.warmup != 0 {
		r := NewRunner(Params{Warmup: s.warmup, Measure: s.measure, Seed: s.seed})
		keys["runner"] = r.key(trace.ByName(s.bench), s.pol, s.cfg)
	}
	return keys
}

// TestSpecKeysGolden pins every key the run-identity table derives, through
// every entry point, to testdata/speckeys.golden (recorded at the commit
// before the single-resolution refactor; regenerate with -update), and
// requires the entry points to agree with each other. Disk caches, job IDs,
// warm stores and checkpoint identities all hang off these bytes.
func TestSpecKeysGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range keySpecs() {
		keys := keysOf(t, s)
		first := ""
		for _, entry := range []string{"speckey", "jobspec", "runner", "sectest"} {
			k, ok := keys[entry]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\n", s.name, entry, k)
			if first == "" {
				first = k
			}
			if k != first && !*update {
				t.Errorf("%s: %s keys %s, the other entry points %s", s.name, entry, k, first)
			}
		}
	}
	checkGolden(t, "speckeys.golden", []byte(b.String()))
}
