package simrun

import (
	"context"
	"testing"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/pipeline"
	"pinnedloads/internal/trace"
)

// relations are groups of policies that must run the same simulation, each
// on its benchmarks, with no switch in the simulator to make them so:
//   - under RC, VPConds drops the MCV condition, the only one pinning
//     closes, so a scheme's COMP, LP and EP runs have nothing to pin for;
//   - Unsafe gates no load, so its variant, which only chooses the gate's
//     conditions and whether loads pin, changes nothing.
var relations = []struct {
	name    string
	benches []string
	pols    []defense.Policy
}{
	{"Fence@RC", []string{"mcf_r", "gcc_r", "povray_r"}, variants(defense.Fence, defense.RC, defense.Comp, defense.LP, defense.EP)},
	{"DOM@RC", []string{"mcf_r", "gcc_r", "povray_r"}, variants(defense.DOM, defense.RC, defense.Comp, defense.LP, defense.EP)},
	{"STT@RC", []string{"mcf_r", "gcc_r", "povray_r"}, variants(defense.STT, defense.RC, defense.Comp, defense.LP, defense.EP)},
	{"Unsafe", []string{"mcf_r", "gcc_r"}, variants(defense.Unsafe, defense.TSO, defense.Variants()...)},
}

func variants(s defense.Scheme, c defense.Consistency, vs ...defense.Variant) []defense.Policy {
	var pols []defense.Policy
	for _, v := range vs {
		pols = append(pols, defense.Policy{Scheme: s, Variant: v, Consistency: c})
	}
	return pols
}

// TestPolicyRelations runs every policy of a relation on each of its
// benchmarks and requires the cycles, the retired instructions and every
// cause of the CPI stack (pipeline.Causes) to equal the first policy's.
func TestPolicyRelations(t *testing.T) {
	p := Params{Seed: 1, Warmup: 2_000, Measure: 8_000}
	for _, rel := range relations {
		for _, bench := range rel.benches {
			t.Run(rel.name+"/"+bench, func(t *testing.T) {
				var ref *Output
				for _, pol := range rel.pols {
					out, err := Execute(context.Background(), trace.ByName(bench), pol, nil, p)
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = out
						continue
					}
					if out.Cycles != ref.Cycles || out.Counters["retired"] != ref.Counters["retired"] {
						t.Errorf("%v: %d cycles, %d retired; %v: %d cycles, %d retired", pol,
							out.Cycles, out.Counters["retired"], rel.pols[0], ref.Cycles, ref.Counters["retired"])
					}
					for _, c := range pipeline.Causes {
						if out.Counters[c] != ref.Counters[c] {
							t.Errorf("%v: %s = %d; %v: %d", pol, c, out.Counters[c], rel.pols[0], ref.Counters[c])
						}
					}
				}
				t.Logf("%v: %d cycles, %d retired", rel.pols[0], ref.Cycles, ref.Counters["retired"])
			})
		}
	}
}
