package experiments

import (
	"fmt"
	"strings"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// condMasks are the cumulative VP condition sets of Figure 1, in the
// paper's stacking order.
var condMasks = []struct {
	Name string
	Mask defense.Cond
}{
	{"Ctrl Dep.", defense.CondCtrl},
	{"Alias Dep.", defense.CondCtrl | defense.CondAlias},
	{"Exception", defense.CondCtrl | defense.CondAlias | defense.CondException},
	{"MCV", defense.CondsComprehensive},
}

// Figure1 reproduces the stacked geometric-mean execution overhead of the
// four cumulative fence-removal conditions over the Unsafe baseline, per
// suite (paper Figure 1).
type Figure1 struct {
	Suites []string
	// Overhead[suite][i] is the geomean overhead (in %) with conditions
	// up to condMasks[i]; the stacked segment i is the increment over
	// segment i-1.
	Overhead map[string][4]float64
}

// condPolicies are a scheme delaying the VP by each cumulative condition
// set of condMasks in turn.
func condPolicies(sch defense.Scheme) []defense.Policy {
	pols := make([]defense.Policy, len(condMasks))
	for i, cm := range condMasks {
		pols[i] = defense.Policy{Scheme: sch, Conds: cm.Mask}
	}
	return pols
}

// geoOverheads returns, per column, the geomean overhead (%) over the Unsafe
// baseline across benches; norm is one benchmark's normalized CPI in one
// column. It asks benchmark-major, so in a sweep's plan a benchmark's runs
// follow its baseline.
func geoOverheads(benches []*trace.Profile, cols int, norm func(b *trace.Profile, col int) (float64, error)) ([]float64, error) {
	norms := make([][]float64, cols)
	for _, b := range benches {
		for col := range norms {
			n, err := norm(b, col)
			if err != nil {
				return nil, err
			}
			norms[col] = append(norms[col], n)
		}
	}
	out := make([]float64, cols)
	for col, ns := range norms {
		out[col] = stats.Overhead(stats.GeoMean(ns))
	}
	return out, nil
}

// RunFigure1 executes the Figure 1 study.
func RunFigure1(r *Runner) (*Figure1, error) {
	return sweep(r, func(q *query) (*Figure1, error) {
		f := &Figure1{Suites: []string{"SPEC17", "SPLASH2", "PARSEC"}, Overhead: map[string][4]float64{}}
		pols := condPolicies(defense.Fence)
		for _, suite := range f.Suites {
			o, err := geoOverheads(suiteBenches(suite), len(pols), func(b *trace.Profile, i int) (float64, error) {
				return q.normalized(b, pols[i], nil)
			})
			if err != nil {
				return nil, err
			}
			f.Overhead[suite] = [4]float64(o)
		}
		return f, nil
	})
}

// String renders the figure as a stacked table.
func (f *Figure1) String() string {
	t := &table{header: []string{"Suite", "Ctrl Dep.", "+Alias Dep.", "+Exception", "+MCV (total)"}}
	for _, s := range f.Suites {
		o := f.Overhead[s]
		t.add(s,
			fmt.Sprintf("%.1f%%", o[0]),
			fmt.Sprintf("%.1f%% (+%.1f)", o[1], o[1]-o[0]),
			fmt.Sprintf("%.1f%% (+%.1f)", o[2], o[2]-o[1]),
			fmt.Sprintf("%.1f%% (+%.1f)", o[3], o[3]-o[2]))
	}
	return "Figure 1: execution overhead by VP-delay condition (geomean vs Unsafe)\n" + t.String()
}

// CPIFigure reproduces Figure 7 (SPEC17) or Figure 8 (SPLASH2 and PARSEC):
// per-benchmark CPI for every scheme and variant, normalized to Unsafe.
type CPIFigure struct {
	Title   string
	Benches []string
	Schemes []defense.Scheme
	// Norm[scheme][variant][bench] is the normalized CPI.
	Norm map[defense.Scheme]map[defense.Variant]map[string]float64
	// GeoMean[scheme][variant] is the suite geometric mean.
	GeoMean map[defense.Scheme]map[defense.Variant]float64
}

// RunCPIFigure runs the normalized-CPI sweep over the given suites. It asks
// benchmark-major, the baseline first: the job order bench/fig7.go's
// fig7Jobs documents.
func RunCPIFigure(r *Runner, title string, suites ...string) (*CPIFigure, error) {
	benches := suiteBenches(suites...)
	return sweep(r, func(q *query) (*CPIFigure, error) {
		f := &CPIFigure{
			Title:   title,
			Schemes: defense.Schemes(),
			Norm:    map[defense.Scheme]map[defense.Variant]map[string]float64{},
			GeoMean: map[defense.Scheme]map[defense.Variant]float64{},
		}
		for _, sch := range f.Schemes {
			f.Norm[sch] = map[defense.Variant]map[string]float64{}
			f.GeoMean[sch] = map[defense.Variant]float64{}
			for _, v := range defense.Variants() {
				f.Norm[sch][v] = map[string]float64{}
			}
		}
		for _, b := range benches {
			f.Benches = append(f.Benches, b.BenchName)
			base, err := q.unsafeCPI(b)
			if err != nil {
				return nil, err
			}
			for _, sch := range f.Schemes {
				for _, v := range defense.Variants() {
					out, err := q.run(b, defense.Policy{Scheme: sch, Variant: v}, nil)
					if err != nil {
						return nil, err
					}
					f.Norm[sch][v][b.BenchName] = out.CPI / base
				}
			}
		}
		for _, sch := range f.Schemes {
			for _, v := range defense.Variants() {
				norms := make([]float64, len(f.Benches))
				for i, bench := range f.Benches {
					norms[i] = f.Norm[sch][v][bench]
				}
				f.GeoMean[sch][v] = stats.GeoMean(norms)
			}
		}
		return f, nil
	})
}

// String renders one table per scheme, matching the paper's plot layout.
func (f *CPIFigure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: normalized CPI (vs Unsafe)\n", f.Title)
	for _, sch := range f.Schemes {
		t := &table{header: []string{"Benchmark", "COMP", "LP", "EP", "SPECTRE"}}
		for _, bench := range f.Benches {
			t.add(bench,
				fmt.Sprintf("%.3f", f.Norm[sch][defense.Comp][bench]),
				fmt.Sprintf("%.3f", f.Norm[sch][defense.LP][bench]),
				fmt.Sprintf("%.3f", f.Norm[sch][defense.EP][bench]),
				fmt.Sprintf("%.3f", f.Norm[sch][defense.Spectre][bench]))
		}
		t.add("Geo.Mean",
			fmt.Sprintf("%.3f", f.GeoMean[sch][defense.Comp]),
			fmt.Sprintf("%.3f", f.GeoMean[sch][defense.LP]),
			fmt.Sprintf("%.3f", f.GeoMean[sch][defense.EP]),
			fmt.Sprintf("%.3f", f.GeoMean[sch][defense.Spectre]))
		fmt.Fprintf(&b, "\n[%s]\n%s", sch, t.String())
	}
	return b.String()
}

// Figure9 reproduces the overhead breakdown per scheme and suite group,
// with the LP and EP bars (paper Figure 9).
type Figure9 struct {
	// Rows are (scheme, group) combinations in paper order.
	Rows []Figure9Row
}

// Figure9Row is one group of bars.
type Figure9Row struct {
	Scheme defense.Scheme
	Group  string // "SPEC17" or "Parallel"
	// Stack[i] is the cumulative overhead (%) with condMasks[i].
	Stack [4]float64
	LP    float64 // overhead (%) with Late Pinning
	EP    float64 // overhead (%) with Early Pinning
}

// suiteGroups are the suite groupings of Figure 9 and the Wd study.
var suiteGroups = []struct {
	name   string
	suites []string
}{
	{"SPEC17", []string{"SPEC17"}},
	{"Parallel", []string{"SPLASH2", "PARSEC"}},
}

// RunFigure9 executes the Figure 9 study.
func RunFigure9(r *Runner) (*Figure9, error) {
	return sweep(r, func(q *query) (*Figure9, error) {
		f := &Figure9{}
		for _, sch := range defense.Schemes() {
			// Columns: the four cumulative condition sets, then LP and EP.
			pols := append(condPolicies(sch),
				defense.Policy{Scheme: sch, Variant: defense.LP}, defense.Policy{Scheme: sch, Variant: defense.EP})
			for _, g := range suiteGroups {
				o, err := geoOverheads(suiteBenches(g.suites...), len(pols), func(b *trace.Profile, i int) (float64, error) {
					return q.normalized(b, pols[i], nil)
				})
				if err != nil {
					return nil, err
				}
				f.Rows = append(f.Rows, Figure9Row{Scheme: sch, Group: g.name,
					Stack: [4]float64(o), LP: o[4], EP: o[5]})
			}
		}
		return f, nil
	})
}

// String renders the breakdown table.
func (f *Figure9) String() string {
	t := &table{header: []string{"Scheme", "Group", "Ctrl", "+Alias", "+Exc", "+MCV(COMP)", "LP", "EP"}}
	for _, r := range f.Rows {
		t.add(r.Scheme.String(), r.Group,
			fmt.Sprintf("%.1f%%", r.Stack[0]),
			fmt.Sprintf("%.1f%%", r.Stack[1]),
			fmt.Sprintf("%.1f%%", r.Stack[2]),
			fmt.Sprintf("%.1f%%", r.Stack[3]),
			fmt.Sprintf("%.1f%%", r.LP),
			fmt.Sprintf("%.1f%%", r.EP))
	}
	return "Figure 9: overhead breakdown and Pinned Loads effect (geomean vs Unsafe)\n" + t.String()
}

// Figure2 demonstrates the conceptual load-overlap behaviour of paper
// Figure 2 on two microbenchmarks: a stream of independent loads and a
// stream of address-dependent loads.
type Figure2 struct {
	// CPI[workload][config] for workloads "independent" and "dependent"
	// and configs "Unsafe", "Safe(COMP)", "LP", "EP".
	CPI map[string]map[string]float64
}

// figure2Workload builds a loop of loads that miss the L1 (large stride)
// separated by cheap ALU ops; dependent chains each load's address on the
// previous load when dep is true.
func figure2Workload(name string, dep bool) *trace.Profile {
	p := &trace.Profile{
		BenchName: name, Suite: "micro", NumCores: 1,
		LoadFrac: 0.30, StoreFrac: 0.05, BranchFrac: 0.02,
		MispredictRate: 0.001, DepDist: 4,
		Kernels: []trace.Kernel{{Kind: trace.Stride, Weight: 1, FootprintKB: 4096, StrideLines: 8}},
	}
	if dep {
		p.Kernels = []trace.Kernel{{Kind: trace.Chase, Weight: 1, FootprintKB: 4096}}
	}
	return p
}

// figure2Policies are the configurations of the Figure 2 microbenchmark.
var figure2Policies = []struct {
	name string
	pol  defense.Policy
}{
	{"Unsafe", defense.Policy{Scheme: defense.Unsafe}},
	{"Safe(COMP)", defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}},
	{"LP", defense.Policy{Scheme: defense.Fence, Variant: defense.LP}},
	{"EP", defense.Policy{Scheme: defense.Fence, Variant: defense.EP}},
}

// RunFigure2 executes the microbenchmark study.
func RunFigure2(r *Runner) (*Figure2, error) {
	workloads := []struct {
		name  string
		bench *trace.Profile
	}{
		{"independent", figure2Workload("fig2-independent", false)},
		{"dependent", figure2Workload("fig2-dependent", true)},
	}
	return sweep(r, func(q *query) (*Figure2, error) {
		f := &Figure2{CPI: map[string]map[string]float64{}}
		for _, w := range workloads {
			m := map[string]float64{}
			for _, pc := range figure2Policies {
				out, err := q.run(w.bench, pc.pol, nil)
				if err != nil {
					return nil, err
				}
				m[pc.name] = out.CPI
			}
			f.CPI[w.name] = m
		}
		return f, nil
	})
}

// String renders the microbenchmark CPIs.
func (f *Figure2) String() string {
	t := &table{header: []string{"Workload", "Unsafe", "Safe(COMP)", "LP", "EP"}}
	for _, w := range []string{"independent", "dependent"} {
		m := f.CPI[w]
		t.add(w, fmt.Sprintf("%.3f", m["Unsafe"]), fmt.Sprintf("%.3f", m["Safe(COMP)"]),
			fmt.Sprintf("%.3f", m["LP"]), fmt.Sprintf("%.3f", m["EP"]))
	}
	return "Figure 2 (concept): load overlap in the ROB — CPI on miss-heavy loads\n" +
		t.String() +
		"Expect: Unsafe << EP < LP < Safe for independent loads; EP ~ LP for dependent loads.\n"
}
