package defense

import (
	"strings"
	"testing"
)

func TestSchemeStrings(t *testing.T) {
	cases := map[Scheme]string{
		Unsafe: "Unsafe", Fence: "Fence", DOM: "DOM", STT: "STT", IS: "IS",
		RCP: "RCP", Scheme(99): "Scheme(99)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestVariantStrings(t *testing.T) {
	cases := map[Variant]string{
		Comp: "COMP", LP: "LP", EP: "EP", Spectre: "SPECTRE",
		Variant(99): "Variant(99)",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}

func TestSchemesAndVariantsOrder(t *testing.T) {
	s := Schemes()
	if len(s) != 3 || s[0] != Fence || s[1] != DOM || s[2] != STT {
		t.Fatalf("Schemes() = %v", s)
	}
	all := AllSchemes()
	if len(all) != 4 || all[0] != Fence || all[1] != DOM || all[2] != STT || all[3] != IS {
		t.Fatalf("AllSchemes() = %v", all)
	}
	v := Variants()
	if len(v) != 4 || v[0] != Comp || v[1] != LP || v[2] != EP || v[3] != Spectre {
		t.Fatalf("Variants() = %v", v)
	}
}

func TestCondHas(t *testing.T) {
	m := CondCtrl | CondMCV
	if !m.Has(CondCtrl) || !m.Has(CondMCV) || m.Has(CondAlias) || m.Has(CondException) {
		t.Fatal("Has wrong")
	}
}

func TestCondString(t *testing.T) {
	cases := []struct {
		mask Cond
		want string
	}{
		{0, "none"},
		{CondCtrl, "ctrl"},
		{CondAlias, "alias"},
		{CondException, "exception"},
		{CondMCV, "mcv"},
		{CondCtrl | CondAlias, "ctrl+alias"},
		{CondAlias | CondMCV, "alias+mcv"},
		{CondCtrl | CondException | CondMCV, "ctrl+exception+mcv"},
		{CondsComprehensive, "ctrl+alias+exception+mcv"},
		{CondsSpectre, "ctrl"},
	}
	for _, c := range cases {
		if got := c.mask.String(); got != c.want {
			t.Errorf("Cond(%d).String() = %q, want %q", c.mask, got, c.want)
		}
	}
}

func TestVPConds(t *testing.T) {
	cases := []struct {
		name string
		pol  Policy
		want Cond
	}{
		{"comp", Policy{Scheme: Fence, Variant: Comp}, CondsComprehensive},
		{"lp", Policy{Scheme: Fence, Variant: LP}, CondsComprehensive},
		{"ep", Policy{Scheme: DOM, Variant: EP}, CondsComprehensive},
		{"spectre", Policy{Scheme: Fence, Variant: Spectre}, CondsSpectre},
		{"is-spectre", Policy{Scheme: IS, Variant: Spectre}, CondsSpectre},
		{"override", Policy{Scheme: Fence, Conds: CondCtrl | CondAlias}, CondCtrl | CondAlias},
		{"override-beats-variant", Policy{Scheme: Fence, Variant: Spectre,
			Conds: CondsComprehensive}, CondsComprehensive},
		{"override-single", Policy{Scheme: STT, Conds: CondMCV}, CondMCV},
		{"rcp-comp", Policy{Scheme: RCP, Variant: Comp}, CondsComprehensive},
		{"rcp-spectre", Policy{Scheme: RCP, Variant: Spectre}, CondsSpectre},
		// Under RC the mcv condition is vacuous and drops out of every mask.
		{"comp-rc", Policy{Scheme: Fence, Variant: Comp, Consistency: RC},
			CondCtrl | CondAlias | CondException},
		{"unsafe-rc", Policy{Scheme: Unsafe, Consistency: RC},
			CondCtrl | CondAlias | CondException},
		{"spectre-rc", Policy{Scheme: STT, Variant: Spectre, Consistency: RC}, CondsSpectre},
		{"rcp-comp-rc", Policy{Scheme: RCP, Variant: Comp, Consistency: RC},
			CondCtrl | CondAlias | CondException},
		{"override-rc", Policy{Scheme: Fence, Conds: CondAlias | CondMCV, Consistency: RC},
			CondAlias},
	}
	for _, c := range cases {
		if got := c.pol.VPConds(); got != c.want {
			t.Errorf("%s: VPConds() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPinning(t *testing.T) {
	cases := map[Variant]bool{Comp: false, LP: true, EP: true, Spectre: false}
	for v, want := range cases {
		if got := (Policy{Variant: v}).Pinning(); got != want {
			t.Errorf("%s: Pinning() = %v, want %v", v, got, want)
		}
	}
}

func TestPolicyString(t *testing.T) {
	cases := []struct {
		pol  Policy
		want string
	}{
		{Policy{Scheme: DOM, Variant: EP}, "DOM-EP"},
		{Policy{Scheme: Unsafe}, "Unsafe-COMP"},
		{Policy{Scheme: IS, Variant: Spectre}, "IS-SPECTRE"},
		{Policy{Scheme: Fence, Conds: CondCtrl}, "Fence[ctrl]"},
		{Policy{Scheme: STT, Conds: CondAlias | CondMCV}, "STT[alias+mcv]"},
		{Policy{Scheme: RCP, Variant: Comp}, "RCP-COMP"},
		{Policy{Scheme: RCP, Variant: Spectre}, "RCP-SPECTRE"},
		{Policy{Scheme: Unsafe, Consistency: RC}, "Unsafe-COMP@RC"},
		{Policy{Scheme: DOM, Variant: EP, Consistency: RC}, "DOM-EP@RC"},
		{Policy{Scheme: RCP, Variant: Comp, Consistency: RC}, "RCP-COMP@RC"},
		{Policy{Scheme: Fence, Conds: CondCtrl, Consistency: RC}, "Fence[ctrl]@RC"},
		// TSO is the zero value and must not change any legacy label.
		{Policy{Scheme: IS, Variant: Spectre, Consistency: TSO}, "IS-SPECTRE"},
	}
	for _, c := range cases {
		if got := c.pol.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestConsistencyStrings(t *testing.T) {
	cases := map[Consistency]string{
		TSO: "TSO", RC: "RC", Consistency(99): "Consistency(99)",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if cs := Consistencies(); len(cs) != 2 || cs[0] != TSO || cs[1] != RC {
		t.Fatalf("Consistencies() = %v", cs)
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, s := range append([]Scheme{Unsafe, RCP}, AllSchemes()...) {
		for _, v := range Variants() {
			for _, c := range Consistencies() {
				for _, m := range []Cond{0, CondCtrl, CondAlias | CondMCV, CondsComprehensive} {
					want := Policy{Scheme: s, Variant: v, Conds: m, Consistency: c}
					got, err := ParsePolicy(s.String(), v.String(), c.String(), m.Names())
					if err != nil || got != want {
						t.Errorf("ParsePolicy(%v) = %v, %v", want, got, err)
					}
				}
			}
		}
	}
	// Any case; "" is each axis's zero value.
	if got, err := ParsePolicy("fence", "ep", "rc", []string{"MCV"}); err != nil ||
		got != (Policy{Scheme: Fence, Variant: EP, Conds: CondMCV, Consistency: RC}) {
		t.Errorf("lower-case names = %v, %v", got, err)
	}
	if got, err := ParsePolicy("", "", "", nil); err != nil || got != (Policy{}) {
		t.Errorf("empty names = %v, %v", got, err)
	}
	// The error of each axis lists that axis's table.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"bogus", "", "", ""}, `unknown scheme "bogus" (want unsafe, fence, dom, stt, is or rcp)`},
		{[]string{"", "bogus", "", ""}, `unknown variant "bogus" (want comp, lp, ep or spectre)`},
		{[]string{"", "", "bogus", ""}, `unknown consistency model "bogus" (want tso or rc)`},
		{[]string{"", "", "", "bogus"}, `unknown VP condition "bogus" (want ctrl, alias, exception or mcv)`},
		{[]string{"", "", "", ""}, `unknown VP condition ""`},
	} {
		_, err := ParsePolicy(c.args[0], c.args[1], c.args[2], c.args[3:])
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParsePolicy(%q) error = %v, want %s", c.args, err, c.want)
		}
	}
	if SchemeNames() != "unsafe, fence, dom, stt, is, rcp" || VariantNames() != "comp, lp, ep, spectre" ||
		ConsistencyNames() != "tso, rc" || CondNames() != "ctrl, alias, exception, mcv" {
		t.Errorf("help lists: %q / %q / %q / %q", SchemeNames(), VariantNames(), ConsistencyNames(), CondNames())
	}
}

func TestCondNames(t *testing.T) {
	got := CondsComprehensive.Names()
	want := []string{"ctrl", "alias", "exception", "mcv"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if n := (CondAlias | CondMCV).Names(); len(n) != 2 || n[0] != "alias" || n[1] != "mcv" {
		t.Fatalf("subset Names() = %v", n)
	}
	if n := Cond(0).Names(); len(n) != 0 {
		t.Fatalf("empty Names() = %v", n)
	}
}
