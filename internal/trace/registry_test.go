package trace

import (
	"reflect"
	"testing"
)

// TestRegistry pins the proxy registry: each suite's order and defaults,
// ByName handing out the registry's own profile (every suite entry is the
// pointer it returns), and nil for an unknown name.
func TestRegistry(t *testing.T) {
	order := map[string][]string{
		"SPEC17": {"blender_r", "bwaves_r", "cactuBSSN_r", "cam4_r", "deepsjeng_r",
			"exchange2_r", "fotonik3d_r", "gcc_r", "lbm_r", "leela_r", "mcf_r", "nab_r",
			"namd_r", "parest_r", "perlbench_r", "povray_r", "roms_r", "wrf_r", "x264_r",
			"xalancbmk_r", "xz_r"},
		"SPLASH2": {"barnes", "cholesky", "fft", "fmm", "lu_cb", "lu_ncb", "ocean_cp",
			"radiosity", "radix", "raytrace", "volrend", "water_nsquared", "water_spatial"},
		"PARSEC": {"blackscholes", "bodytrack", "canneal", "facesim", "ferret",
			"fluidanimate", "freqmine", "swaptions", "vips", "x264"},
	}
	// Profiles that set a default field themselves.
	depDist := map[string]int{"x264_r": 6, "x264": 6}
	sharedKB := map[string]int{"fft": 2048, "ocean_cp": 4096, "radix": 4096, "canneal": 4096}

	suites := Suites()
	if len(suites) != len(order) {
		t.Fatalf("%d suites, want %d", len(suites), len(order))
	}
	for suite, names := range order {
		ps := suites[suite]
		if len(ps) != len(names) {
			t.Fatalf("%s has %d proxies, want %d", suite, len(ps), len(names))
		}
		for i, p := range ps {
			if p.BenchName != names[i] {
				t.Errorf("%s[%d] is %s, want %s", suite, i, p.BenchName, names[i])
			}
			if got := ByName(p.BenchName); got != p {
				t.Errorf("ByName(%q) is not the registry's profile", p.BenchName)
			}
			cores, shared := 8, 512
			if suite == "SPEC17" {
				cores, shared = 1, 0
			}
			if kb, ok := sharedKB[p.BenchName]; ok {
				shared = kb
			}
			dep, ok := depDist[p.BenchName]
			if !ok {
				dep = 7
			}
			if p.Suite != suite || p.NumCores != cores || p.DepDist != dep || p.SharedKB != shared {
				t.Errorf("%s: suite %q cores %d dep %d shared %d KB, want %q %d %d %d",
					p.BenchName, p.Suite, p.NumCores, p.DepDist, p.SharedKB, suite, cores, dep, shared)
			}
		}
	}
	if p := ByName("no_such_proxy"); p != nil {
		t.Errorf("ByName of an unknown name = %s, want nil", p.BenchName)
	}
	if !reflect.DeepEqual(SPEC17(), suites["SPEC17"]) || &SPEC17()[0] == &SPEC17()[0] {
		t.Error("SPEC17 must return a fresh slice of the registry's profiles")
	}
}
