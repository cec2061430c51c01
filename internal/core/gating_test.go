package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/pipeline"
	"pinnedloads/internal/trace"
)

// gateRun executes gcc_r briefly under the policy and returns counters.
func gateRun(t *testing.T, pol defense.Policy) Result {
	t.Helper()
	return runFor(t, arch.PaperConfig(1), pol, trace.ByName("gcc_r"), 1, 1000, 6000)
}

func TestUnsafeNeverStallsOnPolicy(t *testing.T) {
	res := gateRun(t, defense.Policy{Scheme: defense.Unsafe})
	for _, c := range []string{"stall.fence", "stall.dom_miss", "stall.stt_tainted"} {
		if res.Counters.Get(c) != 0 {
			t.Fatalf("unsafe run recorded %s=%d", c, res.Counters.Get(c))
		}
	}
}

func TestFenceGatesEverything(t *testing.T) {
	res := gateRun(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Comp})
	if res.Counters.Get("stall.fence") == 0 {
		t.Fatal("Fence never stalled a load")
	}
	// Fence has no speculative-permission paths.
	if res.Counters.Get("loads.dom_hit") != 0 || res.Counters.Get("loads.stt_untainted") != 0 {
		t.Fatal("Fence run used another scheme's permission")
	}
}

func TestDOMGatesOnlyMisses(t *testing.T) {
	res := gateRun(t, defense.Policy{Scheme: defense.DOM, Variant: defense.Comp})
	if res.Counters.Get("loads.dom_hit") == 0 {
		t.Fatal("DOM never permitted a speculative hit")
	}
	if res.Counters.Get("stall.dom_miss") == 0 {
		t.Fatal("DOM never delayed a miss")
	}
}

func TestSTTGatesOnlyTainted(t *testing.T) {
	res := gateRun(t, defense.Policy{Scheme: defense.STT, Variant: defense.Comp})
	if res.Counters.Get("loads.stt_untainted") == 0 {
		t.Fatal("STT never permitted an untainted load")
	}
	if res.Counters.Get("stall.stt_tainted") == 0 {
		t.Fatal("STT never delayed a tainted load")
	}
}

func TestPinningOnlyUnderLPandEP(t *testing.T) {
	for _, v := range []defense.Variant{defense.Comp, defense.Spectre} {
		res := gateRun(t, defense.Policy{Scheme: defense.Fence, Variant: v})
		if res.Counters.Get("pin.pinned") != 0 {
			t.Fatalf("%v pinned loads", v)
		}
	}
	for _, v := range []defense.Variant{defense.LP, defense.EP} {
		res := gateRun(t, defense.Policy{Scheme: defense.Fence, Variant: v})
		if res.Counters.Get("pin.pinned") == 0 {
			t.Fatalf("%v never pinned", v)
		}
	}
}

func TestSpectreIgnoresMemoryConditions(t *testing.T) {
	// Under the Spectre model, loads wait only for branches: the CPI must
	// sit strictly between Unsafe and Comp.
	unsafe := gateRun(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Spectre})
	comp := gateRun(t, defense.Policy{Scheme: defense.Fence, Variant: defense.Comp})
	base := gateRun(t, defense.Policy{Scheme: defense.Unsafe})
	if !(base.CPI < unsafe.CPI && unsafe.CPI < comp.CPI) {
		t.Fatalf("ordering: unsafe %.3f, spectre %.3f, comp %.3f",
			base.CPI, unsafe.CPI, comp.CPI)
	}
}

func TestFigure1MaskMonotonicity(t *testing.T) {
	// Adding VP conditions can only slow execution: the Figure 1 stacked
	// construction relies on this monotonicity.
	masks := []defense.Cond{
		defense.CondCtrl,
		defense.CondCtrl | defense.CondAlias,
		defense.CondCtrl | defense.CondAlias | defense.CondException,
		defense.CondsComprehensive,
	}
	prev := 0.0
	for _, m := range masks {
		res := gateRun(t, defense.Policy{Scheme: defense.Fence, Conds: m})
		if res.CPI < prev*0.99 { // small tolerance for timing noise
			t.Fatalf("mask %v faster (%.3f) than its subset (%.3f)", m, res.CPI, prev)
		}
		prev = res.CPI
	}
}

func TestEPNormallyBeatsLPOnMissHeavy(t *testing.T) {
	run := func(v defense.Variant) float64 {
		return runFor(t, arch.PaperConfig(1), defense.Policy{Scheme: defense.Fence, Variant: v}, trace.ByName("fotonik3d_r"), 1, 2000, 10000).CPI
	}
	lp, ep := run(defense.LP), run(defense.EP)
	if ep >= lp {
		t.Fatalf("EP (%.3f) not faster than LP (%.3f) on a miss-heavy app", ep, lp)
	}
}

func TestISInvisibleThenExposed(t *testing.T) {
	res := gateRun(t, defense.Policy{Scheme: defense.IS, Variant: defense.Comp})
	inv := res.Counters.Get("loads.issued_invisible")
	exp := res.Counters.Get("loads.exposed")
	if inv == 0 {
		t.Fatal("IS never issued an invisible access")
	}
	if exp == 0 {
		t.Fatal("IS never exposed a load")
	}
	// Invisible accesses leave no cache footprint: the directory serves
	// invisible misses statelessly.
	if res.Counters.Get("coh.msg.GetSInv") == 0 {
		t.Fatal("no stateless protocol requests")
	}
}

func TestISPinningHelps(t *testing.T) {
	// Pinning benefits invisible execution two ways: a load pinned while
	// its invisible miss is in flight converts to a normal access (no
	// exposure), and exposures of the rest leave the retirement critical
	// path. Measure on a miss-heavy proxy where conversions are visible.
	run := func(v defense.Variant) Result {
		return runFor(t, arch.PaperConfig(1), defense.Policy{Scheme: defense.IS, Variant: v}, trace.ByName("fotonik3d_r"), 1, 1500, 8000)
	}
	comp := run(defense.Comp)
	ep := run(defense.EP)
	if ep.Counters.Get("loads.expose_skipped") == 0 {
		t.Fatal("EP never converted an in-flight invisible access")
	}
	if ep.CPI >= comp.CPI {
		t.Fatalf("IS+EP (%.3f) not faster than IS-Comp (%.3f)", ep.CPI, comp.CPI)
	}
}

func TestISWithLatePinning(t *testing.T) {
	// IS and Late Pinning compose: invisibly performed loads get pinned
	// on the pin frontier, then expose and retire.
	res := gateRun(t, defense.Policy{Scheme: defense.IS, Variant: defense.LP})
	if res.Counters.Get("pin.pinned") == 0 {
		t.Fatal("no pinning under IS-LP")
	}
	if res.Counters.Get("loads.issued_invisible") == 0 {
		t.Fatal("no invisible issues under IS-LP")
	}
	if res.CPI <= 0 {
		t.Fatal("bad CPI")
	}
}

// workCounts is the work of a run as counts any host reproduces: issue gate
// evaluations (mayIssueLoad), store-forwarding scans past the store-address
// filter, core ticks evaluated and slept (a tick a jump skipped counts as
// slept), the cycles the clock jumped, the LLC sets the directory slices store
// (Dir.StoredSets), the messages the mesh carried and the bytes of a snapshot
// taken at the end.
type workCounts struct {
	visits, scans, evaluated, slept, jumped, stored, messages, bytes int64
}

// gateLists are bench/corewl.go's three simulator job lists: every proxy
// under every policy of core1_busy, core1_stall and core8_sharing.
var gateLists = []struct {
	name    string
	benches []string
	pols    []defense.Policy
}{
	{"core1_busy", []string{"gcc_r", "exchange2_r", "leela_r", "x264_r", "perlbench_r", "namd_r"}, []defense.Policy{
		{Scheme: defense.Unsafe},
		{Scheme: defense.Fence, Variant: defense.EP},
		{Scheme: defense.DOM, Variant: defense.EP},
		{Scheme: defense.STT, Variant: defense.LP},
		{Scheme: defense.IS, Variant: defense.EP},
		{Scheme: defense.RCP},
		{Scheme: defense.DOM, Variant: defense.Spectre},
		{Scheme: defense.Unsafe, Consistency: defense.RC},
	}},
	{"core1_stall", []string{"mcf_r"}, []defense.Policy{
		{Scheme: defense.Unsafe},
		{Scheme: defense.Fence},
		{Scheme: defense.DOM},
		{Scheme: defense.STT},
		{Scheme: defense.IS},
		{Scheme: defense.RCP},
		{Scheme: defense.Fence, Variant: defense.EP},
		{Scheme: defense.DOM, Variant: defense.EP},
		{Scheme: defense.Fence, Consistency: defense.RC},
	}},
	{"core8_sharing", []string{"ocean_cp", "radix", "fft", "canneal"}, []defense.Policy{
		{Scheme: defense.Unsafe},
		{Scheme: defense.Fence, Variant: defense.EP},
		{Scheme: defense.DOM, Variant: defense.EP},
		{Scheme: defense.STT, Variant: defense.LP},
		{Scheme: defense.RCP},
	}},
}

// gateWant is every job's workCounts, keyed by its subtest name.
var gateWant = map[string]workCounts{
	"Unsafe-COMP/core1_busy/gcc_r":          {4_950, 364, 5_297, 1_517, 1_434, 703, 1_878, 31_483},
	"Unsafe-COMP/core1_busy/exchange2_r":    {3_229, 125, 5_046, 1_087, 1_061, 128, 268, 16_246},
	"Unsafe-COMP/core1_busy/leela_r":        {5_091, 89, 6_322, 1_812, 1_680, 515, 1_155, 26_701},
	"Unsafe-COMP/core1_busy/x264_r":         {4_795, 308, 5_967, 1_604, 1_474, 935, 3_519, 36_258},
	"Unsafe-COMP/core1_busy/perlbench_r":    {5_628, 265, 5_363, 1_924, 1_828, 643, 1_762, 29_377},
	"Unsafe-COMP/core1_busy/namd_r":         {7_882, 260, 6_785, 649, 597, 409, 826, 24_560},
	"Unsafe-COMP/core1_stall/mcf_r":         {4_987, 175, 15_087, 39_740, 38_054, 2_172, 11_874, 59_422},
	"Unsafe-COMP/core8_sharing/ocean_cp":    {75_078, 5_107, 65_424, 6_688, 0, 4_707, 26_261, 258_853},
	"Unsafe-COMP/core8_sharing/radix":       {79_283, 7_910, 67_317, 15_259, 18, 6_143, 47_404, 344_129},
	"Unsafe-COMP/core8_sharing/fft":         {61_147, 4_251, 51_869, 5_459, 0, 4_332, 30_586, 249_173},
	"Unsafe-COMP/core8_sharing/canneal":     {55_015, 3_059, 76_674, 59_406, 22, 5_909, 54_607, 367_861},
	"Fence-EP/core1_busy/gcc_r":             {3_893, 33, 8_997, 6_734, 6_517, 706, 1_886, 34_290},
	"Fence-EP/core1_busy/exchange2_r":       {3_699, 33, 7_421, 3_762, 3_677, 128, 270, 18_460},
	"Fence-EP/core1_busy/leela_r":           {3_907, 16, 9_271, 10_691, 10_407, 513, 1_160, 28_958},
	"Fence-EP/core1_busy/x264_r":            {4_166, 12, 12_765, 15_464, 14_972, 941, 3_542, 38_262},
	"Fence-EP/core1_busy/perlbench_r":       {3_998, 32, 9_457, 10_958, 10_648, 646, 1_751, 31_638},
	"Fence-EP/core1_busy/namd_r":            {5_473, 27, 11_918, 8_380, 8_146, 408, 832, 26_564},
	"Fence-EP/core1_stall/mcf_r":            {4_609, 26, 20_228, 61_629, 59_276, 2_188, 12_050, 61_012},
	"Fence-EP/core8_sharing/ocean_cp":       {73_278, 436, 150_645, 57_315, 488, 5_317, 30_781, 289_878},
	"Fence-EP/core8_sharing/radix":          {70_591, 836, 125_177, 53_879, 723, 6_304, 47_816, 368_894},
	"Fence-EP/core8_sharing/fft":            {44_426, 288, 101_176, 43_448, 298, 4_359, 30_155, 264_133},
	"Fence-EP/core8_sharing/canneal":        {49_718, 321, 131_957, 229_075, 2_769, 6_099, 57_137, 388_550},
	"DOM-EP/core1_busy/gcc_r":               {28_798, 146, 6_271, 5_880, 5_689, 706, 1_884, 33_945},
	"DOM-EP/core1_busy/exchange2_r":         {10_366, 91, 5_294, 3_394, 3_319, 128, 270, 17_514},
	"DOM-EP/core1_busy/leela_r":             {21_184, 66, 7_220, 9_335, 9_074, 514, 1_162, 28_683},
	"DOM-EP/core1_busy/x264_r":              {60_142, 191, 9_753, 13_628, 13_246, 941, 3_468, 37_882},
	"DOM-EP/core1_busy/perlbench_r":         {29_177, 193, 6_223, 10_037, 9_745, 646, 1_762, 31_018},
	"DOM-EP/core1_busy/namd_r":              {59_325, 153, 8_421, 7_435, 7_213, 408, 832, 26_137},
	"DOM-EP/core1_stall/mcf_r":              {152_106, 88, 18_762, 61_437, 59_125, 2_188, 11_868, 61_027},
	"DOM-EP/core8_sharing/ocean_cp":         {717_001, 4_749, 125_826, 51_558, 446, 6_023, 37_687, 300_940},
	"DOM-EP/core8_sharing/radix":            {660_131, 6_424, 114_581, 46_363, 692, 7_313, 58_994, 397_544},
	"DOM-EP/core8_sharing/fft":              {676_623, 2_585, 78_126, 35_498, 325, 4_395, 30_565, 266_571},
	"DOM-EP/core8_sharing/canneal":          {1_125_110, 1_588, 122_214, 218_738, 2_846, 6_163, 56_801, 390_556},
	"STT-LP/core1_busy/gcc_r":               {27_516, 165, 6_154, 2_012, 1_881, 699, 1_909, 32_465},
	"STT-LP/core1_busy/exchange2_r":         {5_360, 100, 5_194, 1_093, 1_070, 128, 268, 16_303},
	"STT-LP/core1_busy/leela_r":             {11_109, 104, 6_467, 2_679, 2_534, 513, 1_152, 27_446},
	"STT-LP/core1_busy/x264_r":              {99_213, 214, 10_467, 9_273, 8_942, 941, 3_594, 37_044},
	"STT-LP/core1_busy/perlbench_r":         {34_380, 139, 6_646, 4_231, 4_046, 648, 1_762, 29_754},
	"STT-LP/core1_busy/namd_r":              {30_741, 169, 7_615, 1_304, 1_228, 409, 832, 24_713},
	"STT-LP/core8_sharing/ocean_cp":         {305_223, 3_670, 73_226, 9_262, 0, 4_571, 24_950, 257_446},
	"STT-LP/core8_sharing/radix":            {259_913, 6_013, 72_973, 16_747, 0, 6_024, 45_829, 341_756},
	"STT-LP/core8_sharing/fft":              {255_437, 3_020, 61_254, 7_130, 0, 4_314, 30_294, 250_865},
	"STT-LP/core8_sharing/canneal":          {803_059, 1_557, 96_718, 142_274, 856, 5_981, 55_835, 371_753},
	"IS-EP/core1_busy/gcc_r":                {3_265, 201, 6_532, 842, 788, 668, 2_327, 32_428},
	"IS-EP/core1_busy/exchange2_r":          {2_577, 145, 5_500, 806, 792, 128, 468, 17_617},
	"IS-EP/core1_busy/leela_r":              {3_032, 155, 8_317, 2_452, 2_312, 507, 1_890, 27_768},
	"IS-EP/core1_busy/x264_r":               {3_991, 289, 8_616, 1_856, 1_691, 930, 4_642, 37_389},
	"IS-EP/core1_busy/perlbench_r":          {3_250, 348, 7_384, 1_372, 1_292, 633, 2_498, 30_584},
	"IS-EP/core1_busy/namd_r":               {3_974, 229, 8_862, 784, 746, 409, 1_738, 25_699},
	"RCP-COMP/core1_busy/gcc_r":             {6_113, 335, 5_692, 1_804, 1_738, 534, 1_892, 28_968},
	"RCP-COMP/core1_busy/exchange2_r":       {4_785, 184, 5_467, 1_160, 1_134, 128, 535, 16_252},
	"RCP-COMP/core1_busy/leela_r":           {5_595, 98, 6_708, 2_175, 2_056, 464, 1_773, 25_797},
	"RCP-COMP/core1_busy/x264_r":            {6_302, 572, 6_652, 2_642, 2_487, 742, 2_952, 34_834},
	"RCP-COMP/core1_busy/perlbench_r":       {6_335, 541, 5_931, 2_120, 2_027, 551, 2_118, 27_963},
	"RCP-COMP/core1_busy/namd_r":            {11_695, 478, 7_721, 673, 616, 408, 1_952, 25_186},
	"RCP-COMP/core1_stall/mcf_r":            {6_896, 317, 15_049, 42_962, 41_609, 1_633, 8_037, 50_185},
	"RCP-COMP/core8_sharing/ocean_cp":       {151_530, 10_381, 93_147, 22_277, 0, 2_622, 28_825, 220_055},
	"RCP-COMP/core8_sharing/radix":          {116_095, 10_986, 84_040, 41_040, 7, 3_676, 34_340, 282_084},
	"RCP-COMP/core8_sharing/fft":            {101_257, 5_863, 71_993, 11_607, 0, 2_927, 29_830, 237_856},
	"RCP-COMP/core8_sharing/canneal":        {143_188, 5_546, 103_952, 74_176, 23, 3_915, 40_392, 253_481},
	"DOM-SPECTRE/core1_busy/gcc_r":          {23_315, 148, 5_827, 4_071, 3_919, 706, 1_892, 32_639},
	"DOM-SPECTRE/core1_busy/exchange2_r":    {8_615, 87, 5_092, 3_103, 3_031, 128, 270, 16_214},
	"DOM-SPECTRE/core1_busy/leela_r":        {17_008, 61, 6_667, 7_511, 7_259, 514, 1_163, 27_251},
	"DOM-SPECTRE/core1_busy/x264_r":         {43_672, 207, 7_908, 9_250, 8_948, 940, 3_490, 36_380},
	"DOM-SPECTRE/core1_busy/perlbench_r":    {22_884, 203, 5_596, 7_319, 7_080, 646, 1_780, 29_488},
	"DOM-SPECTRE/core1_busy/namd_r":         {44_113, 160, 7_151, 4_574, 4_425, 409, 848, 24_576},
	"Unsafe-COMP@RC/core1_busy/gcc_r":       {4_984, 194, 5_207, 990, 924, 703, 1_914, 31_371},
	"Unsafe-COMP@RC/core1_busy/exchange2_r": {3_234, 72, 5_027, 972, 946, 128, 270, 16_253},
	"Unsafe-COMP@RC/core1_busy/leela_r":     {5_091, 58, 6_317, 1_819, 1_690, 515, 1_155, 26_701},
	"Unsafe-COMP@RC/core1_busy/x264_r":      {4_806, 214, 5_940, 1_528, 1_397, 935, 3_504, 36_242},
	"Unsafe-COMP@RC/core1_busy/perlbench_r": {5_678, 132, 5_266, 1_179, 1_089, 643, 1_756, 29_354},
	"Unsafe-COMP@RC/core1_busy/namd_r":      {7_883, 136, 6_760, 665, 616, 409, 828, 24_560},
	"Fence-COMP/core1_stall/mcf_r":          {14_537, 13, 22_475, 85_285, 82_050, 2_188, 12_061, 59_633},
	"DOM-COMP/core1_stall/mcf_r":            {177_962, 80, 19_856, 83_112, 80_092, 2_188, 11_855, 59_637},
	"STT-COMP/core1_stall/mcf_r":            {80_764, 75, 16_648, 55_059, 53_079, 2_177, 11_870, 59_428},
	"IS-COMP/core1_stall/mcf_r":             {5_995, 314, 30_115, 73_491, 69_891, 2_138, 16_863, 57_427},
	"Fence-COMP@RC/core1_stall/mcf_r":       {3_448, 22, 19_528, 61_989, 59_582, 2_188, 12_052, 59_718},
}

// TestGateVisits pins the work of every job of gateLists, 3 000 warm-up and
// 7 500 measured instructions a core through System.Run, at zero tolerance,
// and holds its CPI stack to the clock (CheckStack).
// Fence alone has a gate bound: DOM and STT ask every waiting load every
// evaluated cycle, 717 001 and 305 223 visits for core8_sharing's ocean_cp
// under DOM-EP and STT-LP, where Fence-EP asks 73 278 times (6 642 783
// without the bound). Without the store-address filter every load past the
// gate scanned the store queue: 51 607 / 82 909 / 68 960 scans under the
// three policies against today's 436 / 4 749 / 3 670. A count that
// moves means the simulator does different work: re-record it with the
// reason, after TestCandidateListsMatchFullWalk (internal/pipeline) and the
// lockstep rows of this package have passed. A change of representation
// moves none of them; a change of the checkpoint format moves bytes.
func TestGateVisits(t *testing.T) {
	gateJobs(t, func(t *testing.T, sys *System, want workCounts) {
		if _, err := sys.Run(3_000, 7_500); err != nil {
			t.Fatal(err)
		}
		if err := sys.CheckStack(); err != nil {
			t.Fatal(err)
		}
		var got workCounts
		for _, c := range sys.cores {
			got.visits += c.GateVisits()
			got.scans += c.ForwardScans()
			got.slept += c.SleptCycles()
		}
		got.evaluated = int64(len(sys.cores))*sys.Cycle() - got.slept
		_, got.jumped = sys.FastForwarded()
		for i := range sys.Mem().Dirs() {
			got.stored += int64(sys.Mem().Dir(i).StoredSets())
		}
		got.messages = int64(sys.Mem().Mesh().Messages())
		blob, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		got.bytes = int64(len(blob))
		if got != want {
			t.Fatalf("in %d cycles: %+v, pinned at %+v", sys.Cycle(), got, want)
		}
	})
}

// TestQuietTickReplaysItsCharges steps every job of gateLists through the
// run TestGateVisits makes, every cycle, and holds each core tick that was
// quiet or slept to its replay: the counters it moved, each by how much,
// must be exactly the charges it replays (Core.Charges), among them one
// cause. A tally bumped in a quiet tick outside Core.charge, or a charge the
// replay leaves out, fails on its first cycle.
func TestQuietTickReplaysItsCharges(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine stepping 77 jobs every cycle: a minute under the race detector, which has nothing to find here")
	}
	gateJobs(t, func(t *testing.T, sys *System, _ workCounts) {
		names, hs := counterHandles(sys)
		cause := map[*uint64]bool{}
		for _, name := range pipeline.Causes {
			cause[sys.count.Handle(name)] = true
		}
		before, moved := make([]uint64, len(hs)), map[*uint64]uint64{}
		var quiet int64
		r := sys.begin(context.Background(), 3_000, 7_500)
		for {
			if more, err := sys.next(&r); err != nil {
				t.Fatal(err)
			} else if !more {
				break
			}
			sys.cycle++
			sys.mem.Tick(sys.cycle)
			for i, c := range sys.cores {
				for k, h := range hs {
					before[k] = *h
				}
				slept := c.SleptCycles()
				c.Tick(sys.cycle)
				if !c.Quiet() && c.SleptCycles() == slept {
					continue
				}
				quiet++
				clear(moved)
				for k, h := range hs {
					if *h != before[k] {
						moved[h] = *h - before[k]
					}
				}
				causes := 0
				for _, h := range c.Charges() {
					if moved[h]--; moved[h] == 0 {
						delete(moved, h)
					}
					if cause[h] {
						causes++
					}
				}
				if len(moved) > 0 || causes != 1 {
					var got []string
					for k, h := range hs {
						if *h != before[k] {
							got = append(got, fmt.Sprintf("%s+%d", names[k], *h-before[k]))
						}
					}
					t.Fatalf("core %d @%d: a quiet tick moved %v, and charged %d tallies, %d of them causes",
						i, sys.cycle, got, len(c.Charges()), causes)
				}
			}
		}
		if quiet == 0 {
			t.Fatal("no quiet tick")
		}
	})
}

// gateJobs runs fn on a fresh machine for every job of gateLists, each a
// subtest <policy>/<list>/<proxy>, with the job's pinned work counts.
func gateJobs(t *testing.T, fn func(t *testing.T, sys *System, want workCounts)) {
	var pols []defense.Policy
	jobs := 0
	for _, l := range gateLists {
		for _, p := range l.pols {
			if !slices.Contains(pols, p) {
				pols = append(pols, p)
			}
		}
		jobs += len(l.benches) * len(l.pols)
	}
	if jobs != len(gateWant) {
		t.Fatalf("%d jobs, %d pinned rows", jobs, len(gateWant))
	}
	for _, pol := range pols {
		t.Run(pol.String(), func(t *testing.T) {
			for _, l := range gateLists {
				if !slices.Contains(l.pols, pol) {
					continue
				}
				for _, b := range l.benches {
					t.Run(l.name+"/"+b, func(t *testing.T) {
						want, ok := gateWant[pol.String()+"/"+l.name+"/"+b]
						if !ok {
							t.Fatal("no pinned row")
						}
						w := trace.ByName(b)
						sys, err := New(arch.PaperConfig(w.Cores()), pol, w, 1)
						if err != nil {
							t.Fatal(err)
						}
						fn(t, sys, want)
					})
				}
			}
		})
	}
}

// counterHandles returns every counter's name and handle, in name order.
func counterHandles(sys *System) ([]string, []*uint64) {
	e := ckptio.NewEncoder()
	sys.count.State(ckptio.SaveTo(e))
	d := ckptio.NewDecoder(e.Bytes())
	var names []string
	for n := d.Count(1 << 16); n > 0; n-- {
		names = append(names, d.String())
		d.U64()
	}
	hs := make([]*uint64, len(names))
	for i, name := range names {
		hs[i] = sys.count.Handle(name)
	}
	return names, hs
}
