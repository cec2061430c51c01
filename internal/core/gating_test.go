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
	"Unsafe-COMP/core1_busy/gcc_r":          {4_950, 364, 5_299, 1_515, 1_432, 703, 1_878, 31_541},
	"Unsafe-COMP/core1_busy/exchange2_r":    {3_229, 125, 5_073, 1_060, 1_034, 128, 268, 16_304},
	"Unsafe-COMP/core1_busy/leela_r":        {5_091, 89, 6_333, 1_801, 1_669, 515, 1_155, 26_759},
	"Unsafe-COMP/core1_busy/x264_r":         {4_795, 308, 5_968, 1_603, 1_473, 935, 3_519, 36_316},
	"Unsafe-COMP/core1_busy/perlbench_r":    {5_628, 265, 5_368, 1_919, 1_824, 643, 1_762, 29_435},
	"Unsafe-COMP/core1_busy/namd_r":         {7_882, 260, 6_785, 649, 597, 409, 826, 24_618},
	"Unsafe-COMP/core1_stall/mcf_r":         {4_987, 175, 15_089, 39_738, 38_054, 2_172, 11_874, 59_480},
	"Unsafe-COMP/core8_sharing/ocean_cp":    {75_078, 5_107, 65_431, 6_681, 0, 4_707, 26_261, 258_946},
	"Unsafe-COMP/core8_sharing/radix":       {79_283, 7_910, 67_332, 15_244, 18, 6_143, 47_404, 344_222},
	"Unsafe-COMP/core8_sharing/fft":         {61_147, 4_251, 51_873, 5_455, 0, 4_332, 30_586, 249_266},
	"Unsafe-COMP/core8_sharing/canneal":     {55_015, 3_059, 76_676, 59_404, 22, 5_909, 54_607, 367_954},
	"Fence-EP/core1_busy/gcc_r":             {3_893, 33, 9_004, 6_727, 6_510, 706, 1_886, 34_348},
	"Fence-EP/core1_busy/exchange2_r":       {3_699, 33, 7_455, 3_728, 3_643, 128, 270, 18_518},
	"Fence-EP/core1_busy/leela_r":           {3_907, 16, 9_300, 10_662, 10_380, 513, 1_160, 29_016},
	"Fence-EP/core1_busy/x264_r":            {4_166, 12, 12_770, 15_459, 14_968, 941, 3_542, 38_320},
	"Fence-EP/core1_busy/perlbench_r":       {3_998, 32, 9_465, 10_950, 10_640, 646, 1_751, 31_696},
	"Fence-EP/core1_busy/namd_r":            {5_473, 27, 11_919, 8_379, 8_145, 408, 832, 26_622},
	"Fence-EP/core1_stall/mcf_r":            {4_609, 26, 20_234, 61_623, 59_272, 2_188, 12_050, 61_070},
	"Fence-EP/core8_sharing/ocean_cp":       {73_278, 436, 150_649, 57_311, 488, 5_317, 30_781, 289_971},
	"Fence-EP/core8_sharing/radix":          {70_591, 836, 125_186, 53_870, 723, 6_304, 47_816, 368_987},
	"Fence-EP/core8_sharing/fft":            {44_426, 288, 101_178, 43_446, 298, 4_359, 30_155, 264_226},
	"Fence-EP/core8_sharing/canneal":        {49_718, 321, 131_980, 229_052, 2_768, 6_099, 57_137, 388_641},
	"DOM-EP/core1_busy/gcc_r":               {28_798, 146, 6_276, 5_875, 5_684, 706, 1_884, 34_003},
	"DOM-EP/core1_busy/exchange2_r":         {10_366, 91, 5_324, 3_364, 3_289, 128, 270, 17_572},
	"DOM-EP/core1_busy/leela_r":             {21_184, 66, 7_232, 9_323, 9_062, 514, 1_162, 28_741},
	"DOM-EP/core1_busy/x264_r":              {60_142, 191, 9_756, 13_625, 13_243, 941, 3_468, 37_940},
	"DOM-EP/core1_busy/perlbench_r":         {29_177, 193, 6_229, 10_031, 9_739, 646, 1_762, 31_076},
	"DOM-EP/core1_busy/namd_r":              {59_325, 153, 8_421, 7_435, 7_213, 408, 832, 26_195},
	"DOM-EP/core1_stall/mcf_r":              {152_106, 88, 18_769, 61_430, 59_120, 2_188, 11_868, 61_085},
	"DOM-EP/core8_sharing/ocean_cp":         {717_001, 4_749, 125_847, 51_537, 446, 6_023, 37_687, 301_033},
	"DOM-EP/core8_sharing/radix":            {660_131, 6_424, 114_621, 46_323, 692, 7_313, 58_994, 397_635},
	"DOM-EP/core8_sharing/fft":              {676_623, 2_585, 78_132, 35_492, 325, 4_395, 30_565, 266_664},
	"DOM-EP/core8_sharing/canneal":          {1_125_110, 1_588, 122_226, 218_726, 2_846, 6_163, 56_801, 390_649},
	"STT-LP/core1_busy/gcc_r":               {27_516, 165, 6_161, 2_005, 1_874, 699, 1_909, 32_523},
	"STT-LP/core1_busy/exchange2_r":         {5_360, 100, 5_227, 1_060, 1_037, 128, 268, 16_361},
	"STT-LP/core1_busy/leela_r":             {11_109, 104, 6_484, 2_662, 2_517, 513, 1_152, 27_504},
	"STT-LP/core1_busy/x264_r":              {99_213, 214, 10_472, 9_268, 8_937, 941, 3_594, 37_102},
	"STT-LP/core1_busy/perlbench_r":         {34_380, 139, 6_655, 4_222, 4_038, 648, 1_762, 29_812},
	"STT-LP/core1_busy/namd_r":              {30_741, 169, 7_615, 1_304, 1_228, 409, 832, 24_771},
	"STT-LP/core8_sharing/ocean_cp":         {305_223, 3_670, 73_238, 9_250, 0, 4_571, 24_950, 257_539},
	"STT-LP/core8_sharing/radix":            {259_913, 6_013, 73_007, 16_713, 0, 6_024, 45_829, 341_849},
	"STT-LP/core8_sharing/fft":              {255_437, 3_020, 61_264, 7_120, 0, 4_314, 30_294, 250_958},
	"STT-LP/core8_sharing/canneal":          {803_059, 1_557, 96_735, 142_257, 855, 5_981, 55_835, 371_846},
	"IS-EP/core1_busy/gcc_r":                {3_265, 201, 6_536, 838, 784, 668, 2_327, 32_486},
	"IS-EP/core1_busy/exchange2_r":          {2_577, 145, 5_543, 763, 749, 128, 468, 17_675},
	"IS-EP/core1_busy/leela_r":              {3_032, 155, 8_326, 2_443, 2_303, 507, 1_890, 27_826},
	"IS-EP/core1_busy/x264_r":               {3_991, 289, 8_617, 1_855, 1_690, 930, 4_642, 37_447},
	"IS-EP/core1_busy/perlbench_r":          {3_250, 348, 7_385, 1_371, 1_291, 633, 2_498, 30_642},
	"IS-EP/core1_busy/namd_r":               {3_974, 229, 8_864, 782, 744, 409, 1_738, 25_757},
	"RCP-COMP/core1_busy/gcc_r":             {6_113, 335, 5_695, 1_801, 1_736, 534, 1_892, 29_026},
	"RCP-COMP/core1_busy/exchange2_r":       {4_785, 184, 5_493, 1_134, 1_109, 128, 535, 16_310},
	"RCP-COMP/core1_busy/leela_r":           {5_595, 98, 6_713, 2_170, 2_051, 464, 1_773, 25_855},
	"RCP-COMP/core1_busy/x264_r":            {6_302, 572, 6_652, 2_642, 2_487, 742, 2_952, 34_892},
	"RCP-COMP/core1_busy/perlbench_r":       {6_335, 541, 5_936, 2_115, 2_023, 551, 2_118, 28_021},
	"RCP-COMP/core1_busy/namd_r":            {11_695, 478, 7_721, 673, 616, 408, 1_952, 25_244},
	"RCP-COMP/core1_stall/mcf_r":            {6_896, 317, 15_052, 42_959, 41_607, 1_633, 8_037, 50_243},
	"RCP-COMP/core8_sharing/ocean_cp":       {151_530, 10_381, 93_153, 22_271, 0, 2_622, 28_825, 220_148},
	"RCP-COMP/core8_sharing/radix":          {116_095, 10_986, 84_050, 41_030, 7, 3_676, 34_340, 282_177},
	"RCP-COMP/core8_sharing/fft":            {101_257, 5_863, 71_997, 11_603, 0, 2_927, 29_830, 237_949},
	"RCP-COMP/core8_sharing/canneal":        {143_188, 5_546, 103_958, 74_170, 23, 3_915, 40_392, 253_574},
	"DOM-SPECTRE/core1_busy/gcc_r":          {23_315, 148, 5_833, 4_065, 3_914, 706, 1_892, 32_697},
	"DOM-SPECTRE/core1_busy/exchange2_r":    {8_615, 87, 5_124, 3_071, 2_999, 128, 270, 16_272},
	"DOM-SPECTRE/core1_busy/leela_r":        {17_008, 61, 6_679, 7_499, 7_248, 514, 1_163, 27_309},
	"DOM-SPECTRE/core1_busy/x264_r":         {43_672, 207, 7_911, 9_247, 8_945, 940, 3_490, 36_438},
	"DOM-SPECTRE/core1_busy/perlbench_r":    {22_884, 203, 5_605, 7_310, 7_071, 646, 1_780, 29_546},
	"DOM-SPECTRE/core1_busy/namd_r":         {44_113, 160, 7_151, 4_574, 4_425, 409, 848, 24_634},
	"Unsafe-COMP@RC/core1_busy/gcc_r":       {4_984, 194, 5_213, 984, 919, 703, 1_914, 31_429},
	"Unsafe-COMP@RC/core1_busy/exchange2_r": {3_234, 72, 5_060, 939, 913, 128, 270, 16_311},
	"Unsafe-COMP@RC/core1_busy/leela_r":     {5_091, 58, 6_331, 1_805, 1_676, 515, 1_155, 26_759},
	"Unsafe-COMP@RC/core1_busy/x264_r":      {4_806, 214, 5_942, 1_526, 1_395, 935, 3_504, 36_300},
	"Unsafe-COMP@RC/core1_busy/perlbench_r": {5_678, 132, 5_275, 1_170, 1_081, 643, 1_756, 29_412},
	"Unsafe-COMP@RC/core1_busy/namd_r":      {7_883, 136, 6_760, 665, 616, 409, 828, 24_618},
	"Fence-COMP/core1_stall/mcf_r":          {14_537, 13, 22_479, 85_281, 82_046, 2_188, 12_061, 59_691},
	"DOM-COMP/core1_stall/mcf_r":            {177_962, 80, 19_857, 83_111, 80_091, 2_188, 11_855, 59_695},
	"STT-COMP/core1_stall/mcf_r":            {80_764, 75, 16_649, 55_058, 53_079, 2_177, 11_870, 59_486},
	"IS-COMP/core1_stall/mcf_r":             {5_995, 314, 30_116, 73_490, 69_890, 2_138, 16_863, 57_485},
	"Fence-COMP@RC/core1_stall/mcf_r":       {3_448, 22, 19_534, 61_983, 59_578, 2_188, 12_052, 59_776},
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
