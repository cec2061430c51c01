package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// counterHandles returns a handle to every counter the system has bound, in
// name order (the same order for two systems built alike).
func counterHandles(t *testing.T, sys *System) []*uint64 {
	t.Helper()
	e := ckptio.NewEncoder()
	sys.count.State(ckptio.SaveTo(e))
	d := ckptio.NewDecoder(e.Bytes())
	var hs []*uint64
	for n := d.Count(1 << 16); n > 0; n-- {
		name := d.String()
		d.U64()
		hs = append(hs, sys.count.Handle(name))
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return hs
}

func counterValues(hs []*uint64, into []uint64) []uint64 {
	into = into[:0]
	for _, h := range hs {
		into = append(into, *h)
	}
	return into
}

// fixedPointState serializes core i and its L1 without the three things a
// quiet tick does move: the two cycle clocks (each walk leads with its
// own) and the CPT's occupancy samples. Counters are not part of either.
func fixedPointState(t *testing.T, sys *System, i int) []byte {
	t.Helper()
	c := sys.cores[i]
	if cpt := c.CPT(); cpt != nil {
		occ := *cpt.Occupancy()
		*cpt.Occupancy() = stats.Occupancy{}
		defer func() { *cpt.Occupancy() = occ }()
	}
	ce, le := ckptio.NewEncoder(), ckptio.NewEncoder()
	c.State(ckptio.SaveTo(ce))
	if err := ce.Err(); err != nil {
		t.Fatal(err)
	}
	sys.mem.L1(i).State(ckptio.SaveTo(le))
	skipClock := func(b []byte) []byte {
		_, n := binary.Uvarint(b)
		return b[n:]
	}
	return append(skipClock(ce.Bytes()), skipClock(le.Bytes())...)
}

// contendedLines is a two-core reader/writer fight over three lines: with a
// one-entry Cannot-Pin Table the Inv* of the starved writer overflow it.
func contendedLines() *trace.Script {
	var reader, writer []isa.Inst
	for l := uint64(0); l < 3; l++ {
		line := 0x40000 + l*0x1000
		reader = append(reader, isa.Inst{Op: isa.Load, Addr: line}, isa.Inst{Op: isa.Load, Addr: line + 8},
			isa.Inst{Op: isa.ALU, Lat: 1})
		writer = append(writer, isa.Inst{Op: isa.Store, Addr: line}, isa.Inst{Op: isa.ALU, Lat: 1})
	}
	return &trace.Script{ScriptName: "contended", NumCores: 2, Insts: [][]isa.Inst{reader, writer}, Loop: true}
}

// barrierWaits is a two-core workload whose fast core spends most of each
// period asleep at a barrier, until the slow core's dependence chain (itself
// asleep between completions) arrives.
func barrierWaits() *trace.Script {
	fast := []isa.Inst{{Op: isa.ALU, Lat: 1}, {Op: isa.Barrier}}
	var slow []isa.Inst
	for i := 0; i < 6; i++ {
		slow = append(slow, isa.Inst{Op: isa.FALU, Lat: 9, Deps: [2]int32{1}})
	}
	slow = append(slow, isa.Inst{Op: isa.Barrier})
	return &trace.Script{ScriptName: "barrier-waits", NumCores: 2, Insts: [][]isa.Inst{fast, slow}, Loop: true}
}

// fixedPointWindow is how many consecutive cycles get the byte-for-byte
// check at a time; see the stride of each workload.
const fixedPointWindow = 32

// TestQuietTicksAreFixedPoints is the net under the quiescent-core sleep
// (pipeline/sleep.go). Two machines run the same workload side by side. The
// reference is woken after every tick (SetRecorder is one of the calls that
// wake a core), so it evaluates every cycle the way the simulator did before
// cores could sleep, yet still says which ticks it found quiet; for each of
// those, the core and its L1 must serialize to the same bytes before and
// after, and consecutive quiet ticks must move the counters by the same
// amounts. That catches a mutation site that neither raises Core.active nor
// moves a tripwire. The other machine sleeps as usual: every counter must
// match the reference after every cycle, a core may sleep only through ticks
// the reference found quiet, and the two complete snapshots must be identical
// at the end — which catches a missed wake-up or a replayed increment that
// was not constant.
func TestQuietTicksAreFixedPoints(t *testing.T) {
	type workload struct {
		src trace.Source
		// Cycles to run; the per-tick serialization covers the first
		// fixedPointWindow cycles of every stride windows.
		cycles, stride int64
	}
	workloads := []workload{
		{trace.ByName("mcf_r"), 16_000, 16},
		{trace.ByName("gcc_r"), 5_000, 16},
		{trace.ByName("ocean_cp"), 4_000, 32},
		{trace.ByName("canneal"), 4_000, 32},
		{trace.ByName("radix"), 4_000, 32},
		{&trace.Attack{AttackKind: "spectre_v1", Secret: 1}, 4_000, 16},
		{&trace.Attack{AttackKind: "alias", Secret: 1}, 4_000, 16},
		{&trace.Attack{AttackKind: "mcv", Secret: 1}, 4_000, 16},
		{&trace.Attack{AttackKind: "interference", Secret: 1}, 4_000, 16},
		{barrierWaits(), 3_000, 4},
	}
	type run struct {
		name string
		pol  defense.Policy
		cfg  func(*arch.Config)
		work []workload
	}
	var runs []run
	for _, pol := range []defense.Policy{
		{Scheme: defense.Unsafe},
		{Scheme: defense.Fence, Variant: defense.Comp},
		{Scheme: defense.Fence, Variant: defense.EP},
		{Scheme: defense.DOM, Variant: defense.LP},
		{Scheme: defense.DOM, Variant: defense.EP},
		{Scheme: defense.STT, Variant: defense.LP},
		{Scheme: defense.IS, Variant: defense.Comp},
		{Scheme: defense.RCP, Variant: defense.Comp},
		{Scheme: defense.Fence, Variant: defense.Comp, Consistency: defense.RC},
	} {
		runs = append(runs, run{pol.String(), pol, nil, workloads})
	}
	runs = append(runs,
		run{"L1TagPinRecord", defense.Policy{Scheme: defense.Fence, Variant: defense.EP},
			func(c *arch.Config) { c.PinRecordL1Tags = true }, workloads[:1]},
		run{"RealPredictor", defense.Policy{Scheme: defense.DOM, Variant: defense.EP},
			func(c *arch.Config) { c.RealPredictor = true }, workloads[1:2]},
		run{"DirPorts", defense.Policy{Scheme: defense.IS, Variant: defense.Comp},
			func(c *arch.Config) { c.DirPortsPerCycle = 1 }, workloads[8:9]},
		run{"SmallCPT", defense.Policy{Scheme: defense.Fence, Variant: defense.EP},
			func(c *arch.Config) { c.CPTEntries = 1 }, []workload{{contendedLines(), 12_000, 4}}},
	)
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			var quiet, slept, cptInserts int64
			for _, w := range r.work {
				q, s, ins := checkFixedPoints(t, w.src, r.pol, r.cfg, w.cycles, w.stride)
				quiet, slept, cptInserts = quiet+q, slept+s, cptInserts+ins
			}
			if quiet == 0 || slept == 0 {
				t.Fatalf("checked %d quiet ticks, the sleeping machine slept %d cycles: the oracle saw nothing", quiet, slept)
			}
			if r.name == "SmallCPT" && cptInserts == 0 {
				t.Fatal("the contended workload never reached the Cannot-Pin Table")
			}
		})
	}
}

// checkFixedPoints runs one workload on the pair of machines and returns how
// many quiet ticks it checked byte for byte, how many core-cycles the
// sleeping machine slept, and the CPT insertions it saw.
func checkFixedPoints(t *testing.T, src trace.Source, pol defense.Policy, tune func(*arch.Config),
	cycles, stride int64) (quiet, slept, cptInserts int64) {
	t.Helper()
	if raceEnabled {
		cycles /= 4
	}
	build := func() *System {
		cfg := arch.PaperConfig(src.Cores())
		if tune != nil {
			tune(&cfg)
		}
		sys, err := New(cfg, pol, src, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sleeper, ref := build(), build()
	sleeperCnt, refCnt := counterHandles(t, sleeper), counterHandles(t, ref)
	n := len(ref.cores)
	var (
		cur, prev  []uint64
		vals, want []uint64
		delta      = make([][]uint64, n) // the previous tick's increments, if it was quiet
		sleptSoFar = make([]int64, n)
	)
	fail := func(i int, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s %s core %d @%d: "+format, append([]any{src.Name(), pol, i, ref.cycle}, args...)...)
	}
	for ref.cycle < cycles {
		checked := ref.cycle%(fixedPointWindow*stride) < fixedPointWindow
		sleeper.stepCycle()
		ref.cycle++
		ref.mem.Tick(ref.cycle)
		for i, c := range ref.cores {
			var before []byte
			if checked {
				before = fixedPointState(t, ref, i)
			}
			prev = counterValues(refCnt, prev)
			c.Tick(ref.cycle)
			wasQuiet := c.Quiet()
			c.SetRecorder(nil) // keeps the reference awake
			sc := sleeper.cores[i]
			sleptNow := sc.SleptCycles() != sleptSoFar[i]
			sleptSoFar[i] = sc.SleptCycles()
			if !wasQuiet {
				if sleptNow {
					fail(i, "the sleeping machine replayed a tick the reference found active")
				}
				delta[i] = delta[i][:0]
				continue
			}
			cur = counterValues(refCnt, cur)
			for k := range cur {
				cur[k] -= prev[k]
			}
			if len(delta[i]) > 0 && !slices.Equal(cur, delta[i]) {
				fail(i, "consecutive quiet ticks moved the counters differently:\n%v\nthen\n%v", delta[i], cur)
			}
			delta[i] = append(delta[i][:0], cur...)
			if !checked {
				continue
			}
			quiet++
			after := fixedPointState(t, ref, i)
			if !bytes.Equal(before, after) {
				fail(i, "a tick declared quiet changed serialized state (first difference at byte %d of %d)",
					firstDiff(before, after), len(before))
			}
		}
		vals, want = counterValues(sleeperCnt, vals), counterValues(refCnt, want)
		if !slices.Equal(vals, want) {
			t.Fatalf("%s %s @%d: counters differ between the sleeping machine and the reference:\n%s\nvs\n%s",
				src.Name(), pol, ref.cycle, sleeper.count.String(), ref.count.String())
		}
	}
	a, err := sleeper.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s %s: snapshots differ after %d cycles (first difference at byte %d)",
			src.Name(), pol, cycles, firstDiff(a, b))
	}
	for i, c := range sleeper.cores {
		slept += c.SleptCycles()
		if ref.cores[i].SleptCycles() != 0 {
			t.Fatalf("the reference machine slept")
		}
		if cpt := c.CPT(); cpt != nil {
			cptInserts += int64(cpt.Inserts())
		}
	}
	return quiet, slept, cptInserts
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
