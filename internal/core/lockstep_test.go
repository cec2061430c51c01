package core

import (
	"bytes"
	"cmp"
	"context"
	"reflect"
	"slices"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/ckptio/ckpttest"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/trace"
)

// lockstepRow is one spec this package runs two ways through
// ckpttest.Lockstep, which compares them on every cycle both reach. The pairs
// of ways are
//
//	jump   — stepping every cycle vs RunContext's clock jump, and the jump
//	         resumed from a snapshot taken inside a jump span;
//	sleep  — every core woken after every tick vs cores that sleep through
//	         quiet ticks, the woken way holding each quiet tick it checks to
//	         a fixed point of the core's and its L1's walks;
//	resume — a run vs the same run resumed from the first and from the last
//	         snapshot of a Run that snapshots at every safe point.
//
// The jump and resume ways run RunContext's own cycle loop, System.step a
// step; the stepped way is the reference the jump is held against.
type lockstepRow struct {
	pair, name string // a sleep row's name is its policy or configuration, shared by its workloads
	src        trace.Source
	pol        defense.Policy
	tune       func(*arch.Config)
	// RunContext's; a sleep row steps warmup cycles and checks the first
	// fixedPointWindow of every stride windows.
	warmup, measure, stride int64
	// A jump row's floors on the slept and jumped shares of all cycles and
	// ceiling on the slept share, in percent; zero means none.
	sleptAtLeast, jumpedAtLeast, sleptBelow float64
}

const fixedPointWindow = 32

var lockstepRows = func() []lockstepRow {
	var rows []lockstepRow
	pol := func(s defense.Scheme, v defense.Variant) defense.Policy { return defense.Policy{Scheme: s, Variant: v} }
	rc := func(p defense.Policy) defense.Policy { p.Consistency = defense.RC; return p }
	atk := func(kind string) trace.Source { return &trace.Attack{AttackKind: kind, Secret: 1} }
	cpt1 := func(c *arch.Config) { c.CPTEntries = 1 }
	for _, p := range []defense.Policy{pol(defense.Unsafe, 0), pol(defense.Fence, defense.Comp), pol(defense.DOM, defense.Comp),
		pol(defense.STT, defense.Comp), pol(defense.IS, defense.Comp), pol(defense.RCP, defense.Comp), pol(defense.Fence, defense.EP),
		pol(defense.DOM, defense.EP), rc(pol(defense.Fence, defense.Comp))} {
		r := lockstepRow{pair: "jump", src: trace.ByName("mcf_r"), pol: p, warmup: 4_000, measure: 20_000, sleptAtLeast: 60, jumpedAtLeast: 50}
		if p.Scheme == defense.IS {
			r.jumpedAtLeast = 0
		}
		rows = append(rows, r)
	}
	rows = append(rows,
		lockstepRow{pair: "jump", src: trace.ByName("gcc_r"), pol: pol(defense.Unsafe, 0), warmup: 20_000, measure: 60_000, sleptBelow: 10},
		lockstepRow{pair: "jump", src: trace.ByName("gcc_r"), pol: pol(defense.DOM, defense.EP), warmup: 5_000, measure: 20_000},
		lockstepRow{pair: "jump", src: trace.ByName("ocean_cp"), pol: pol(defense.Fence, defense.EP), warmup: 1_000, measure: 4_000},
		lockstepRow{pair: "jump", src: trace.ByName("canneal"), pol: pol(defense.DOM, defense.EP), warmup: 1_000, measure: 3_000},
		lockstepRow{pair: "jump", src: trace.ByName("radix"), pol: pol(defense.STT, defense.LP), warmup: 1_000, measure: 3_000},
		lockstepRow{pair: "jump", src: atk("mcv"), pol: pol(defense.RCP, defense.Comp), warmup: 100, measure: 1 << 30},
		lockstepRow{pair: "jump", src: atk("interference"), pol: pol(defense.IS, defense.Comp),
			tune: func(c *arch.Config) { c.DirPortsPerCycle = 1 }, warmup: 100, measure: 1 << 30},
		lockstepRow{pair: "jump", src: barrierWaits(), pol: pol(defense.Unsafe, 0), warmup: 500, measure: 6_000},
		lockstepRow{pair: "jump", src: contendedLines(), pol: pol(defense.Fence, defense.EP),
			tune: func(c *arch.Config) { cpt1(c); c.PinRecordL1Tags = true }, warmup: 500, measure: 2_000},
	)

	// A sleep row steps cycles = warmup, checking fixed points at stride.
	works := []lockstepRow{{src: trace.ByName("mcf_r"), warmup: 16_000, stride: 16}, {src: trace.ByName("gcc_r"), warmup: 5_000, stride: 16},
		{src: trace.ByName("ocean_cp"), warmup: 4_000, stride: 32}, {src: trace.ByName("canneal"), warmup: 4_000, stride: 32},
		{src: trace.ByName("radix"), warmup: 4_000, stride: 32}, {src: atk("spectre_v1"), warmup: 4_000, stride: 16},
		{src: atk("alias"), warmup: 4_000, stride: 16}, {src: atk("mcv"), warmup: 4_000, stride: 16},
		{src: atk("interference"), warmup: 4_000, stride: 16}, {src: barrierWaits(), warmup: 3_000, stride: 4}}
	sleep := func(name string, p defense.Policy, tune func(*arch.Config), works ...lockstepRow) {
		for _, w := range works {
			w.pair, w.name, w.pol, w.tune = "sleep", name, p, tune
			rows = append(rows, w)
		}
	}
	for _, p := range []defense.Policy{pol(defense.Unsafe, 0), pol(defense.Fence, defense.Comp), pol(defense.Fence, defense.EP),
		pol(defense.DOM, defense.LP), pol(defense.DOM, defense.EP), pol(defense.STT, defense.LP), pol(defense.IS, defense.Comp),
		pol(defense.RCP, defense.Comp), rc(pol(defense.Fence, defense.Comp))} {
		sleep(p.String(), p, nil, works...)
	}
	sleep("L1TagPinRecord", pol(defense.Fence, defense.EP), func(c *arch.Config) { c.PinRecordL1Tags = true }, works[0])
	sleep("RealPredictor", pol(defense.DOM, defense.EP), func(c *arch.Config) { c.RealPredictor = true }, works[1])
	sleep("DirPorts", pol(defense.IS, defense.Comp), func(c *arch.Config) { c.DirPortsPerCycle = 1 }, works[8])
	sleep("SmallCPT", pol(defense.Fence, defense.EP), cpt1, lockstepRow{src: contendedLines(), warmup: 12_000, stride: 4})

	// fft on the 8-core machine exercises coherence, barriers and locks, and
	// RCP's in-flight coherence journal must survive a snapshot.
	for _, p := range []defense.Policy{pol(defense.Unsafe, 0), pol(defense.Fence, defense.Comp), pol(defense.DOM, defense.LP),
		pol(defense.DOM, defense.EP), pol(defense.STT, defense.Comp), pol(defense.IS, defense.Comp), pol(defense.RCP, 0),
		pol(defense.RCP, defense.Spectre), rc(pol(defense.Unsafe, 0)), rc(pol(defense.RCP, 0))} {
		rows = append(rows, lockstepRow{pair: "resume", src: trace.ByName("fft"), pol: p, warmup: 1_000, measure: 6_000})
	}
	// The attack kernel runs to its halt, crossing several safe points.
	return append(rows, lockstepRow{pair: "resume", name: "attack", src: &trace.Attack{AttackKind: "spectre_v1", Secret: 1, Iters: 128},
		pol: pol(defense.DOM, defense.LP), measure: 1_000_000})
}()

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

// sim is a System as a lockstep way runs it, recording its events. A jump or
// resume way also holds the RunContext(warmup, measure) it is under way in,
// the System's own run, and advances it one pass of the cycle loop a step, so
// that a lockstep can stop it on any cycle it evaluates.
type sim struct {
	*System
	t        testing.TB
	ring     *obs.Ring
	run      run
	cnt      []*uint64 // every counter, in name order
	points   []int64   // the cycles the checkpoint hook fired on
	midSleep []byte    // the first snapshot taken inside a jump span
}

// newSim builds the row's machine; an observed one also samples its counters
// every 1 000 cycles and snapshots at every fourth poll, keeping the first
// snapshot taken with every core asleep past the next cycle: inside a jump.
func newSim(t testing.TB, r lockstepRow, observed bool) *sim {
	cfg := arch.PaperConfig(r.src.Cores())
	if r.tune != nil {
		r.tune(&cfg)
	}
	sys, err := New(cfg, r.pol, r.src, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := &sim{System: sys, t: t, ring: obs.NewRing(1 << 15), cnt: ckpttest.Counters(&sys.count)}
	sys.SetRecorder(m.ring)
	if observed {
		m.SampleEvery(1000)
		m.SetCheckpointHook(4*(ctxCheckMask+1), func() (err error) {
			asleep := true
			for _, c := range m.cores {
				asleep = asleep && c.WakeCycle() > m.cycle+2
			}
			m.points = append(m.points, m.cycle)
			if asleep && m.midSleep == nil {
				m.midSleep, err = m.Snapshot()
			}
			return err
		})
	}
	return m
}

func (m *sim) Events() []obs.Event {
	m.flushEvents()
	return m.ring.Events()
}

// counters walks every counter's value: a row's quick walk.
func (m *sim) counters(s ckptio.State) {
	for _, h := range m.cnt {
		s.U64(h)
	}
}

// pass is one pass of RunContext's cycle loop; plainPass is that pass as it
// was before the clock jump, stepping every cycle: the reference the jump is
// held against.
func (m *sim) pass() bool { return m.must(m.step(&m.run)) }

func (m *sim) plainPass() bool {
	more := m.must(m.next(&m.run))
	if more {
		m.stepCycle()
	}
	return more
}

func (m *sim) must(more bool, err error) bool {
	if err != nil {
		m.t.Fatal(err)
	}
	return more
}

func (m *sim) slept() (slept int64) {
	for _, c := range m.cores {
		slept += c.SleptCycles()
	}
	return slept
}

// way is the row's run, resumed from a snapshot if from is set, a pass or a
// plain pass a step.
func way(t testing.TB, r lockstepRow, name string, jump, observed bool, from []byte) ckpttest.Way[*sim] {
	w := ckpttest.Way[*sim]{Name: name, Step: (*sim).plainPass, New: func() *sim {
		m := newSim(t, r, observed)
		if from != nil {
			if err := m.Restore(from); err != nil {
				t.Fatal(err)
			}
		}
		m.run = m.begin(context.Background(), r.warmup, r.measure)
		return m
	}}
	if jump {
		w.Step = (*sim).pass
	}
	return w
}

// runLockstep runs the rows of one pair in parallel, each as the subtest
// name gives it.
func runLockstep(t *testing.T, pair string, name func(lockstepRow) string, run func(t *testing.T, r lockstepRow)) {
	for _, r := range lockstepRows {
		if r.pair != pair {
			continue
		}
		t.Run(name(r), func(t *testing.T) {
			t.Parallel()
			run(t, r)
		})
	}
}

// TestJumpMatchesEveryCycle holds RunContext's clock jump over the spans in
// which the whole machine is a fixed point to stepping every cycle: on every
// cycle both reach, then on the result, the sampled counter snapshots, the
// event stream and the checkpoint safe points; a snapshot taken inside a
// jump span must resume, in a fresh machine, to the same state on every
// cycle. It also pins how much the mechanism finds to skip: on mcf_r at least
// 60% of cycles slept under every core1_stall policy and at least 50% jumped
// under all but IS, and under 10% slept on gcc_r Unsafe.
func TestJumpMatchesEveryCycle(t *testing.T) {
	runLockstep(t, "jump", func(r lockstepRow) string { return r.src.Name() + "/" + r.pol.String() }, func(t *testing.T, r lockstepRow) {
		if raceEnabled && r.measure < 1<<30 {
			r.warmup, r.measure = r.warmup/4, r.measure/4
		}
		name, stepped := r.src.Name()+"/"+r.pol.String(), way(t, r, "stepped", false, true, nil)
		plain, jump := ckpttest.Lockstep(t, ckpttest.Row[*sim]{Name: name, A: stepped, B: way(t, r, "jumped", true, true, nil), Every: ctxCheckMask + 1})
		switch {
		case jump.run.res != plain.run.res:
			t.Fatalf("result %+v, stepping every cycle gives %+v", jump.run.res, plain.run.res)
		case !reflect.DeepEqual(jump.Snapshots(), plain.Snapshots()):
			t.Fatalf("sampled counter snapshots differ (%d vs %d)", len(jump.Snapshots()), len(plain.Snapshots()))
		case !reflect.DeepEqual(jump.Events(), plain.Events()) || jump.ring.Total() != plain.ring.Total():
			t.Fatalf("event streams differ (%d vs %d events)", jump.ring.Total(), plain.ring.Total())
		case !slices.Equal(jump.points, plain.points):
			t.Fatalf("checkpoint safe points differ:\n%v\nvs\n%v", jump.points, plain.points)
		}
		jumps, skipped := jump.FastForwarded()
		sleptPct := 100 * float64(jump.slept()) / float64(jump.cycle*int64(len(jump.cores)))
		jumpedPct := 100 * float64(skipped) / float64(jump.cycle)
		t.Logf("%d cycles: %.1f%% of core-cycles slept, %.1f%% of cycles jumped in %d jumps, %d safe points",
			jump.cycle, sleptPct, jumpedPct, jumps, len(jump.points))
		switch {
		case raceEnabled: // the shares are for the full-size runs
			return
		case sleptPct < r.sleptAtLeast || jumpedPct < r.jumpedAtLeast:
			t.Fatalf("slept %.1f%% (want >= %.0f%%), jumped %.1f%% (want >= %.0f%%)", sleptPct, r.sleptAtLeast, jumpedPct, r.jumpedAtLeast)
		case r.sleptBelow > 0 && sleptPct >= r.sleptBelow:
			t.Fatalf("slept %.1f%% of a busy workload's cycles, want < %.0f%%", sleptPct, r.sleptBelow)
		case r.sleptAtLeast == 0:
			return
		case jump.midSleep == nil: // the stalled rows spend most safe points inside a jump span
			t.Fatalf("no checkpoint safe point fell inside a jump span: %v", jump.points)
		}
		resumed := way(t, r, "resumed mid-jump", true, true, jump.midSleep)
		if _, fork := ckpttest.Lockstep(t, ckpttest.Row[*sim]{Name: name + " resumed", A: stepped, B: resumed, Every: ctxCheckMask + 1}); fork.run.res != plain.run.res {
			t.Fatalf("resumed mid-jump: result %+v, stepping every cycle gives %+v", fork.run.res, plain.run.res)
		}
	})
}

// TestQuietTicksAreFixedPoints is the net under the quiescent-core sleep
// (pipeline/sleep.go). One way wakes every core after every tick
// (SetRecorder is one of the calls that wake a core), so it evaluates every
// cycle the way the simulator did before cores could sleep, yet still says
// which ticks it found quiet; for each of those in a checked window, the
// core's and its L1's walks must save the same bytes before and after but
// for the fields their walk lines tag `// clock` or `// counter` (Core.now,
// L1.now, the CPT's occupancy samples), and consecutive quiet ticks must move
// the counters by the same amounts. That catches a mutation site that neither
// raises Core.active nor moves a tripwire. The other way sleeps as usual: a
// core may sleep only through ticks the woken way found quiet, and the two
// must agree on every counter after every cycle and on the whole state every
// 4 096 cycles and at the end — which catches a missed wake-up or a replayed
// increment that was not constant.
func TestQuietTicksAreFixedPoints(t *testing.T) {
	var names []string
	for _, r := range lockstepRows {
		if r.pair == "sleep" && !slices.Contains(names, r.name) {
			names = append(names, r.name)
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var quiet, slept, cptInserts int64
			for _, r := range lockstepRows {
				if r.pair == "sleep" && r.name == name {
					t.Run(r.src.Name(), func(t *testing.T) {
						q, sleeper := checkFixedPoints(t, r)
						quiet, slept = quiet+q, slept+sleeper.slept()
						for _, c := range sleeper.cores {
							if cpt := c.CPT(); cpt != nil {
								cptInserts += int64(cpt.Inserts())
							}
						}
					})
				}
			}
			if quiet == 0 || slept == 0 {
				t.Fatalf("checked %d quiet ticks, the sleeping machine slept %d cycles: the oracle saw nothing", quiet, slept)
			}
			if name == "SmallCPT" && cptInserts == 0 {
				t.Fatal("the contended workload never reached the Cannot-Pin Table")
			}
		})
	}
}

// checkFixedPoints runs one sleep row and returns how many quiet ticks the
// woken way held to a fixed point, and the sleeping way where it ended.
func checkFixedPoints(t *testing.T, r lockstepRow) (quiet int64, sleeper *sim) {
	cycles := r.warmup
	if raceEnabled {
		cycles /= 4
	}
	var (
		quietAt    int64  // the cycle the woken way last stepped to
		wasQuiet   []bool // and which of its cores found that tick quiet
		prev, cur  []uint64
		delta      [][]uint64 // a core's previous tick's counter increments, if it was quiet
		holds      [][2]ckpttest.Fixpoint
		sleptSoFar []int64
	)
	values := func(m *sim, into []uint64) []uint64 {
		into = into[:0]
		for _, h := range m.cnt {
			into = append(into, *h)
		}
		return into
	}
	awake := ckpttest.Way[*sim]{Name: "woken", New: func() *sim {
		m := newSim(t, r, false)
		n := len(m.cores)
		quietAt, wasQuiet, delta, holds = 0, make([]bool, n), make([][]uint64, n), make([][2]ckpttest.Fixpoint, n)
		return m
	}, Step: func(m *sim) bool {
		if m.cycle >= cycles {
			return false
		}
		checked := m.cycle%(fixedPointWindow*r.stride) < fixedPointWindow
		m.cycle++
		m.mem.Tick(m.cycle)
		for i, c := range m.cores {
			walks := [2]func(ckptio.State){c.State, m.mem.L1(i).State}
			for k := 0; checked && k < len(walks); k++ {
				if err := holds[i][k].Hold(walks[k]); err != nil {
					t.Fatal(err)
				}
			}
			prev = values(m, prev)
			c.Tick(m.cycle)
			wasQuiet[i] = c.Quiet()
			c.SetRecorder(m.batch) // keeps the core awake
			if !wasQuiet[i] {
				delta[i] = delta[i][:0]
				continue
			}
			cur = values(m, cur)
			for k := range cur {
				cur[k] -= prev[k]
			}
			if len(delta[i]) > 0 && !slices.Equal(cur, delta[i]) {
				t.Fatalf("core %d @%d: consecutive quiet ticks moved the counters differently:\n%v\nthen\n%v", i, m.cycle, delta[i], cur)
			}
			delta[i] = append(delta[i][:0], cur...)
			for k := 0; checked && k < len(walks); k++ {
				if moved, err := holds[i][k].Moved(walks[k], "clock", "counter"); err != nil || moved != "" {
					t.Fatalf("core %d @%d: a tick declared quiet changed serialized state: %s%v", i, m.cycle, moved, err)
				}
			}
			if checked {
				quiet++
			}
		}
		quietAt = m.cycle
		return true
	}}
	asleep := ckpttest.Way[*sim]{Name: "sleeping", New: func() *sim {
		m := newSim(t, r, false)
		sleptSoFar = make([]int64, len(m.cores))
		return m
	}, Step: func(m *sim) bool {
		if m.cycle >= cycles {
			return false
		}
		m.stepCycle()
		for i, c := range m.cores {
			if c.SleptCycles() != sleptSoFar[i] && !(quietAt == m.cycle && wasQuiet[i]) {
				t.Fatalf("core %d @%d: the sleeping way replayed a tick the woken way found active", i, m.cycle)
			}
			sleptSoFar[i] = c.SleptCycles()
		}
		return true
	}}
	woken, sleeper := ckpttest.Lockstep(t, ckpttest.Row[*sim]{Name: r.name + "/" + r.src.Name(), A: awake, B: asleep,
		Every: ctxCheckMask + 1, Quick: (*sim).counters})
	if woken.slept() != 0 {
		t.Fatal("the woken way slept")
	}
	return quiet, sleeper
}

// TestSnapshotRestoreEquivalence is the checkpoint's correctness bar: for
// every scheme family, a Run that snapshots every 4 096 cycles must end in
// the state and on the result of one that does not, and a run resumed from
// its first and from its last snapshot must stand in that state on every
// cycle after the restore and end on that result: interval cycles, CPI,
// every counter and every core's halt cycle.
// The "attack" row runs the spectre_v1 kernel to its halt and resumes from
// its first safe point: a divergence there would mean checkpointing perturbs
// exactly the timing the security oracle measures. The snapshot is
// System.Snapshot, the payload checkpoint.Capture wraps.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	runLockstep(t, "resume", func(r lockstepRow) string { return cmp.Or(r.name, r.pol.String()) }, func(t *testing.T, r lockstepRow) {
		ref, blobs := newSim(t, r, false), [][]byte(nil)
		ref.SetCheckpointHook(ctxCheckMask+1, func() error {
			blob, err := ref.Snapshot()
			blobs = append(blobs, blob)
			return err
		})
		want, err := ref.Run(r.warmup, r.measure)
		if err != nil {
			t.Fatal(err)
		}
		end, err := ref.Snapshot()
		if want.Counters = nil; err != nil || len(blobs) == 0 {
			t.Fatalf("the run ended before its first safe point, or %v", err)
		}
		from := [][]byte{blobs[0], blobs[len(blobs)-1]}
		if r.name == "attack" {
			from = from[:1]
		}
		for i, blob := range from {
			a, b := ckpttest.Lockstep(t, ckpttest.Row[*sim]{Name: r.src.Name() + "/" + r.pol.String(),
				A: way(t, r, "uninterrupted", true, false, nil), B: way(t, r, "resumed", true, false, blob), Every: ctxCheckMask + 1})
			if got, _ := a.Snapshot(); a.run.res != want || b.run.res != want || !bytes.Equal(got, end) {
				t.Fatalf("resumed from safe point %d: result %+v, uninterrupted %+v, snapshotting %+v", i, b.run.res, a.run.res, want)
			}
			for c := range a.cores {
				if r.name == "attack" && a.Core(c).HaltCycle() < 0 {
					t.Fatalf("core %d of the attack kernel never halted", c)
				}
			}
		}
	})
}
