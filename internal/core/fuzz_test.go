package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/ckptio/ckpttest"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/pipeline"
)

// FuzzDerivedState drives the machine-level oracles of this package: a row of
// lockstepRows, perturbed (perturb), runs two ways in lockstep while the
// reference way and every restored one run every package's derived-state
// checks (checked). Its seeds are the rows unperturbed, held to their floors;
// the seed pass leaves a row that carries a test name to that test.
func FuzzDerivedState(f *testing.F) {
	for i := range lockstepRows {
		f.Add(uint16(i), []byte(nil))
	}
	// A fuzzing worker caps the seeds too: the seed pass runs them whole.
	worker := flag.Lookup("test.fuzzworker").Value.String() == "true"
	f.Fuzz(func(t *testing.T, row uint16, p []byte) {
		i := int(row) % len(lockstepRows)
		if r := lockstepRows[i]; r.test != "" && !worker && !perturbed(p) {
			t.Skipf("runs as %s/%s", r.test, r.name)
		}
		t.Parallel()
		derive(t, i, p, !worker)
	})
}

// The fixed lists of the tests FuzzDerivedState replaced keep the names they
// ran under: each of these runs its rows of lockstepRows, unperturbed.
func TestJumpMatchesEveryCycle(t *testing.T)        { runRows(t) }
func TestQuietTicksAreFixedPoints(t *testing.T)     { runRows(t) }
func TestSnapshotRestoreEquivalence(t *testing.T)   { runRows(t) }
func TestRestoreWithBufferedStores(t *testing.T)    { runRows(t) }
func TestEPWdInvariant(t *testing.T)                { runRows(t) }
func TestPinnedBoundedByLQ(t *testing.T)            { runRows(t) }
func TestRandomScriptsProgress(t *testing.T)        { runRows(t) }
func TestInvalidWaysAreZero(t *testing.T)           { runRows(t) }
func TestObservedInvariantsRandomized(t *testing.T) { runRows(t) }

// runRows runs the rows under t, each in parallel on its subtest path.
func runRows(t *testing.T) {
	var started []string
	for i, r := range lockstepRows {
		rest, under := strings.CutPrefix(strings.TrimSuffix(r.test+"/"+r.name, "/"), t.Name())
		switch next, _, _ := strings.Cut(strings.TrimPrefix(rest, "/"), "/"); {
		case !under || rest != "" && rest[0] != '/':
		case rest == "":
			derive(t, i, nil, true)
		case !slices.Contains(started, next):
			started = append(started, next)
			t.Run(next, func(t *testing.T) {
				t.Parallel()
				runRows(t)
			})
		}
	}
}

// derive runs row i perturbed by p, and to its floors if it runs whole.
func derive(t *testing.T, i int, p []byte, whole bool) {
	r, exact := lockstepRows[i], whole && !perturbed(p)
	if !exact {
		r = perturb(r, p)
	}
	t.Logf("row %d (%s %s) perturbed by %v: %s %s under %s", i, r.test, r.name, p, r.pair, r.src.Name(), r.pol)
	// Under the race detector a jump or sleep row runs a quarter of its size
	// (a jump row still stopping on a poll) and has no floors; a resume row
	// runs whole, to reach its safe points.
	if raceEnabled && r.pair != "resume" {
		r.warmup, r.measure, r.cycles, r.floors = r.warmup/4, max(1, r.measure/4), r.cycles/4, nil
		if r.pair == "jump" {
			r.cycles = (r.cycles + ctxCheckMask) &^ ctxCheckMask
		}
	}
	a, b := map[string]func(*testing.T, lockstepRow) (*sim, *sim){"jump": jumpPair, "sleep": sleepPair, "resume": resumePair}[r.pair](t, r)
	if a == nil && exact {
		t.Fatal("the source run took no snapshot to resume from")
	} else if a == nil {
		return
	}
	// Between squashes a core's VP frontier only moves forward, each vp_advance
	// starting where the last ended.
	vp, evs := make([]int64, len(a.cores)), a.Events()
	if a.ring.Dropped() > 0 {
		evs = nil
	}
	for _, ev := range evs {
		switch {
		case ev.Kind == obs.KindVPAdvance && (ev.Seq != vp[ev.Core] || ev.Arg <= ev.Seq):
			t.Fatalf("core %d @%d: vp_advance %d -> %d, the frontier was %d", ev.Core, ev.Cycle, ev.Seq, ev.Arg, vp[ev.Core])
		case ev.Kind == obs.KindVPAdvance:
			vp[ev.Core] = ev.Arg
		case ev.Kind == obs.KindSquash:
			vp[ev.Core] = min(vp[ev.Core], ev.Seq)
		}
	}
	for _, f := range r.floors {
		f(t, a, b)
	}
}

func perturbed(p []byte) bool { return slices.ContainsFunc(p, func(b byte) bool { return b != 0 }) }

// perturb applies p to the row, a byte an axis in the order below, where zero
// or a missing byte keeps the row's value and any other picks from a list
// inside what arch.Config.Validate accepts. A row perturbed or not run whole
// is capped at a thousand instructions a core and a poll (two for a resume
// pair), checks every 64 cycles at most and has no floors.
func perturb(r lockstepRow, p []byte) lockstepRow {
	at := func(i int) int {
		if i < len(p) {
			return int(p[i])
		}
		return 0
	}
	r.seed = cmp.Or(uint64(at(1)), r.seed)
	if k := at(0); k > 0 && (k-1)%(len(kernels)+1) == len(kernels) {
		r.src = randomScript(int(r.seed))
	} else if k > 0 {
		r.src = kernels[(k-1)%(len(kernels)+1)]
	}
	if k := at(2); k > 0 { // every scheme, variant and consistency model
		r.pol = defense.Policy{Scheme: defense.Scheme(k % 6), Variant: defense.Variant(k / 6 % 4), Consistency: defense.Consistency(k / 24 % 2)}
	}
	if k := at(3); k > 0 {
		r.pair = []string{"jump", "sleep", "resume"}[(k-1)%3]
	}
	if k := at(5); k > 0 || r.from == nil {
		r.from = []int{k % 4}
	}
	r.cadence, r.cancel = cmp.Or(int64(at(4)%4), r.cadence), cmp.Or(at(6)%3, r.cancel)
	tune := r.tune
	r.tune = func(c *arch.Config) {
		if tune != nil {
			tune(c)
		}
		for i, axis := range []struct {
			field   *int
			choices []int
		}{
			{&c.ROBEntries, []int{8, 16, 32, 64, 128, 192, 256}},
			{&c.LQEntries, []int{1, 2, 4, 8, 16, 32, 62, 128}},
			{&c.L1MSHRs, []int{1, 2, 4, 8, 16, 32}},
			{&c.CPTEntries, []int{0, 1, 2, 3, 4, 8}},
			{&c.Wd, []int{1, 2, 3, 4, 8, 16}},
			{&c.L1Sets, []int{4, 8, 16, 32, 64, 128}},
			{&c.L1Ways, []int{1, 2, 3, 4, 8, 16}},
			{&c.LLCSets, []int{4, 8, 16, 32, 64, 2048}},
		} {
			if k := at(7 + i); k > 0 {
				*axis.field = axis.choices[(k-1)%len(axis.choices)]
			}
		}
		c.Wd = max(1, min(c.Wd, c.LLCWays/c.Cores))
	}
	limit := int64(poll)
	if r.pair == "resume" { // it needs a safe point before its end
		limit = 2 * poll
	}
	r.cycles = min(cmp.Or((r.cycles+ctxCheckMask)&^ctxCheckMask, limit), limit)
	r.warmup, r.measure, r.check, r.stride, r.events, r.floors = min(r.warmup, 200), min(r.measure, 1_000), max(r.check, 64), max(r.stride, 64), 0, nil
	return r
}

// sim is a System as a lockstep way runs it, recording its events; a jump or
// resume way steps its run, RunContext(warmup, measure) under way, a pass of
// the cycle loop at a time.
type sim struct {
	*System
	t        testing.TB
	ring     *obs.Ring
	run      run
	cnt      []*uint64 // every counter, in name order
	points   []int64   // the cycles the checkpoint hook fired on
	midSleep []byte    // the first snapshot taken inside a jump span
	due      [2]int64  // the cycles the cores' and the memory system's checks are next due on
	quiet    int64     // the quiet ticks a woken way held to a fixed point
	fwd      uint64    // a restored way's store-to-load forwardings at the restore
	wb       int64     // and the stores core 0's write buffer held then
}

// newSim builds the row's machine; an observed one also samples its counters
// every 1 000 cycles and snapshots at every fourth poll, keeping the first
// snapshot taken with every core asleep past the next cycle: inside a jump.
func newSim(t testing.TB, r lockstepRow, observed bool) *sim {
	cfg := arch.PaperConfig(r.src.Cores())
	if r.tune != nil {
		r.tune(&cfg)
	}
	sys, err := New(cfg, r.pol, r.src, max(r.seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := &sim{System: sys, t: t, ring: obs.NewRing(cmp.Or(r.events, 1<<15)), cnt: ckpttest.Counters(&sys.count)}
	sys.SetRecorder(m.ring)
	if observed {
		m.SampleEvery(1000)
		m.SetCheckpointHook(4*poll, func() (err error) {
			asleep := true
			for _, c := range m.cores {
				asleep = asleep && c.WakeCycle() > m.cycle+2
			}
			if m.points = append(m.points, m.cycle); asleep && m.midSleep == nil {
				m.midSleep, err = m.Snapshot()
			}
			return err
		})
	}
	return m
}

func (m *sim) Events() []obs.Event { return m.ring.Events() }

// counters walks every counter's value: a row's quick walk.
func (m *sim) counters(s ckptio.State) {
	for _, h := range m.cnt {
		s.U64(h)
	}
}

// checked is step stopped on r.cycles, if set. A reference way runs every
// core's Check on each cycle it reaches or jumps past a multiple of r.check
// (zero: of a poll), and the memory system's checks on one past a multiple of
// that or of 256 cycles, whichever is longer.
func checked(r lockstepRow, name string, reference bool, step func(*sim) bool) func(*sim) bool {
	every := cmp.Or(r.check, poll)
	return func(m *sim) bool {
		if r.cycles > 0 && m.cycle >= r.cycles || !step(m) {
			return false
		}
		for i, every := range [2]int64{every, max(every, 256)} {
			if reference && m.cycle >= m.due[i] {
				m.due[i] = (m.cycle/every + 1) * every
				m.checkDerived(name, i == 1)
			}
		}
		return true
	}
}

// CheckStack holds the CPI stack to the clock: every core-cycle, stepped,
// slept or jumped, is charged to exactly one of pipeline.Causes, so they sum
// to cores × cycles.
func (s *System) CheckStack() error {
	var sum uint64
	for _, name := range pipeline.Causes {
		sum += s.count.Get(name)
	}
	if want := uint64(len(s.cores)) * uint64(s.cycle); sum != want {
		return fmt.Errorf("the causes sum to %d core-cycles, %d cores × %d cycles are %d", sum, len(s.cores), s.cycle, want)
	}
	return nil
}

// checkDerived runs every core's Check and the CPI stack's, or the memory
// system's checks: CheckResidency, and CheckInvariants when it is quiescent.
func (m *sim) checkDerived(way string, mem bool) {
	var err error
	if mem {
		if err = m.mem.CheckResidency(); err == nil && m.mem.Quiescent() {
			err = m.mem.CheckInvariants()
		}
	} else {
		err = m.CheckStack()
	}
	for i := 0; !mem && err == nil && i < len(m.cores); i++ {
		err = m.cores[i].Check()
	}
	if err != nil {
		m.t.Fatalf("%s @%d: %v", way, m.cycle, err)
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

func (m *sim) sleptPct() float64 {
	var slept int64
	for _, c := range m.cores {
		slept += c.SleptCycles()
	}
	return 100 * float64(slept) / float64(m.cycle*int64(len(m.cores)))
}

func (m *sim) jumpedPct() float64 {
	_, skipped := m.FastForwarded()
	return 100 * float64(skipped) / float64(m.cycle)
}

func (m *sim) forwarded() uint64 {
	return m.count.Get("loads.forwarded") + m.count.Get("loads.forwarded_wb")
}

// way is the row's run, resumed from a snapshot if from is set, step a step.
func way(t testing.TB, r lockstepRow, name string, step func(*sim) bool, observed, reference bool, from []byte) ckpttest.Way[*sim] {
	return ckpttest.Way[*sim]{Name: name, Step: checked(r, name, reference, step), New: func() *sim {
		m := newSim(t, r, observed)
		if from != nil {
			if err := m.Restore(from); err != nil {
				t.Fatalf("%s: %v, restoring the snapshot of cycle %d; saved again, the machine first parts from it at %s",
					name, err, ckptio.NewDecoder(from).I64(), ckpttest.Diverges(from, m.State))
			}
			// The pipeline exports no accessor for its write buffer.
			m.fwd, m.wb = m.forwarded(), reflect.ValueOf(m.cores[0]).Elem().FieldByName("wb").FieldByName("n").Int()
			m.checkDerived(name, false)
			m.checkDerived(name, true)
		}
		m.run = m.begin(context.Background(), r.warmup, r.measure)
		return m
	}}
}

// lockstep runs two ways of the row, their counters compared on every cycle
// both reach and their whole walks every r.every cycles.
func lockstep(t testing.TB, r lockstepRow, name string, a, b ckpttest.Way[*sim]) (*sim, *sim) {
	t.Helper()
	return ckpttest.Lockstep(t, ckpttest.Row[*sim]{Name: name, A: a, B: b, Every: cmp.Or(r.every, poll), Quick: (*sim).counters})
}

// jumpPair holds RunContext's clock jump over the spans in which the whole
// machine is a fixed point to stepping every cycle: on every cycle both
// reach, then on the result, the sampled counter snapshots, the event stream
// and the checkpoint safe points; a snapshot taken inside a jump span must
// resume, in a fresh machine, to the same state on every cycle.
func jumpPair(t *testing.T, r lockstepRow) (plain, jump *sim) {
	name, stepped := r.src.Name()+"/"+r.pol.String(), way(t, r, "stepped", (*sim).plainPass, true, true, nil)
	plain, jump = lockstep(t, r, name, stepped, way(t, r, "jumped", (*sim).pass, true, false, nil))
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
	jumps, _ := jump.FastForwarded()
	t.Logf("%d cycles: %.1f%% of core-cycles slept, %.1f%% of cycles jumped in %d jumps, %d safe points",
		jump.cycle, jump.sleptPct(), jump.jumpedPct(), jumps, len(jump.points))
	if jump.midSleep != nil {
		stepped.Step = checked(r, stepped.Name, false, (*sim).plainPass) // checked once is enough
		resumed := way(t, r, "resumed mid-jump", (*sim).pass, true, false, jump.midSleep)
		if _, fork := lockstep(t, r, name+" resumed", stepped, resumed); fork.run.res != plain.run.res {
			t.Fatalf("resumed mid-jump: result %+v, stepping every cycle gives %+v", fork.run.res, plain.run.res)
		}
	}
	return plain, jump
}

// sleepPair is the net under the quiescent-core sleep (pipeline/sleep.go).
// One way wakes every core after every tick, yet says which ticks it found
// quiet; in the checked windows the core's and its L1's walks must save the
// same bytes before and after each, but for the fields walked through
// ckptio.Ticking, and consecutive quiet ticks must move the counters alike —
// which catches a site that neither raises Core.active nor moves a tripwire.
// The other way sleeps only through ticks the woken way found quiet.
func sleepPair(t *testing.T, r lockstepRow) (woken, sleeper *sim) {
	var (
		quietAt       int64  // the cycle the woken way last stepped to
		wasQuiet      []bool // and which of its cores found that tick quiet
		prev, cur     []uint64
		delta         [][]uint64 // a core's previous tick's counter increments, if it was quiet
		holds         [][2]ckpttest.Fixpoint
		sleptSoFar    []int64
		awake, dozing = ckpttest.Way[*sim]{Name: "woken"}, ckpttest.Way[*sim]{Name: "sleeping"}
		values        = func(m *sim, into []uint64) []uint64 {
			into = into[:0]
			for _, h := range m.cnt {
				into = append(into, *h)
			}
			return into
		}
	)
	awake.New = func() *sim {
		m := newSim(t, r, false)
		n := len(m.cores)
		quietAt, wasQuiet, delta, holds = 0, make([]bool, n), make([][]uint64, n), make([][2]ckpttest.Fixpoint, n)
		return m
	}
	awake.Step = checked(r, awake.Name, true, func(m *sim) bool {
		window := m.cycle%(fixedPointWindow*r.stride) < fixedPointWindow
		m.cycle++
		m.mem.Tick(m.cycle)
		for i, c := range m.cores {
			walks := [2]func(ckptio.State){c.State, m.mem.L1(i).State}
			for k := 0; window && k < len(walks); k++ {
				if err := holds[i][k].Hold(walks[k]); err != nil {
					t.Fatal(err)
				}
			}
			prev = values(m, prev)
			c.Tick(m.cycle)
			wasQuiet[i] = c.Quiet()
			if c.SetRecorder(m.ring); !wasQuiet[i] { // SetRecorder keeps the core awake
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
			for k := 0; window && k < len(walks); k++ {
				if moved, err := holds[i][k].Moved(walks[k]); err != nil {
					t.Fatal(err)
				} else if moved != "" {
					t.Fatalf("core %d @%d: a tick declared quiet changed serialized state: %s", i, m.cycle, moved)
				}
			}
			if window {
				m.quiet++
			}
		}
		quietAt = m.cycle
		return true
	})
	dozing.New = func() *sim {
		m := newSim(t, r, false)
		sleptSoFar = make([]int64, len(m.cores))
		return m
	}
	dozing.Step = checked(r, dozing.Name, false, func(m *sim) bool {
		m.stepCycle()
		for i, c := range m.cores {
			if c.SleptCycles() != sleptSoFar[i] && !(quietAt == m.cycle && wasQuiet[i]) {
				t.Fatalf("core %d @%d: the sleeping way replayed a tick the woken way found active", i, m.cycle)
			}
			sleptSoFar[i] = c.SleptCycles()
		}
		return true
	})
	if woken, sleeper = lockstep(t, r, r.name, awake, dozing); woken.sleptPct() != 0 {
		t.Fatal("the woken way slept")
	}
	return woken, sleeper
}

// resumePair is the checkpoint's correctness bar. A source run snapshots at
// every r.cadence-th safe point and is cancelled through its context at a
// later one (the daemon's crash path) or ends in the state and on the result
// of a run that does not snapshot; a run resumed from each of r.from must
// match that run on every cycle after the restore and end on its result.
func resumePair(t *testing.T, r lockstepRow) (a, b *sim) {
	src, blobs := newSim(t, r, false), [][]byte(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src.SetCheckpointHook(max(r.cadence, 1)*poll, func() error {
		if r.cycles > 0 && src.cycle >= r.cycles { // where the other ways end
			cancel()
			return nil
		}
		blob, err := src.Snapshot()
		if blobs = append(blobs, blob); r.cancel > 0 && len(blobs) == slices.Max(r.from)+r.cancel {
			cancel()
		}
		return err
	})
	want, err := src.RunContext(ctx, r.warmup, r.measure)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	ended := err == nil && (r.cycles == 0 || src.cycle <= r.cycles) // as the other ways will
	if end, _ := src.Snapshot(); len(blobs) > 0 {
		for _, i := range r.from {
			if i < 0 || i >= len(blobs) {
				i = len(blobs) - 1
			}
			a, b = lockstep(t, r, r.src.Name()+"/"+r.pol.String(), way(t, r, "uninterrupted", (*sim).pass, false, true, nil),
				way(t, r, "resumed", (*sim).pass, false, false, blobs[i]))
			want.Counters = nil
			if got, _ := a.Snapshot(); a.run.res != b.run.res || ended && (a.run.res != want || !bytes.Equal(got, end)) {
				t.Fatalf("resumed from safe point %d: result %+v, uninterrupted %+v, snapshotting %+v (%v)", i, b.run.res, a.run.res, want, err)
			}
		}
	}
	return a, b
}
