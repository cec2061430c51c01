package coherence

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/ckptio/ckpttest"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
	"pinnedloads/internal/tracefile"
)

// dirBytes is one slice's section, as a saving State writes it.
func dirBytes(d *Dir) []byte {
	e := ckptio.NewEncoder()
	d.State(ckptio.SaveTo(e))
	return e.Bytes()
}

// loadDir loads data into the slice as a directory section and returns the
// decoder's verdict on it, trailing bytes included.
func loadDir(d *Dir, data []byte) error {
	dec := ckptio.NewDecoder(data)
	d.State(ckptio.LoadFrom(dec))
	return dec.Done()
}

// smallDir is a lone slice of 4 sets × 16 ways (slice 0 of 8), small enough
// to write its checkpoint section by hand.
func smallDir(t testing.TB) *Dir {
	t.Helper()
	cfg := arch.PaperConfig(1)
	cfg.LLCSets = 4
	var count stats.Counters
	return NewSystem(&cfg, &count).Dir(0)
}

// single lists the lines as runs of one: what a source that knows nothing of
// runs hands Prewarm.
func single(lines ...uint64) []arch.LineRange {
	var runs []arch.LineRange
	for _, l := range lines {
		runs = append(runs, arch.LineRange{First: l, N: 1})
	}
	return runs
}

// TestPrewarmBulkMatchesInstallWarm holds Prewarm, which records each
// slice's warm lines as runs and installs nothing, to warm installs as the
// eager directory made them, line by line, on a dense reference of every
// slice: the stamp and every way of every set, read through lines, must agree
// for every proxy's warm set and for lists that are out of order, repeat
// lines, or hold more lines of one set than it has ways. Prewarm stores no
// set, and opening every set changes no byte of any slice's section.
func TestPrewarmBulkMatchesInstallWarm(t *testing.T) {
	type warmSet struct {
		name     string
		cores    int
		runs     func(core int) []arch.LineRange
		resident int // the lines that must end up valid, when the case pins it
	}
	var sets []warmSet
	for suite, profiles := range trace.Suites() {
		for _, p := range profiles {
			sets = append(sets, warmSet{suite + "/" + p.BenchName, p.Cores(), p.WarmRanges, 0})
		}
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].name < sets[j].name })

	cfg := arch.PaperConfig(1)
	stride := uint64(cfg.LLCSlices * cfg.LLCSets) // lines this far apart share a set
	var overfull []uint64
	for i := uint64(0); i < uint64(cfg.LLCWays)+4; i++ {
		overfull = append(overfull, 0x4000+i*stride)
	}
	overfull = append(overfull, 0x4000+stride, 0x4001) // a repeat in the full set, then a new set
	recorded := &tracefile.Trace{Warm: [][]arch.LineRange{{{First: 0x100, N: 2}, {First: 0x100, N: 1},
		{First: 0x108, N: 1}, {First: 0x101, N: 1}, {First: 0x90, N: 1}, {First: 0x108, N: 2}}}}
	sets = append(sets,
		// 0x100, 0x101, 0x108, 0x90 and 0x109: every repeat is skipped.
		warmSet{"trace/duplicates", 1, recorded.WarmRanges, 5},
		// The first LLCWays lines of the full set and 0x4001.
		warmSet{"trace/overfull-set", 1, func(int) []arch.LineRange { return single(overfull...) }, cfg.LLCWays + 1})

	for _, ws := range sets {
		t.Run(ws.name, func(t *testing.T) {
			cfg := arch.PaperConfig(ws.cores)
			var count stats.Counters
			sys := NewSystem(&cfg, &count)
			refs := make([]*denseRef, sys.Dirs())
			for i := range refs {
				refs[i] = newDenseRef(&cfg)
			}
			for core := 0; core < ws.cores; core++ {
				runs := ws.runs(core)
				sys.Prewarm(runs)
				for _, r := range runs {
					for l := r.First; l < r.First+r.N; l++ {
						refs[cfg.LLCSlice(l)].warm(cfg.LLCSet(l), l)
					}
				}
			}
			if err := sys.CheckResidency(); err != nil {
				t.Fatal(err)
			}
			view, valid, resident := make([]dirLine, cfg.LLCWays), make([]bool, cfg.LLCWays), 0
			for i, ref := range refs {
				d := sys.Dir(i)
				if d.stamp != ref.stamp || d.StoredSets() != 0 {
					t.Fatalf("slice %d: stamp %d, reference %d; %d sets stored", i, d.stamp, ref.stamp, d.StoredSets())
				}
				for s := range cfg.LLCSets {
					waysOf(d, s, view, valid)
					if !slices.Equal(view, ref.set(s)) || !slices.Equal(valid, ref.validIn(s)) {
						t.Fatalf("slice %d set %d: Prewarm left %+v valid %v, the eager install %+v valid %v",
							i, s, view, valid, ref.set(s), ref.validIn(s))
					}
				}
				resident += d.resident
				before := dirBytes(d)
				openAll(d)
				if !bytes.Equal(dirBytes(d), before) {
					t.Fatalf("slice %d: opening every set changed the section", i)
				}
			}
			if err := sys.CheckResidency(); err != nil {
				t.Fatal(err)
			}
			if ws.resident > 0 && resident != ws.resident {
				t.Fatalf("%d lines valid, want %d", resident, ws.resident)
			}
		})
	}
}

// TestWarmLinesAllocatesOnce pins a proxy's warm list to one allocation of
// at most a run per kernel and one for the shared region, however many
// lines it names.
func TestWarmLinesAllocatesOnce(t *testing.T) {
	for _, name := range []string{"cactuBSSN_r", "gcc_r", "ocean_cp"} {
		p := trace.ByName(name)
		runs := p.WarmRanges(0)
		if len(runs) == 0 || len(runs) > len(p.Kernels)+1 {
			t.Fatalf("%s: %d warm runs for %d kernels", name, len(runs), len(p.Kernels))
		}
		if got := testing.AllocsPerRun(3, func() { p.WarmRanges(0) }); got != 1 {
			t.Fatalf("%s: WarmRanges allocates %v times, want 1", name, got)
		}
	}
}

// dirSection hand-writes a version 4 directory section for smallDir: the
// header fields, then whatever records appends, then an empty backlog.
func dirSection(ways int, count uint64, records func(e *ckptio.Encoder)) []byte {
	e := ckptio.NewEncoder()
	e.U64(9) // stamp
	e.Int(ways)
	e.U64(count)
	records(e)
	e.U64(0) // backlog
	return e.Bytes()
}

// smallSets is smallDir's LLCSets: way w of set s has index w*smallSets+s.
const smallSets = 4

// homeLine returns a line of slice 0 whose home set in smallDir is set; k
// tells lines of one set apart. homeLine(s+1, k) is the line a run goes on
// with after homeLine(s, k), and homeLine(0, k+1) after homeLine(3, k).
func homeLine(set, k int) uint64 { return uint64(k*smallSets+set) * 8 }

// run writes a lineDefault record: n default-state ways, the first step ways
// after the last way of the record before it.
func run(step, n, addr, lru uint64) func(*ckptio.Encoder) {
	return func(e *ckptio.Encoder) {
		e.U64(step)
		e.U8(lineDefault)
		e.U64(n)
		e.U64(addr)
		e.U64(lru)
	}
}

// fullLine writes a lineFull record owned by core 0 unless owner says
// otherwise.
func fullLine(step, addr uint64, owner int64) func(*ckptio.Encoder) {
	return recallLine(step, addr, owner, 0)
}

// recallLine is fullLine awaiting acks recall responses.
func recallLine(step, addr uint64, owner int64, acks int32) func(*ckptio.Encoder) {
	return func(e *ckptio.Encoder) {
		e.U64(step)
		e.U8(lineFull)
		e.U64(addr)
		e.U64(3) // lru
		e.U32(0) // sharers
		e.I64(owner)
		e.U8(uint8(busyNone))
		e.I64(0) // busyReq
		e.Bool(false)
		e.U32(0)
		e.I32(acks)
		e.Bool(false)
		e.U8(uint8(kindNone))
		e.Bool(false)
	}
}

func seq(fs ...func(*ckptio.Encoder)) func(*ckptio.Encoder) {
	return func(e *ckptio.Encoder) {
		for _, f := range fs {
			f(e)
		}
	}
}

// TestDirLoadStateRejectsMalformed feeds a loading Dir.State directory
// sections that are wrong in one way each. Every one must end in the decoder's sticky
// error: no panic, and no allocation that a corrupt count could size. The run
// count is the one number in a section that stands for more ways than its own
// bytes, and it stands for no memory at all: a run is checked against the ways
// the slice has left before it is taken, and an accepted one is one record
// however many ways it covers — a set's ways are stored only when the
// protocol opens the set, at most the set's ways, which is what NewSystem
// agreed to when it took the configuration — and a rejected one nothing.
func TestDirLoadStateRejectsMalformed(t *testing.T) {
	const ways = smallSets * 16
	// Ways 0-5 (plane 0 and half of plane 1) as one run, way 7 in the long
	// form, ways 9-10 as a run that the long-form line keeps apart from it.
	good := dirSection(ways, 3, seq(run(1, 6, homeLine(0, 1), 1), fullLine(2, homeLine(3, 5), 0), run(2, 2, homeLine(1, 7), 4)))
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"way step 0", dirSection(ways, 1, run(0, 1, homeLine(0, 1), 1)), "way step"},
		{"first step past the last way", dirSection(ways, 1, run(ways+1, 1, homeLine(0, 1), 1)), "way step"},
		{"later step past the last way", dirSection(ways, 2, seq(run(ways, 1, homeLine(3, 1), 1), run(1, 1, homeLine(0, 1), 2))), "way step"},
		{"step overflows int", dirSection(ways, 1, run(1<<63, 1, homeLine(0, 1), 1)), "way step"},
		{"run length 0", dirSection(ways, 1, run(1, 0, homeLine(0, 1), 1)), "run of 0 ways"},
		{"run past the last way", dirSection(ways, 1, run(ways-1, 3, homeLine(2, 1), 1)), "run of 3 ways"},
		{"run that is the whole slice and one way", dirSection(ways, 1, run(1, ways+1, homeLine(0, 1), 1)), "run of 65 ways"},
		{"run count overflows int", dirSection(ways, 1, run(2, 1<<63, homeLine(1, 1), 1)), "run of"},
		{"run count is the largest uvarint", dirSection(ways, 1, run(2, 1<<64-1, homeLine(1, 1), 1)), "run of"},
		{"run split in two", dirSection(ways, 2, seq(run(1, 2, homeLine(0, 1), 1), run(1, 4, homeLine(2, 1), 3))), "continues"},
		{"run split at a plane boundary", dirSection(ways, 2, seq(run(1, 4, homeLine(0, 1), 1), run(1, 1, homeLine(0, 2), 5))), "continues"},
		{"run whose address wraps", dirSection(ways, 1, run(4, 2, 1<<64-8, 1)), "wraps"},
		{"run whose stamp wraps", dirSection(ways, 1, run(1, 2, homeLine(0, 1), 1<<64-1)), "wraps"},
		{"run not home to its set", dirSection(ways, 1, run(1, 2, homeLine(1, 1), 1)), "not at home"},
		{"run not home to the slice", dirSection(ways, 1, run(1, 2, homeLine(0, 1)+1, 1)), "not at home"},
		{"long-form line not home to its set", dirSection(ways, 1, fullLine(1, homeLine(2, 1), 0)), "not at home"},
		{"count above the ways", dirSection(ways, ways+1, seq(run(1, 1, homeLine(0, 1), 1), func(e *ckptio.Encoder) { e.Raw(make([]byte, 4*ways)) })), "sequence length"},
		{"count above the remaining bytes", dirSection(ways, 40, run(1, 1, homeLine(0, 1), 1)), "sequence length"},
		{"unknown line form", dirSection(ways, 1, func(e *ckptio.Encoder) { e.U64(1); e.U8(2); e.U64(1); e.U64(homeLine(0, 1)); e.U64(1) }), "line form"},
		{"truncated mid-line", good[:len(good)-8], ""},
		{"truncated before the backlog", good[:len(good)-1], ""},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "trailing"},
		{"default line in the long form", dirSection(ways, 1, fullLine(1, homeLine(0, 1), -1)), "long form"},
		{"owner is not a core", dirSection(ways, 1, fullLine(1, homeLine(0, 1), 1)), "not a core"},
		{"owner below -1", dirSection(ways, 1, fullLine(1, homeLine(0, 1), -2)), "not a core"},
		// smallDir has one core: one ack is the most a recall awaits.
		{"more recall acks than cores", dirSection(ways, 1, recallLine(1, homeLine(0, 1), 0, 2)), "2 recall acks from 1 cores"},
		{"recall acks past an int8", dirSection(ways, 1, recallLine(1, homeLine(0, 1), 0, 129)), "129 recall acks"},
		{"negative recall acks", dirSection(ways, 1, recallLine(1, homeLine(0, 1), 0, -1)), "-1 recall acks"},
		{"other geometry", dirSection(ways+16, 0, seq()), "ways"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := smallDir(t)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := loadDir(d, tc.data)
			runtime.ReadMemStats(&m1)
			if err == nil || !strings.HasPrefix(err.Error(), "ckptio: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("loading error %v, want a ckptio error mentioning %q", err, tc.want)
			}
			if got := m1.TotalAlloc - m0.TotalAlloc; got > 4096 {
				t.Fatalf("rejecting the input allocated %d bytes", got)
			}
			// Whatever was loaded before the error, the slice is still
			// consistent and takes a good section afterwards.
			if err := d.checkWays(); err != nil {
				t.Fatal(err)
			}
			if err := loadDir(d, good); err != nil {
				t.Fatal(err)
			}
			if err := d.checkWays(); err != nil {
				t.Fatal(err)
			}
			if d.resident != 9 {
				t.Fatalf("the good section left %d resident ways, want 9", d.resident)
			}
			if !bytes.Equal(dirBytes(d), good) {
				t.Fatal("slice does not re-save the good section after a rejected one")
			}
		})
	}
}

// sharingEpisode leaves a two-core system with lines in every directory
// state a checkpoint can meet: prewarmed and untouched, owned, shared,
// spec-born, and mid-transaction.
func sharingEpisode(t testing.TB) *harness {
	t.Helper()
	h := newHarness(t, 2)
	h.sys.Prewarm(single(0x40>>6, 0x80>>6, 0x1000>>6, 0x1040>>6, 0x2000>>6))
	h.sys.L1(0).Load(1, 0x40)
	h.sys.L1(1).Acquire(0x80)
	h.step(400)
	h.sys.L1(1).Load(2, 0x40)       // second sharer
	h.sys.L1(0).LoadSpec(3, 0x10c0) // spec-born line
	h.sys.L1(0).Load(4, 0x3000)     // miss, left in flight
	h.sys.L1(0).Acquire(0x80)       // write against core 1's copy, in flight
	h.step(12)
	return h
}

// TestIsDefaultCoversEveryField changes each field of a default-state line
// in turn, whatever fields dirLine has, and requires the encoder's
// field-by-field test to agree with the struct comparison the decoder uses:
// a field added to dirLine and not to isDefault fails here.
func TestIsDefaultCoversEveryField(t *testing.T) {
	base := defaultLine(0x1234, 77)
	if !base.isDefault() {
		t.Fatal("defaultLine is not isDefault")
	}
	ckpttest.Variants(t, base, func(field string, ln *dirLine) {
		if got, want := ln.isDefault(), *ln == defaultLine(ln.addr, ln.lru); got != want {
			t.Errorf("after changing %s: isDefault %v, struct comparison %v", field, got, want)
		}
	})
}

// Fields of fabric that State leaves out: mask is the configuration's ring
// length less one, occupied is rebuilt when loading, scheduled is only ever
// compared with itself across one tick.
var (
	fabricDerived = []string{"mask", "occupied", "scheduled"}
	fabricConfig  = []string{"mesh", "count", "msgCount"}
)

// Fields of L1 that State leaves out. A restored L1 starts touched, with an
// empty storeTxn free list (it is a recycling pool, not state).
var (
	l1Derived = []string{"touched", "txnFree", "portsUsed"}
	l1Config  = []string{"id", "cfg", "fab", "count", "cnt", "hooks", "rec", "tracing"}
)

// Fields of Dir that its section rebuilds rather than reads: the sets' counts
// and storage, the list of stored sets, the free blocks, the carving cursor
// and the resident count follow from the records a loading State takes. runs
// and slabs are the lazy and the stored sets' ways: what the section holds.
var (
	dirDerived = []string{"sets", "free", "held", "next", "resident", "demandUsed"}
	dirConfig  = []string{"idx", "cfg", "fab", "count", "cnt", "setBits", "slabBits"}
)

// systemConfig names the field of System that State leaves out (cfg it only
// reads, for the messages' endpoint check).
var systemConfig = []string{"count"}

// TestWalksCoverEveryField: a field added to a record the walks carry must
// move the saved bytes, and a field added to a controller must be walked or
// classified as derived or configuration.
func TestWalksCoverEveryField(t *testing.T) {
	cfg := arch.PaperConfig(2)
	ckpttest.Fields(t, Msg{}, func(s ckptio.State, m *Msg) { m.walk(s, &cfg) }, nil)
	ckpttest.Fields(t, storeTxn{}, func(s ckptio.State, st *storeTxn) { st.walk(s) }, nil)
	ckpttest.Fields(t, specTxn{}, func(s ckptio.State, txn *specTxn) { txn.walk(s) }, nil)
	ckpttest.Fields(t, dirLine{owner: -1}, func(s ckptio.State, ln *dirLine) { ln.walk(s, cfg.Cores) }, nil)
	ckpttest.Container(t, "ckpt.go", fabric{}, fabricDerived, fabricConfig)
	ckpttest.Container(t, "ckpt.go", L1{}, l1Derived, l1Config)
	ckpttest.Container(t, "ckpt.go", Dir{}, dirDerived, dirConfig)
	ckpttest.Container(t, "ckpt.go", System{}, nil, systemConfig)
}

// TestFabricLongestDelayRoundTrip: at every ring length, a message scheduled
// at the configuration's longest delay survives save → load into its arrival
// cycle, and the bytes are the ones a 1 024-slot ring writes for the same
// messages: a slot's name does not depend on the ring's length.
func TestFabricLongestDelayRoundTrip(t *testing.T) {
	for _, row := range fabricRows {
		for _, start := range []int64{0, 900, 1000, 5000} {
			t.Run(fmt.Sprint(row.slots, "/", start), func(t *testing.T) {
				f, cfg := fabricFor(t, row.dram, row.slots)
				var count stats.Counters
				ref := newFabric(f.mesh, &count, arch.MaxFabricSlots)
				long := Msg{Kind: MemResp, Line: 7, Src: Addr{Dir: true}, Dst: Addr{Dir: true}}
				for _, g := range []*fabric{f, ref} {
					g.due(start)
					g.schedule(Msg{Kind: GetS, Line: 1, Dst: Addr{Dir: true}}, 1)
					g.schedule(Msg{Kind: DataS, Line: 2}, cfg.LongestDelay()/2)
					g.schedule(long, cfg.LongestDelay())
				}
				save := func(g *fabric) []byte {
					e := ckptio.NewEncoder()
					g.State(ckptio.SaveTo(e), cfg)
					return e.Bytes()
				}
				blob := save(f)
				if !bytes.Equal(blob, save(ref)) {
					t.Fatalf("a %d-slot ring saves other bytes than a %d-slot one", row.slots, arch.MaxFabricSlots)
				}
				to, _ := fabricFor(t, row.dram, row.slots)
				dec := ckptio.NewDecoder(blob)
				to.State(ckptio.LoadFrom(dec), cfg)
				if err := dec.Done(); err != nil {
					t.Fatal(err)
				}
				if got := to.nextDue(); got != start+1 {
					t.Fatalf("restored fabric's next delivery at %d, want %d", got, start+1)
				}
				arrive, got := start+int64(cfg.LongestDelay()), int64(-1)
				for c := start + 1; c <= arrive; c++ {
					for _, m := range to.due(c) {
						if m == long {
							got = c
						}
					}
				}
				if got != arrive {
					t.Fatalf("message scheduled %d cycles after %d arrived at %d, want %d", cfg.LongestDelay(), start, got, arrive)
				}
				if to.pendingMessages() != 0 {
					t.Fatalf("%d messages left after the longest delay", to.pendingMessages())
				}
			})
		}
	}
}

// TestFabricLoadRejectsMalformed: a slot the checkpoint names must arrive
// within this machine's ring. One farther ahead (written by a machine with a
// longer ring, or corrupt) is a ckptio error, never an alias of a nearer slot
// or a panic, and so is a name outside the format's slots.
func TestFabricLoadRejectsMalformed(t *testing.T) {
	const cycle = 1000
	for _, tc := range []struct {
		name string
		slot int
		want string
	}{
		{"last slot of the ring", (cycle + 127) % arch.MaxFabricSlots, ""},
		{"one past the ring", (cycle + 128) % arch.MaxFabricSlots, "128 cycles ahead, past this machine's 128-slot ring"},
		{"the cycle's own slot", cycle, "1024 cycles ahead"},
		{"name past the format", arch.MaxFabricSlots, "out of range"},
		{"negative name", -1, "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, cfg := fabricFor(t, 100, 128)
			e := ckptio.NewEncoder()
			e.I64(cycle)
			e.U64(1) // slots
			e.Int(tc.slot)
			e.U64(1) // messages in the slot
			m := Msg{Kind: GetS, Dst: Addr{Dir: true}}
			m.walk(ckptio.SaveTo(e), cfg)
			dec := ckptio.NewDecoder(e.Bytes())
			f.State(ckptio.LoadFrom(dec), cfg)
			err := dec.Done()
			switch {
			case tc.want == "" && err != nil:
				t.Fatal(err)
			case tc.want == "" && f.nextDue() != cycle+127:
				t.Fatalf("next delivery at %d, want %d", f.nextDue(), cycle+127)
			case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), "ckptio: ") || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want a ckptio error containing %q", err, tc.want)
			}
		})
	}
}

// TestL1LoadStateRejectsMalformed: the controller keeps one ownership
// transaction and one writeback per line, and one journal record or
// abandonment per token, and finds an entry by searching its list front to
// back. A checkpoint that names a line or a token twice is a ckptio error,
// never a second entry the search would not reach; the intact lists load
// back in their order.
func TestL1LoadStateRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		wreck func(l *L1)
		want  string
	}{
		{"intact", func(*L1) {}, ""},
		{"line twice in acq", func(l *L1) { l.acq = append(l.acq, &storeTxn{line: 0x80}) }, "line 0x80 has two ownership transactions"},
		{"line twice in evictBuf", func(l *L1) { l.evictBuf = append(l.evictBuf, 0x100) }, "line 0x100 is written back twice"},
		{"token twice in spec", func(l *L1) { l.spec = append(l.spec, specTxn{token: 5, line: 0x200}) }, "token 5 has two journal records"},
		{"token in spec and specAband", func(l *L1) { l.specAband = append(l.specAband, 5) }, "token 5 is abandoned twice, or journaled too"},
		{"token twice in specAband", func(l *L1) { l.specAband = append(l.specAband, 7) }, "token 7 is abandoned twice, or journaled too"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newHarness(t, 1).sys.L1(0)
			l.acq = []*storeTxn{{line: 0xc0, need: -1}, {line: 0x80, need: -1, inFlight: true}}
			l.evictBuf = []uint64{0x140, 0x100}
			l.spec = []specTxn{{token: 9, line: 0x40, hit: true}, {token: 5, line: 0x180, installed: true}}
			l.specAband = []int64{7, 3}
			tc.wreck(l)
			e := ckptio.NewEncoder()
			l.State(ckptio.SaveTo(e))
			back := newHarness(t, 1).sys.L1(0)
			d := ckptio.NewDecoder(e.Bytes())
			back.State(ckptio.LoadFrom(d))
			err := d.Done()
			switch {
			case tc.want == "" && err != nil:
				t.Fatal(err)
			case tc.want == "" && (!reflect.DeepEqual(back.acq, l.acq) || !slices.Equal(back.evictBuf, l.evictBuf) ||
				!slices.Equal(back.spec, l.spec) || !slices.Equal(back.specAband, l.specAband)):
				t.Fatalf("loaded %v %v %v %v, want the lists saved", back.acq, back.evictBuf, back.spec, back.specAband)
			case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), "ckptio: ") || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want a ckptio error containing %q", err, tc.want)
			}
		})
	}
}

// TestMsgWalkRejectsForeignEndpoints: a message in the fabric or a directory
// backlog is delivered by indexing the system's controllers with its
// destination, so one that names a controller the system does not have must
// fail the load, wherever the message sits.
func TestMsgWalkRejectsForeignEndpoints(t *testing.T) {
	const cores = 2
	slices := arch.PaperConfig(cores).LLCSlices
	for _, tc := range []struct {
		name string
		msg  Msg
		ok   bool
	}{
		{"last core, last slice", Msg{Kind: GetS, Src: Addr{Idx: cores - 1}, Dst: Addr{Dir: true, Idx: slices - 1}}, true},
		{"requestor holds a Kind", Msg{Kind: GetS, Requestor: int(numKinds) + 40}, true},
		{"destination core past the last", Msg{Kind: DataS, Dst: Addr{Idx: cores}}, false},
		{"destination slice past the last", Msg{Kind: GetS, Dst: Addr{Dir: true, Idx: slices}}, false},
		{"negative destination", Msg{Kind: DataS, Dst: Addr{Idx: -1}}, false},
		{"source core past the last", Msg{Kind: GetS, Src: Addr{Idx: cores}, Dst: Addr{Dir: true}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// In the fabric: saving checks nothing, loading must.
			from, h := newHarness(t, cores), newHarness(t, cores)
			from.sys.fab.schedule(tc.msg, 3)
			e := ckptio.NewEncoder()
			from.sys.fab.State(ckptio.SaveTo(e), from.sys.cfg)
			dec := ckptio.NewDecoder(e.Bytes())
			h.sys.fab.State(ckptio.LoadFrom(dec), h.sys.cfg)
			checkEndpointVerdict(t, "fabric", dec.Done(), tc.ok)

			// In a backlog: a directory section with no lines and the one
			// queued message.
			e = ckptio.NewEncoder()
			e.U64(9) // stamp
			e.Int(len(h.sys.Dir(0).sets) * h.sys.cfg.LLCWays)
			e.U64(0) // lines
			e.U64(1) // backlog
			m := tc.msg
			m.walk(ckptio.SaveTo(e), h.sys.cfg)
			checkEndpointVerdict(t, "backlog", loadDir(h.sys.Dir(0), e.Bytes()), tc.ok)
		})
	}
}

func checkEndpointVerdict(t *testing.T, where string, err error, ok bool) {
	t.Helper()
	switch {
	case ok && err != nil:
		t.Fatalf("%s: %v", where, err)
	case !ok && (err == nil || !strings.HasPrefix(err.Error(), "ckptio: ") || !strings.Contains(err.Error(), "is not one of")):
		t.Fatalf("%s: error %v, want a ckptio error naming the endpoint", where, err)
	}
}

// dirFieldMutations changes one field of a directory line each.
var dirFieldMutations = map[string]func(*dirLine){
	"addr":        func(ln *dirLine) { ln.addr += 1 << 20 },
	"lru":         func(ln *dirLine) { ln.lru++ },
	"sharers":     func(ln *dirLine) { ln.sharers ^= 2 },
	"prevSharers": func(ln *dirLine) { ln.prevSharers ^= 1 },
	"pendAcks":    func(ln *dirLine) { ln.pendAcks++ },
	"owner":       func(ln *dirLine) { ln.owner++ },
	"busy":        func(ln *dirLine) { ln.busy = (ln.busy + 1) % (busyRecall + 1) },
	"busyReq":     func(ln *dirLine) { ln.busyReq ^= 1 },
	"busyStar":    func(ln *dirLine) { ln.busyStar = !ln.busyStar },
	"deferred":    func(ln *dirLine) { ln.deferred = !ln.deferred },
	"fetchKind":   func(ln *dirLine) { ln.fetchKind = (ln.fetchKind + 1) % numKinds },
	"specBorn":    func(ln *dirLine) { ln.specBorn = !ln.specBorn },
}

// TestDirSaveStateSensitivity keeps the byte-comparing oracles sharp
// (TestQuietTicksAreFixedPoints, the capture → restore → capture checks):
// they see a state change only if saving is injective on live state. So
// changing any one field of any valid way, invalidating a valid way, or
// validating an invalid one must each change the slice's bytes, to bytes no
// other such change produces; and a state must save to the same bytes from
// whatever target it was restored into.
func TestDirSaveStateSensitivity(t *testing.T) {
	h := sharingEpisode(t)
	forms := map[byte]int{}
	for i := 0; i < h.sys.Dirs(); i++ {
		d := h.sys.Dir(i)
		base := dirBytes(d)
		seen := map[string]string{string(base): "the unchanged slice"}
		record := func(what string) {
			t.Helper()
			b := string(dirBytes(d))
			if prev, dup := seen[b]; dup {
				t.Fatalf("slice %d: %s serializes like %s", i, what, prev)
			}
			seen[b] = what
		}
		// Every way is stored from here on; the bytes must not notice.
		openAll(d)
		if !bytes.Equal(dirBytes(d), base) {
			t.Fatalf("slice %d: opening every set changed the bytes", i)
		}
		invalid := -1
		for set := range d.sets {
			for w := range d.cfg.LLCWays {
				j := w<<d.setBits | set
				lines, tags := d.stored(set)
				if w >= len(tags) || tags[w] == 0 {
					if invalid < 0 {
						invalid = j
					}
					continue
				}
				ln := &lines[w]
				saved := *ln
				if saved == defaultLine(saved.addr, saved.lru) {
					forms[lineDefault]++
				} else {
					forms[lineFull]++
				}
				for field, mutate := range dirFieldMutations {
					mutate(ln)
					if *ln == saved {
						t.Fatalf("mutation of %s changed nothing", field)
					}
					record(fmt.Sprintf("way %d with %s changed", j, field))
					*ln = saved
				}
				d.drop(set, w)
				record(fmt.Sprintf("way %d invalidated", j))
				d.install(set, w, saved)
			}
		}
		if invalid >= 0 {
			set, w := invalid&(d.cfg.LLCSets-1), invalid>>d.setBits
			d.install(set, w, defaultLine(uint64((7*d.cfg.LLCSets+set)*d.cfg.LLCSlices+i), 1))
			record(fmt.Sprintf("way %d validated", invalid))
			d.drop(set, w)
		}
		if !bytes.Equal(dirBytes(d), base) {
			t.Fatalf("slice %d: undoing every change did not restore the bytes", i)
		}
	}
	if forms[lineDefault] == 0 || forms[lineFull] < 4 {
		t.Fatalf("episode left %d short-form and %d long-form lines; the test needs both", forms[lineDefault], forms[lineFull])
	}

	// The same state saves to the same bytes out of a fresh target and out
	// of one that has run something else.
	e := ckptio.NewEncoder()
	h.sys.State(ckptio.SaveTo(e))
	want := e.Bytes()
	used := newHarness(t, 2)
	used.sys.Prewarm(single(0x5000>>6, 0x5040>>6, 0x40>>6))
	used.sys.L1(1).Load(1, 0x5000)
	used.sys.L1(0).Acquire(0x7000)
	used.step(300)
	for name, target := range map[string]*harness{"fresh": newHarness(t, 2), "previously run": used} {
		dec := ckptio.NewDecoder(want)
		target.sys.State(ckptio.LoadFrom(dec))
		if err := dec.Done(); err != nil {
			t.Fatalf("%s target: %v", name, err)
		}
		e := ckptio.NewEncoder()
		target.sys.State(ckptio.SaveTo(e))
		if !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("%s target re-saves different bytes", name)
		}
		if err := target.sys.CheckResidency(); err != nil {
			t.Fatalf("%s target: %v", name, err)
		}
	}
}
