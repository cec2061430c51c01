package coherence

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/xrand"
)

// denseRef is the layout the lazy runs and per-set storage replaced: every
// way of every set in one array, installed eagerly and found by scanning the
// set. It is the reference the differential tests hold Dir to. It keeps
// which ways are valid itself: an invalid way is a zero line.
type denseRef struct {
	ways  int
	lines []dirLine
	valid []bool
	stamp uint64
}

func newDenseRef(cfg *arch.Config) *denseRef {
	n := cfg.LLCSets * cfg.LLCWays
	return &denseRef{ways: cfg.LLCWays, lines: make([]dirLine, n), valid: make([]bool, n)}
}

func (r *denseRef) set(s int) []dirLine { return r.lines[s*r.ways : (s+1)*r.ways] }

// validIn reports, way by way, which ways of the set are valid.
func (r *denseRef) validIn(s int) []bool { return r.valid[s*r.ways : (s+1)*r.ways] }

// put validates way w of the set with ln, and drop invalidates it.
func (r *denseRef) put(s, w int, ln dirLine) {
	r.set(s)[w], r.validIn(s)[w] = ln, true
}

func (r *denseRef) drop(s, w int) {
	r.set(s)[w], r.validIn(s)[w] = dirLine{}, false
}

// lookup returns the way of the set holding the line and firstInvalid its
// first invalid way; -1 when there is none.
func (r *denseRef) lookup(s int, line uint64) int {
	for w, ln := range r.set(s) {
		if r.validIn(s)[w] && ln.addr == line {
			return w
		}
	}
	return -1
}

func (r *denseRef) firstInvalid(s int) int {
	for w, valid := range r.validIn(s) {
		if !valid {
			return w
		}
	}
	return -1
}

// warm is a warm install as the eager directory ran it, line by line: nothing
// if the line is present or its set full, else the first invalid way and the
// next stamp.
func (r *denseRef) warm(s int, line uint64) {
	if w := r.firstInvalid(s); w >= 0 && r.lookup(s, line) < 0 {
		r.stamp++
		r.put(s, w, defaultLine(line, r.stamp))
	}
}

// alloc is allocWay as the dense directory ran it: the first invalid way, else
// the least recently used idle way (evicted), else the least recently used
// held way (recalled, no way returned).
func (r *denseRef) alloc(s int) (way, evicted, recalled int) {
	ws := r.set(s)
	idle, held := -1, -1
	for w := range ws {
		e := &ws[w]
		switch {
		case !r.validIn(s)[w]:
			return w, -1, -1
		case e.busy != busyNone:
		case e.sharers == 0 && e.owner < 0:
			if idle < 0 || e.lru < ws[idle].lru {
				idle = w
			}
		default:
			if held < 0 || e.lru < ws[held].lru {
				held = w
			}
		}
	}
	if idle >= 0 {
		r.drop(s, idle)
		return idle, idle, -1
	}
	return -1, -1, held
}

// specFill and specUndo are handleGetSSpec and handleSpecUndo on the
// reference.
func (r *denseRef) specFill(s int, line uint64, core int) {
	w := r.lookup(s, line)
	if w < 0 {
		if free := r.firstInvalid(s); free >= 0 {
			r.put(s, free, dirLine{addr: line, owner: -1, busy: busyFetch,
				busyReq: int8(core), fetchKind: GetSSpec, specBorn: true})
		}
		return
	}
	if e := &r.set(s)[w]; e.busy == busyNone && e.owner < 0 {
		e.sharers |= 1 << uint(core)
	}
}

func (r *denseRef) specUndo(s int, line uint64, core int) {
	w := r.lookup(s, line)
	if w < 0 || r.set(s)[w].busy != busyNone {
		return
	}
	e := &r.set(s)[w]
	e.sharers &^= 1 << uint(core)
	if e.specBorn && e.sharers == 0 && e.owner < 0 {
		r.drop(s, w)
	}
}

// snapshot is Dir.Snapshot of the reference.
func (r *denseRef) snapshot() []DirSnap {
	var out []DirSnap
	for s := 0; s < len(r.lines)/r.ways; s++ {
		set := r.set(s)
		var ways []int
		for w, valid := range r.validIn(s) {
			if valid {
				ways = append(ways, w)
			}
		}
		for a := range ways {
			for b := a + 1; b < len(ways); b++ {
				if set[ways[b]].lru > set[ways[a]].lru {
					ways[a], ways[b] = ways[b], ways[a]
				}
			}
		}
		for rank, w := range ways {
			ln := set[w]
			out = append(out, DirSnap{Set: s, Addr: ln.addr, Sharers: ln.sharers, Owner: ln.owner, Busy: uint8(ln.busy), Rank: rank})
		}
	}
	return out
}

// openAll opens every lazy set of the slice: the fully stored twin of a lazy
// slice.
func openAll(d *Dir) {
	for s := range d.sets {
		d.open(s)
	}
}

// waysOf fills buf and valid, one entry per way, with the set as the dense
// reference holds it, read through lines: zero and false for an invalid way.
func waysOf(d *Dir, set int, buf []dirLine, valid []bool) {
	clear(buf)
	clear(valid)
	for w, ln := range d.lines(set) {
		buf[w], valid[w] = ln, true
	}
}

// TestDirMatchesDenseReference drives three forms of one slice through the
// same random steps: a lazy slice, whose warm lines stay runs until an access
// opens their set; its fully stored twin, whose every set is opened after
// each warm-up and restore; and the dense reference. The steps are random
// warm installs (Prewarm ranges that repeat lines and overfill sets), then
// hits, misses (allocWay, install, touch), drops, releases, speculative fills
// and undos, and restores of the lazy slice's own bytes into both, over
// lines chosen to fill sets past their ways and to collide in the filter
// (upper address bits 2^15 apart share a tag). After every step the way
// chosen, the victim evicted or recalled, the stamp, every way of the set,
// the three Snapshots and the two slices' bytes must agree, and the lazy
// slice must have stored no set but those a step opened and those a restore
// gave a long-form line.
func TestDirMatchesDenseReference(t *testing.T) {
	cfg := arch.PaperConfig(2)
	cfg.LLCSets = 4
	var c1, c2 stats.Counters
	lazy, twin := NewSystem(&cfg, &c1).Dir(0), NewSystem(&cfg, &c2).Dir(0)
	ref := newDenseRef(&cfg)

	// pick draws a line of slice 0: a random set and one of 24 upper
	// addresses, each in four aliases the filter cannot tell apart.
	rng := xrand.New(18)
	pick := func() (line uint64, set int) {
		set = rng.Intn(cfg.LLCSets)
		upper := uint64(rng.Intn(24)) + uint64(rng.Intn(4))<<15
		return (upper*uint64(cfg.LLCSets) + uint64(set)) * uint64(cfg.LLCSlices), set
	}
	for i := 0; i < 60; i++ {
		first, _ := pick()
		r := arch.LineRange{First: first + uint64(rng.Intn(3)), N: uint64(1 + rng.Intn(8*cfg.LLCSlices))}
		lazy.prewarm([]arch.LineRange{r})
		twin.prewarm([]arch.LineRange{r})
		for l := r.First; l < r.First+r.N; l++ {
			if cfg.LLCSlice(l) == 0 {
				ref.warm(cfg.LLCSet(l), l)
			}
		}
	}
	if lazy.StoredSets() != 0 || len(lazy.runs) == 0 {
		t.Fatalf("warm-up stored %d sets in %d runs", lazy.StoredSets(), len(lazy.runs))
	}
	openAll(twin)

	opened := map[int]bool{} // sets a step opened since the last restore, or a restore stored
	// Sets holding ways that came from runs, lazy or stored by a restore,
	// that no step has reached since.
	fromRuns := map[int]bool{}
	for s := range cfg.LLCSets {
		fromRuns[s] = lazy.sets[s].occ > 0
	}
	stepsFromRuns, restores := 0, 0
	for step := 0; step < 40_000; step++ {
		line, set := pick()
		_, tag := lazy.home(line)
		if _, other := lazy.home(line + uint64(cfg.LLCSets*cfg.LLCSlices)<<15); other != tag {
			t.Fatalf("lines 2^15 upper addresses apart have tags %#x and %#x", tag, other)
		}
		rw := ref.lookup(set, line)
		if gs, gw := twin.find(line); gs != set || gw != rw {
			t.Fatalf("step %d: find(%#x) = set %d way %d, reference set %d way %d", step, line, gs, gw, set, rw)
		}
		if _, ok := lazy.peek(line); ok != (rw >= 0) {
			t.Fatalf("step %d: peek(%#x) found %v, reference way %d", step, line, ok, rw)
		}
		if fromRuns[set] {
			stepsFromRuns++
			fromRuns[set] = false
		}
		core := rng.Intn(2)
		switch op := rng.Intn(16); {
		case op == 0:
			// Restore the lazy slice's bytes into both: the lazy slice
			// takes them as runs again and stores the sets with a long-form
			// line, the twin stores every set.
			b := dirBytes(lazy)
			for _, d := range []*Dir{lazy, twin} {
				if err := loadDir(d, b); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			openAll(twin)
			restores++
			clear(opened)
			for s := range cfg.LLCSets {
				fromRuns[s] = false
				for w, ln := range ref.set(s) {
					if ref.validIn(s)[w] && !ln.isDefault() {
						opened[s] = true
					} else if ref.validIn(s)[w] {
						fromRuns[s] = true
					}
				}
			}
			if lazy.StoredSets() != len(opened) {
				t.Fatalf("step %d: restore stored %d sets, %d hold a long-form line", step, lazy.StoredSets(), len(opened))
			}
		case op < 4 && rw < 0:
			opened[set] = true
			way, evicted, recalled := ref.alloc(set)
			for _, d := range []*Dir{lazy, twin} {
				if gs, gw := d.allocWay(line); gs != set || gw != way {
					t.Fatalf("step %d: allocWay(%#x) = set %d way %d, reference set %d way %d (evicted %d, recalled %d)",
						step, line, gs, gw, set, way, evicted, recalled)
				}
			}
			if recalled >= 0 {
				got := *lazy.way(set, recalled)
				if got.busy != busyRecall {
					t.Fatalf("step %d: reference recalls way %d, which is %+v", step, recalled, got)
				}
				ref.set(set)[recalled] = got
			}
			if way >= 0 {
				ln := dirLine{addr: line, owner: -1, sharers: uint32(rng.Intn(4))}
				if ln.sharers == 0 && rng.Bool(0.3) {
					ln.owner = int8(rng.Intn(2))
				}
				lazy.touch(lazy.install(set, way, ln))
				twin.touch(twin.install(set, way, ln))
				ref.stamp++
				ln.lru = ref.stamp
				ref.put(set, way, ln)
			}
		case op < 6 && rw >= 0:
			opened[set] = true
			for _, d := range []*Dir{lazy, twin} {
				if _, w := d.find(line); w != rw {
					t.Fatalf("step %d: find(%#x) = way %d, reference %d", step, line, w, rw)
				}
				d.drop(set, rw)
			}
			ref.drop(set, rw)
		case op < 8 && rw >= 0:
			// End a recall or a fetch, or release the line to the default
			// state, so later misses find idle and held victims of every age
			// and a restore finds sets of default lines to leave lazy.
			opened[set] = true
			release := rng.Bool(0.5)
			ref.stamp++
			for _, e := range []*dirLine{lazy.lookup(line), twin.lookup(line), &ref.set(set)[rw]} {
				e.busy, e.pendAcks, e.lru = busyNone, 0, ref.stamp
				if release {
					*e = defaultLine(e.addr, e.lru)
				}
			}
			lazy.stamp++
			twin.stamp++
		case op < 10:
			opened[set] = true
			m := Msg{Kind: GetSSpec, Line: line, Src: Addr{Idx: core}}
			lazy.handleGetSSpec(m)
			twin.handleGetSSpec(m)
			ref.specFill(set, line, core)
		case op < 12:
			opened[set] = true
			m := Msg{Kind: SpecUndo, Line: line, Src: Addr{Idx: core}}
			lazy.handleSpecUndo(m)
			twin.handleSpecUndo(m)
			ref.specUndo(set, line, core)
		case op < 13:
			opened[set] = true
			if (lazy.lookup(line) != nil) != (rw >= 0) {
				t.Fatalf("step %d: lookup(%#x) disagrees with the reference", step, line)
			}
		}

		if lazy.stamp != ref.stamp || twin.stamp != ref.stamp {
			t.Fatalf("step %d: stamps %d and %d, reference %d", step, lazy.stamp, twin.stamp, ref.stamp)
		}
		view, valid := make([]dirLine, cfg.LLCWays), make([]bool, cfg.LLCWays)
		for name, d := range map[string]*Dir{"lazy": lazy, "twin": twin} {
			waysOf(d, set, view, valid)
			for w, want := range ref.set(set) {
				if view[w] != want || valid[w] != ref.validIn(set)[w] {
					t.Fatalf("step %d: %s set %d way %d is %+v (valid %v), reference %+v (valid %v)",
						step, name, set, w, view[w], valid[w], want, ref.validIn(set)[w])
				}
			}
		}
		want := ref.snapshot()
		if got := lazy.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: lazy Snapshot\n%v\nreference\n%v", step, got, want)
		}
		if got := twin.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: twin Snapshot\n%v\nreference\n%v", step, got, want)
		}
		if !bytes.Equal(dirBytes(lazy), dirBytes(twin)) {
			t.Fatalf("step %d: the lazy slice and its stored twin serialize differently", step)
		}
		for s := range cfg.LLCSets {
			if lazy.sets[s].cap > 0 && !opened[s] {
				t.Fatalf("step %d: set %d is stored, but no step opened it and no restore gave it a long-form line", step, s)
			}
		}
		if step%64 == 0 {
			for _, d := range []*Dir{lazy, twin} {
				if err := d.checkWays(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
	}
	if stepsFromRuns < 1000 || restores < 1000 {
		t.Fatalf("%d steps met a set holding ways from runs, %d restores: the run never took one of the paths", stepsFromRuns, restores)
	}
	for _, c := range []*stats.Counters{&c1, &c2} {
		if c.Get("coh.llc_evictions") == 0 || c.Get("coh.msg.Recall") == 0 || c.Get("coh.spec_fills") == 0 {
			t.Fatalf("%d evictions, %d recalls, %d spec fills: the run never took one of the paths",
				c.Get("coh.llc_evictions"), c.Get("coh.msg.Recall"), c.Get("coh.spec_fills"))
		}
	}
}

// TestResidencyHoldsFilterToWays breaks a warmed slice one way at a time and
// requires CheckResidency to name each: in the stored set, a tag that is not
// its way's, a tag on an invalid way, a valid way the filter does not show
// (which leaves state in a way the tag calls invalid), state left in an
// invalid way, a line away from home, storage outside the carved slabs or
// listed twice, a stored set missing a run way; in the runs, disorder, a run
// away from home; a lazy set with no run way, one whose run ways are more
// than it counts, one given storage without its ways; counts that are off;
// and in the carving, a free block outside the carved slabs, one holding
// state, one on another size's list, one over a stored set or another free
// block, and a carved way that is neither stored nor free. A row that needs
// a spare way or a free block first grows set 0 to three ways, which frees
// its first carving.
func TestResidencyHoldsFilterToWays(t *testing.T) {
	cfg := arch.PaperConfig(1)
	stride := uint64(cfg.LLCSlices * cfg.LLCSets)
	slices := uint64(cfg.LLCSlices)
	for _, tc := range []struct {
		name  string
		wreck func(d *Dir)
		want  string
	}{
		{"intact", func(d *Dir) {}, ""},
		{"tag of another line", func(d *Dir) { _, tags := d.stored(0); tags[0]++ }, "filter tag"},
		{"intact after a set grows", func(d *Dir) { d.reserve(0, 3) }, ""},
		{"tag on an invalid way", func(d *Dir) { d.reserve(0, 3); _, tags := d.stored(0); tags[2] = tagValid | 1 }, "filter tag"},
		{"valid way the filter hides", func(d *Dir) { _, tags := d.stored(0); tags[1] = 0 }, "invalid way holds"},
		{"state in an invalid way", func(d *Dir) { d.reserve(0, 3); d.way(0, 2).lru = 7 }, "invalid way holds"},
		{"line away from home", func(d *Dir) {
			lines, tags := d.stored(0)
			lines[0].addr += slices
			_, tags[0] = d.home(lines[0].addr)
		}, "not at home"},
		{"storage past the carved slabs", func(d *Dir) { d.next = 0 }, "carved slabs"},
		{"set listed as stored twice", func(d *Dir) { d.held = append(d.held, d.held[0]) }, "twice"},
		{"stored set not listed", func(d *Dir) { d.held = d.held[:0] }, "listed as stored"},
		{"runs out of order", func(d *Dir) { d.runs[0], d.runs[1] = d.runs[1], d.runs[0] }, "not sorted"},
		{"run away from home", func(d *Dir) { d.runs[len(d.runs)-1].addr += slices }, "not at home"},
		{"lazy set with no run way", func(d *Dir) { d.sets[3].occ, d.resident = 1, d.resident+1 }, "lazy with 0 run ways, occupancy count 1"},
		{"stale run ways and no storage", func(d *Dir) { d.sets[2].occ, d.resident = 0, d.resident-1 }, "lazy with 1 run ways, occupancy count 0"},
		// What a restore leaves if it stores a set and not its run ways.
		{"stored set missing a run way", func(d *Dir) {
			lines, tags := d.stored(0)
			lines[1], tags[1] = dirLine{}, 0
		}, "stored with 1 valid ways, occupancy count 2"},
		{"lazy set with storage", func(d *Dir) { d.reserve(1, 1) }, "stored with 0 valid ways, occupancy count 1"},
		{"occupancy count", func(d *Dir) { d.sets[0].occ-- }, "occupancy count"},
		{"resident count", func(d *Dir) { d.resident-- }, "resident count"},
		{"free block past the carved slabs", func(d *Dir) { d.release(llcSet{at: d.next, cap: 1}) }, "free block of 1 ways at 2 is not inside the carved slabs"},
		{"state in a free block", func(d *Dir) {
			d.reserve(0, 3)
			lines, _ := d.block(d.free[1][0])
			lines[1].lru = 7
		}, "free block of 2 ways at 0: way 1 holds"},
		{"free block on another size's list", func(d *Dir) {
			d.reserve(0, 3)
			d.free[2], d.free[1] = d.free[1], nil
		}, "listed with the blocks of 3"},
		{"free block over a stored set", func(d *Dir) { d.release(llcSet{at: d.sets[0].at, cap: d.sets[0].cap}) }, "free block of 2 ways at 0 overlaps"},
		{"free blocks that overlap", func(d *Dir) { d.reserve(0, 3); d.release(llcSet{at: 1, cap: 1}) }, "free block of 2 ways at 0 overlaps"},
		{"carved way neither stored nor free", func(d *Dir) { d.reserve(0, 3); d.free[1] = nil }, "carved way 0 is neither"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var count stats.Counters
			sys := NewSystem(&cfg, &count)
			// Ways 0 and 1 of set 0, way 0 of sets 1 and 2, all of slice 0;
			// set 0 is then opened, sets 1 and 2 stay lazy.
			sys.Prewarm(single(0, stride, 8, 16))
			d := sys.Dir(0)
			d.open(0)
			tc.wreck(d)
			err := sys.CheckResidency()
			switch {
			case tc.want == "" && err != nil:
				t.Fatal(err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("CheckResidency = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}
