package coherence

import (
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/xrand"
)

// denseRef is the layout the planes and filter replaced: every way of every
// set in one array, found by scanning the set. It is the reference the
// differential test holds Dir to.
type denseRef struct {
	ways  int
	lines []dirLine
	stamp uint64
}

func (r *denseRef) set(s int) []dirLine { return r.lines[s*r.ways : (s+1)*r.ways] }

// lookup returns the way of the set holding the line and firstInvalid its
// first invalid way; -1 when there is none.
func (r *denseRef) lookup(s int, line uint64) int {
	for w, ln := range r.set(s) {
		if ln.valid && ln.addr == line {
			return w
		}
	}
	return -1
}

func (r *denseRef) firstInvalid(s int) int {
	for w, ln := range r.set(s) {
		if !ln.valid {
			return w
		}
	}
	return -1
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
		case !e.valid:
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
		ws[idle] = dirLine{}
		return idle, idle, -1
	}
	return -1, -1, held
}

// TestDirMatchesDenseReference drives one slice and the dense reference
// through the same random warm installs, misses (allocWay, fill, touch),
// drops and state changes, over lines chosen to fill sets past their ways and
// to collide in the filter (upper address bits 2^15 apart share a tag). After
// every step the way chosen, the victim evicted or recalled, every way's
// contents and the derived state must agree, and a way's address must never
// change: planes do not move.
func TestDirMatchesDenseReference(t *testing.T) {
	cfg := arch.PaperConfig(2)
	cfg.LLCSets = 4
	var count stats.Counters
	d := NewSystem(&cfg, &count).Dir(0)
	ref := &denseRef{ways: cfg.LLCWays, lines: make([]dirLine, cfg.LLCSets*cfg.LLCWays)}

	// pick draws a line of slice 0: a random set and one of 24 upper
	// addresses, each in four aliases the filter cannot tell apart.
	rng := xrand.New(18)
	pick := func() (line uint64, set int) {
		set = rng.Intn(cfg.LLCSets)
		upper := uint64(rng.Intn(24)) + uint64(rng.Intn(4))<<15
		return (upper*uint64(cfg.LLCSets) + uint64(set)) * uint64(cfg.LLCSlices), set
	}
	ptrs := map[int]*dirLine{}
	warm := 0
	for step := 0; step < 40_000; step++ {
		line, set := pick()
		_, tag := d.home(line)
		if _, other := d.home(line + uint64(cfg.LLCSets*cfg.LLCSlices)<<15); other != tag {
			t.Fatalf("lines 2^15 upper addresses apart have tags %#x and %#x", tag, other)
		}
		rw := ref.lookup(set, line)
		if gs, gw := d.find(line); gs != set || gw != rw {
			t.Fatalf("step %d: find(%#x) = set %d way %d, reference set %d way %d", step, line, gs, gw, set, rw)
		}
		// The first 200 steps only install, so the warm-only shortcut runs
		// on sets of every occupancy before anything else fills the slice.
		switch op := rng.Intn(4); {
		case op == 0 || step < 200:
			if w := ref.firstInvalid(set); rw < 0 && w >= 0 {
				ref.stamp++
				ref.set(set)[w] = dirLine{valid: true, addr: line, owner: -1, lru: ref.stamp}
			}
			d.InstallWarm(line)
			if d.warmOnly {
				warm++
			}
		case op == 1 && rw < 0:
			way, evicted, recalled := ref.alloc(set)
			gs, gw := d.allocWay(line)
			if gs != set || gw != way {
				t.Fatalf("step %d: allocWay(%#x) = set %d way %d, reference set %d way %d (evicted %d, recalled %d)",
					step, line, gs, gw, set, way, evicted, recalled)
			}
			if recalled >= 0 {
				got := d.planes[recalled][set]
				if got.busy != busyRecall {
					t.Fatalf("step %d: reference recalls way %d, which is %+v", step, recalled, got)
				}
				ref.set(set)[recalled] = got
			}
			if way >= 0 {
				ln := dirLine{valid: true, addr: line, owner: -1, sharers: uint32(rng.Intn(4))}
				if ln.sharers == 0 && rng.Bool(0.3) {
					ln.owner = int8(rng.Intn(2))
				}
				d.touch(d.fill(set, way, ln))
				ref.stamp++
				ln.lru = ref.stamp
				ref.set(set)[way] = ln
			}
		case op == 2 && rw >= 0:
			d.drop(set, rw)
			ref.set(set)[rw] = dirLine{}
		case rw >= 0:
			// End a recall, or release the line, so later misses find idle
			// and held victims of every age.
			release := rng.Bool(0.5)
			ref.stamp++
			for _, e := range []*dirLine{d.lookup(line), &ref.set(set)[rw]} {
				e.busy, e.pendAcks, e.lru = busyNone, 0, ref.stamp
				if release {
					e.sharers, e.owner = 0, -1
				}
			}
			d.stamp++
		}

		if d.stamp != ref.stamp {
			t.Fatalf("step %d: stamp %d, reference %d", step, d.stamp, ref.stamp)
		}
		for w, want := range ref.set(set) {
			var got dirLine
			if d.planes[w] != nil {
				got = d.planes[w][set]
				i := set*cfg.LLCWays + w
				if ptrs[i] == nil {
					ptrs[i] = &d.planes[w][set]
				} else if ptrs[i] != &d.planes[w][set] {
					t.Fatalf("step %d: set %d way %d moved", step, set, w)
				}
			}
			if got != want {
				t.Fatalf("step %d: set %d way %d is %+v, reference %+v", step, set, w, got, want)
			}
		}
		if step%64 == 0 {
			if err := d.checkWays(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if warm < 100 {
		t.Fatalf("only %d installs ran in the warm-only state", warm)
	}
	if got := count.Get("coh.llc_evictions"); got == 0 || count.Get("coh.msg.Recall") == 0 {
		t.Fatalf("%d evictions, %d recalls: the run never took one of the paths", got, count.Get("coh.msg.Recall"))
	}
}

// TestResidencyHoldsFilterToWays breaks the derived state of a warmed slice
// one way at a time and requires CheckResidency to name each: a tag that is
// not its way's, a tag on an invalid way or on a way whose plane does not
// exist, a valid way the filter does not show, state left in an invalid way,
// a count that is off, and a warm-only slice whose valid ways are not the
// first of their set.
func TestResidencyHoldsFilterToWays(t *testing.T) {
	cfg := arch.PaperConfig(1)
	stride := uint64(cfg.LLCSlices * cfg.LLCSets)
	for _, tc := range []struct {
		name  string
		wreck func(d *Dir)
		want  string
	}{
		{"intact", func(d *Dir) {}, ""},
		{"tag of another line", func(d *Dir) { d.ptag[0]++ }, "filter tag"},
		{"tag on an invalid way", func(d *Dir) { d.ptag[2] = tagValid }, "filter tag"},
		{"tag on a way with no plane", func(d *Dir) { d.ptag[cfg.LLCWays-1] = tagValid }, "filter tag"},
		{"valid way the filter hides", func(d *Dir) { d.ptag[1] = 0 }, "filter tag"},
		{"state in an invalid way", func(d *Dir) { d.planes[1][5].lru = 7 }, "invalid way holds"},
		{"occupancy count", func(d *Dir) { d.occ[0]++ }, "occupancy count"},
		{"resident count", func(d *Dir) { d.resident-- }, "resident count"},
		{"warm-only with a hole", func(d *Dir) {
			d.drop(0, 0)
			d.warmOnly = true
		}, "warm-only"},
		{"line away from home", func(d *Dir) {
			d.planes[0][0].addr += uint64(cfg.LLCSlices)
			_, d.ptag[0] = d.home(d.planes[0][0].addr)
		}, "not at home"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var count stats.Counters
			sys := NewSystem(&cfg, &count)
			sys.Prewarm(single(0, stride)) // ways 0 and 1 of set 0, slice 0
			tc.wreck(sys.Dir(0))
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
