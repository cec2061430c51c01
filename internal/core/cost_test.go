package core

import (
	"runtime"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/trace"
)

// allocatedBy returns the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// storedSets returns the LLC sets the machine's slices hold storage for,
// between them.
func storedSets(sys *System) int {
	n := 0
	for i := 0; i < sys.mem.Dirs(); i++ {
		n += sys.mem.Dir(i).StoredSets()
	}
	return n
}

// TestMachineCostsWhatItHolds pins what building a machine allocates to what
// its LLC holds, in counts that do not depend on the host: a blank machine
// allocates no more than it does with a fabric ring sized to the
// configuration's longest delay (a ratchet: lower it, never raise it),
// a warmed one stores no set — its warm lines are runs — and a run stores only
// sets the protocol reached, which a restore gives back only where they hold
// a line in the long form.
func TestMachineCostsWhatItHolds(t *testing.T) {
	pol := defense.Policy{Scheme: defense.DOM, Variant: defense.EP}
	for _, tc := range []struct {
		bench string
		blank uint64 // what NewBlank allocates, a 128-slot fabric ring included
	}{
		{"exchange2_r", 227_288}, // nothing LLC-resident to warm
		{"gcc_r", 227_416},
		// Fills every way of every slice: 128 planes, 11.7 MB at cee097c.
		{"canneal", 801_888},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			w := trace.ByName(tc.bench)
			cfg := arch.PaperConfig(w.Cores())
			var sys *System
			var err error
			blank := allocatedBy(func() { sys, err = NewBlank(cfg, pol, w, 1) })
			if err != nil {
				t.Fatal(err)
			}
			// The race detector's instrumentation allocates on its own account.
			if !raceEnabled && blank > tc.blank {
				t.Errorf("NewBlank allocated %d bytes, want at most %d", blank, tc.blank)
			}
			built := allocatedBy(func() { sys, err = New(cfg, pol, w, 1) })
			if err != nil {
				t.Fatal(err)
			}
			if n := storedSets(sys); n != 0 {
				t.Errorf("warmed machine stores %d sets, want 0", n)
			}
			// The runs: a few hundred records a slice, not the lines.
			if most := blank + 64<<10; built > most {
				t.Errorf("New allocated %d bytes, want at most %d: a blank machine and its runs", built, most)
			}

			// Run into demand fills and evictions: every stored set is one a
			// directory request reached. Then fork: the blank target stores
			// only the sets that hold a line in the long form, which the
			// protocol made.
			for i := 0; i < 4000; i++ {
				sys.stepCycle()
			}
			requests := uint64(0)
			for _, k := range []string{"GetS", "GetX", "GetX*", "PutM"} {
				requests += sys.count.Get("coh.msg." + k)
			}
			stored := storedSets(sys)
			if stored == 0 || uint64(stored) > requests {
				t.Errorf("after 4000 cycles %d sets are stored, and the directories took %d requests", stored, requests)
			}
			blob, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fork, err := NewBlank(cfg, pol, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			restored := allocatedBy(func() { err = fork.Restore(blob) })
			if err != nil {
				t.Fatal(err)
			}
			if n := storedSets(fork); n == 0 || n > stored {
				t.Errorf("restored machine stores %d sets, the one captured %d", n, stored)
			}
			// A blank core's queues, tables and L1 tags grow to the loaded
			// state's size on the first restore: under 128 KB a core. A
			// stored set costs at most its 16 ways and tags, and the carving
			// a 256-way slab a slice.
			most := uint64(storedSets(fork))*16*34 + uint64(cfg.LLCSlices)*256*34 + uint64(w.Cores())<<17
			if restored > most {
				t.Errorf("Restore allocated %d bytes, want at most %d: %d stored sets and the cores' state", restored, most, storedSets(fork))
			}
		})
	}
}

// TestNewStoresNoSet: building a warmed machine stores no LLC set, for every
// SPEC17 proxy and for the eight-core canneal and ocean_cp, whose warm sets
// fill every way of every slice — every warm line is a run until the protocol
// opens its set.
func TestNewStoresNoSet(t *testing.T) {
	benches := []string{"canneal", "ocean_cp"}
	for _, p := range trace.Suites()["SPEC17"] {
		benches = append(benches, p.BenchName)
	}
	for _, bench := range benches {
		w := trace.ByName(bench)
		sys, err := New(arch.PaperConfig(w.Cores()), defense.Policy{Scheme: defense.Unsafe}, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n := storedSets(sys); n != 0 {
			t.Errorf("%s: New stored %d sets", bench, n)
		}
		if err := sys.mem.CheckResidency(); err != nil {
			t.Errorf("%s: %v", bench, err)
		}
	}
}

// TestCarvingHoldsWhatItStores pins, in ways, what a short mcf_r run carves
// for its LLC: a count that does not depend on the host. A stored set holds a
// block of exactly the ways it needs and one it outgrows is freed for the
// next set of that size, so every carved way is a stored set's valid way or a
// free one.
func TestCarvingHoldsWhatItStores(t *testing.T) {
	w := trace.ByName("mcf_r")
	sys, err := New(arch.PaperConfig(w.Cores()), defense.Policy{Scheme: defense.DOM, Variant: defense.EP}, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(3_000, 7_500); err != nil {
		t.Fatal(err)
	}
	carved, valid, free := 0, 0, 0
	for i := 0; i < sys.mem.Dirs(); i++ {
		c, v, f := sys.mem.Dir(i).Carving()
		carved, valid, free = carved+c, valid+v, free+f
	}
	if carved != valid+free {
		t.Errorf("carved %d ways: %d valid in stored sets and %d free", carved, valid, free)
	}
	if stored := storedSets(sys); carved != 10_633 || free != 78 || stored != 2_188 {
		t.Errorf("carved %d ways, %d of them free, for %d stored sets; want 10 633, 78 and 2 188", carved, free, stored)
	}
}
