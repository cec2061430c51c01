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

// planes returns the way planes the machine's LLC slices hold between them
// and the planes their resident lines need, slice by slice.
func planes(sys *System) (held, needed int) {
	for i := 0; i < sys.mem.Dirs(); i++ {
		h, n := sys.mem.Dir(i).Planes()
		held, needed = held+h, needed+n
	}
	return held, needed
}

// TestMachineCostsWhatItHolds pins what building a machine allocates to what
// its LLC holds, in counts that do not depend on the host: a blank machine
// owns no LLC lines, a warmed one owns a plane (way w of every set of a
// slice) per way its fullest set reaches, and a restore allocates the planes
// its checkpoint's lines need and no others.
func TestMachineCostsWhatItHolds(t *testing.T) {
	pol := defense.Policy{Scheme: defense.DOM, Variant: defense.EP}
	for _, tc := range []struct {
		bench  string
		planes int    // held after New, all slices together
		most   uint64 // bytes New may allocate, where the planes do not say
	}{
		{bench: "exchange2_r", planes: 0}, // nothing LLC-resident to warm
		{bench: "gcc_r", planes: 16},
		// Fills every way of every slice: the dense directory's worst case,
		// held to what New allocated for it at cfc7845.
		{bench: "canneal", planes: 128, most: 15_880_496},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			w := trace.ByName(tc.bench)
			cfg := arch.PaperConfig(w.Cores())
			planeBytes := uint64(cfg.LLCSets) * 40 // coherence.TestDirLineSize
			var sys *System
			var err error
			blank := allocatedBy(func() { sys, err = NewBlank(cfg, pol, w, 1) })
			if err != nil {
				t.Fatal(err)
			}
			if held, _ := planes(sys); held != 0 {
				t.Errorf("blank machine holds %d planes", held)
			}
			if most := uint64(w.Cores()+1) << 19; blank >= most {
				t.Errorf("NewBlank allocated %d bytes, want under %d", blank, most)
			}
			built := allocatedBy(func() { sys, err = New(cfg, pol, w, 1) })
			if err != nil {
				t.Fatal(err)
			}
			if held, needed := planes(sys); held != tc.planes || needed != tc.planes {
				t.Errorf("warmed machine holds %d planes and needs %d, want %d", held, needed, tc.planes)
			}
			if most := blank + uint64(tc.planes)*planeBytes + 4<<10; built > most {
				t.Errorf("New allocated %d bytes, want at most %d: a blank machine and %d planes", built, most, tc.planes)
			}
			if tc.most > 0 && built > tc.most {
				t.Errorf("New allocated %d bytes, the dense directory %d", built, tc.most)
			}

			// Run into demand fills and evictions, then fork: the blank
			// target ends up with the planes the lines need.
			for i := 0; i < 4000; i++ {
				sys.stepCycle()
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
			_, want := planes(sys)
			if held, needed := planes(fork); held != want || needed != want {
				t.Errorf("restored machine holds %d planes and needs %d, the one captured needs %d", held, needed, want)
			}
			// A blank core's queues, tables and L1 tags grow to the loaded
			// state's size on the first restore: under 128 KB a core.
			if most := uint64(want)*planeBytes + uint64(w.Cores())<<17; restored > most {
				t.Errorf("Restore allocated %d bytes, want at most %d: %d planes and the cores' state", restored, most, want)
			}
		})
	}
}
