package trace_test

import (
	"testing"

	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
	"pinnedloads/internal/tracefile"
)

// TestCorrectPathIgnoresWrongPath: a generator's correct-path stream is a
// function of its source, core and seed alone. Drawing wrong-path
// instructions between Next calls, as the frontend does while a mispredicted
// branch is unresolved, must not move a single correct-path instruction, so
// two runs that squash differently still walk the same program. Covered: a
// SPEC17 proxy, a parallel proxy on every core, every attack kernel on every
// core and a replayed trace file.
func TestCorrectPathIgnoresWrongPath(t *testing.T) {
	const n = 20_000
	sources := []trace.Source{trace.ByName("gcc_r"), trace.ByName("fft")}
	for _, kind := range trace.AttackKinds {
		sources = append(sources, &trace.Attack{AttackKind: kind, Secret: 1})
	}
	sources = append(sources, tracefile.Record(trace.ByName("leela_r"), 3, n))
	for _, src := range sources {
		t.Run(src.Name(), func(t *testing.T) {
			for core := range src.Cores() {
				plain, mixed := src.Generator(core, 5), src.Generator(core, 5)
				for i := range n {
					for range i % 7 {
						mixed.WrongPath()
					}
					want, got := plain.Next(), mixed.Next()
					if got != want {
						t.Fatalf("core %d instruction %d: %+v after wrong-path draws, %+v without",
							core, i, got, want)
					}
					if want.Op == isa.Halt {
						break
					}
				}
			}
		})
	}
}
