package core

import (
	"testing"

	"pinnedloads/internal/defense"
)

// snapshotAllocBudget is the most allocations one Snapshot may make.
const snapshotAllocBudget = 4

// BenchmarkCheckpointSnapshot measures capturing the complete simulator
// state of a warmed 1-core gcc_r system under DOM-LP — the Pinned Loads
// design point with the most checkpointable structures (CSTs, CPT,
// per-set pin counts). ns/op is the write latency EXPERIMENTS.md records;
// bytes/op is the payload itself (ckptio.Encode writes through a recycled
// buffer and returns a copy as big as its bytes), and the benchmark fails
// outright above snapshotAllocBudget allocations: a snapshot is that copy
// and the sorted counter names.
func BenchmarkCheckpointSnapshot(b *testing.B) {
	sys := newBenchSystem(b, "gcc_r", defense.Policy{Scheme: defense.DOM, Variant: defense.LP}, nil)
	if !raceEnabled {
		if got := testing.AllocsPerRun(3, func() { sys.Snapshot() }); got > snapshotAllocBudget {
			b.Fatalf("Snapshot allocates %v times, budget %d", got, snapshotAllocBudget)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var blob []byte
	for i := 0; i < b.N; i++ {
		var err error
		blob, err = sys.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(blob)), "snapshot-bytes")
}

// BenchmarkCheckpointRestore measures loading that snapshot back into a
// live system — the cost a resumed job or a warm-forked sweep run pays
// once at startup.
func BenchmarkCheckpointRestore(b *testing.B) {
	pol := defense.Policy{Scheme: defense.DOM, Variant: defense.LP}
	sys := newBenchSystem(b, "gcc_r", pol, nil)
	blob, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	dst := newBenchSystem(b, "gcc_r", pol, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Restore(blob); err != nil {
			b.Fatal(err)
		}
	}
}
