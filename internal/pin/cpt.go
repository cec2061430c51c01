package pin

import "pinnedloads/internal/stats"

// CPT is the Cannot-Pin Table (paper Section 6.3): a small per-core table
// of line addresses the core must not pin because a starving writer has
// escalated to GetX*. A line enters on Inv* and leaves on Clear. If the
// table overflows, the core stops pinning any loads until the table is
// half empty, which keeps execution correct at some performance cost
// (Section 6.4).
type CPT struct {
	lines    []uint64
	capacity int // 0 = ideal (unbounded), used for the Section 9.2.2 study
	stalled  bool

	occupancy stats.Occupancy
	inserts   uint64
	overflows uint64
}

// NewCPT returns a CPT holding up to capacity lines; capacity 0 means an
// ideal, unbounded table.
func NewCPT(capacity int) *CPT {
	return &CPT{capacity: capacity}
}

// Insert records that the core may not pin the line. It reports whether
// the insertion succeeded; on overflow the core enters the stalled state
// and stops pinning until the table drains to half capacity.
func (t *CPT) Insert(line uint64) bool {
	t.inserts++
	for _, l := range t.lines {
		if l == line {
			return true
		}
	}
	if t.capacity > 0 && len(t.lines) >= t.capacity {
		t.overflows++
		t.stalled = true
		return false
	}
	t.lines = append(t.lines, line)
	return true
}

// Remove drops the line from the table (a Clear arrived).
func (t *CPT) Remove(line uint64) {
	for i, l := range t.lines {
		if l == line {
			t.lines = append(t.lines[:i], t.lines[i+1:]...)
			break
		}
	}
	if t.stalled && (t.capacity == 0 || len(t.lines) <= t.capacity/2) {
		t.stalled = false
	}
}

// Contains reports whether the line may not be pinned.
func (t *CPT) Contains(line uint64) bool {
	for _, l := range t.lines {
		if l == line {
			return true
		}
	}
	return false
}

// CanPin reports whether the core may pin loads at all; false while the
// table has overflowed and not yet drained.
func (t *CPT) CanPin() bool { return !t.stalled }

// Sample records the current occupancy for the Section 9.2.2 statistics.
func (t *CPT) Sample() { t.occupancy.Sample(len(t.lines)) }

// SampleN records the current occupancy for n cycles in which the table did
// not change.
func (t *CPT) SampleN(n int64) { t.occupancy.SampleN(len(t.lines), n) }

// Occupancy returns the occupancy tracker.
func (t *CPT) Occupancy() *stats.Occupancy { return &t.occupancy }

// Inserts returns the number of insertion attempts.
func (t *CPT) Inserts() uint64 { return t.inserts }

// Overflows returns the number of failed insertions.
func (t *CPT) Overflows() uint64 { return t.overflows }

// OverflowRate returns overflows per insertion attempt.
func (t *CPT) OverflowRate() float64 {
	if t.inserts == 0 {
		return 0
	}
	return float64(t.overflows) / float64(t.inserts)
}

// Len returns the current number of lines in the table.
func (t *CPT) Len() int { return len(t.lines) }
