package obs

import "pinnedloads/internal/stats"

// Snapshot is the state of the event counters at one point in a run. Delta
// holds the change since the previous snapshot, so a sequence of snapshots
// shows *when* events happened, not just end-of-run totals.
type Snapshot struct {
	Cycle    int64
	Counters map[string]uint64 // cumulative values at Cycle
	Delta    map[string]uint64 // change since the previous snapshot
}

// Sampler captures periodic counter snapshots. The zero value is disabled;
// use NewSampler. It is driven by the simulation loop (MaybeSample once per
// cycle), so a disabled run never consults it.
type Sampler struct {
	every     int64
	lastCycle int64
	prev      map[string]uint64
	snaps     []Snapshot
}

// NewSampler returns a sampler snapshotting every interval cycles
// (interval must be > 0).
func NewSampler(interval int64) *Sampler {
	if interval <= 0 {
		panic("obs: NewSampler requires interval > 0")
	}
	return &Sampler{every: interval}
}

// MaybeSample records a snapshot if at least the sampling interval has
// elapsed since the last one.
func (s *Sampler) MaybeSample(cycle int64, c *stats.Counters) {
	if cycle-s.lastCycle < s.every {
		return
	}
	s.sample(cycle, c)
}

// Next returns the first cycle at which MaybeSample will record a snapshot.
func (s *Sampler) Next() int64 { return s.lastCycle + s.every }

// Finish records a final snapshot at the end of a run (if the last interval
// boundary did not fall exactly on the final cycle).
func (s *Sampler) Finish(cycle int64, c *stats.Counters) {
	if cycle > s.lastCycle {
		s.sample(cycle, c)
	}
}

func (s *Sampler) sample(cycle int64, c *stats.Counters) {
	cum := c.Snapshot()
	delta := make(map[string]uint64, len(cum))
	for k, v := range cum {
		if d := v - s.prev[k]; d != 0 {
			delta[k] = d
		}
	}
	s.snaps = append(s.snaps, Snapshot{Cycle: cycle, Counters: cum, Delta: delta})
	s.prev = cum
	s.lastCycle = cycle
}

// Snapshots returns the captured snapshots in cycle order.
func (s *Sampler) Snapshots() []Snapshot { return s.snaps }
