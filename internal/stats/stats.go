// Package stats provides the statistics machinery shared by all simulator
// components: named counters, occupancy trackers, and the aggregate helpers
// (geometric mean, normalized overhead) used by the experiment harness to
// regenerate the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Counters is a set of named monotonically increasing event counters.
// The zero value is ready to use.
//
// Counters are stored behind stable pointers so hot paths can bind a name
// once with Handle and increment through the pointer with no lookup and no
// allocation. Zero-valued counters are invisible to Get/Names/
// Snapshot/Merge/String: pre-binding a handle that is never incremented
// does not change any enumerated output.
type Counters struct {
	names []string  // every bound name, ascending
	vals  []*uint64 // vals[i] is names[i]'s counter
}

// find returns the position of name in the sorted names and whether it is
// there.
func (c *Counters) find(name string) (int, bool) { return slices.BinarySearch(c.names, name) }

// Handle returns a stable pointer to the named counter's value. The
// pointer remains valid for the lifetime of c; incrementing through it is
// equivalent to Add but costs one add instruction instead of a name
// lookup. A handle whose counter stays zero leaves no trace in the
// enumerated output.
func (c *Counters) Handle(name string) *uint64 {
	i, ok := c.find(name)
	if !ok {
		c.names = slices.Insert(c.names, i, name)
		c.vals = slices.Insert(c.vals, i, new(uint64))
	}
	return c.vals[i]
}

// Add increments the named counter by n.
func (c *Counters) Add(name string, n uint64) { *c.Handle(name) += n }

// Inc increments the named counter by one.
func (c *Counters) Inc(name string) { *c.Handle(name)++ }

// Get returns the value of the named counter (zero if never incremented).
func (c *Counters) Get(name string) uint64 {
	if i, ok := c.find(name); ok {
		return *c.vals[i]
	}
	return 0
}

// Names returns the names of all nonzero counters in sorted order.
func (c *Counters) Names() []string {
	var names []string
	for i, p := range c.vals {
		if *p != 0 {
			names = append(names, c.names[i])
		}
	}
	return names
}

// Snapshot returns a copy of every nonzero counter's current value; the
// copy is independent of later increments (metrics-interval sampling
// uses it).
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.names))
	for i, p := range c.vals {
		if *p != 0 {
			out[c.names[i]] = *p
		}
	}
	return out
}

// String renders the nonzero counters as "name=value" lines in sorted
// order.
func (c *Counters) String() string {
	var b strings.Builder
	for i, p := range c.vals {
		if *p != 0 {
			fmt.Fprintf(&b, "%s=%d\n", c.names[i], *p)
		}
	}
	return b.String()
}

// Occupancy tracks the time-weighted average and maximum occupancy of a
// finite resource (for example, the Cannot-Pin Table).
type Occupancy struct {
	sum     uint64
	samples uint64
	max     int
}

// Sample records the occupancy value for one cycle.
func (o *Occupancy) Sample(v int) { o.SampleN(v, 1) }

// SampleN records the same occupancy value for n consecutive cycles.
func (o *Occupancy) SampleN(v int, n int64) {
	o.sum += uint64(v) * uint64(n)
	o.samples += uint64(n)
	if v > o.max {
		o.max = v
	}
}

// Mean returns the average sampled occupancy, or 0 with no samples.
func (o *Occupancy) Mean() float64 {
	if o.samples == 0 {
		return 0
	}
	return float64(o.sum) / float64(o.samples)
}

// Max returns the maximum sampled occupancy.
func (o *Occupancy) Max() int { return o.max }

// Samples returns the number of samples recorded.
func (o *Occupancy) Samples() uint64 { return o.samples }

// GeoMean returns the geometric mean of xs. It panics if any value is not
// positive, and returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean requires positive values, got %v", x))
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Overhead converts a normalized CPI (relative to an unsafe baseline) to a
// percentage execution overhead: 1.35x -> 35.0.
func Overhead(normalizedCPI float64) float64 {
	return (normalizedCPI - 1) * 100
}
