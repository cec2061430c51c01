package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersBasics(t *testing.T) {
	var c Counters
	if c.Get("x") != 0 {
		t.Fatal("fresh counter not zero")
	}
	c.Inc("x")
	c.Add("x", 4)
	c.Inc("y")
	if c.Get("x") != 5 || c.Get("y") != 1 {
		t.Fatalf("got x=%d y=%d", c.Get("x"), c.Get("y"))
	}
}

func TestCountersNamesSorted(t *testing.T) {
	var c Counters
	c.Inc("zeta")
	c.Inc("alpha")
	c.Inc("mid")
	names := c.Names()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestCountersString(t *testing.T) {
	var c Counters
	c.Add("hits", 7)
	if !strings.Contains(c.String(), "hits=7") {
		t.Fatalf("String() = %q", c.String())
	}
}

func TestOccupancy(t *testing.T) {
	var o Occupancy
	if o.Mean() != 0 || o.Max() != 0 {
		t.Fatal("zero-value occupancy not zero")
	}
	for _, v := range []int{1, 2, 3} {
		o.Sample(v)
	}
	if o.Mean() != 2 || o.Max() != 3 || o.Samples() != 3 {
		t.Fatalf("mean=%v max=%d n=%d", o.Mean(), o.Max(), o.Samples())
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean with 0 did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestGeoMeanBounds(t *testing.T) {
	// Property: min <= geomean <= max.
	if err := quick.Check(func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := GeoMean(xs)
		min, max := xs[0], xs[0]
		for _, x := range xs {
			min = math.Min(min, x)
			max = math.Max(max, x)
		}
		return g >= min-1e-9 && g <= max+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOverhead(t *testing.T) {
	if Overhead(1.35) != 35.000000000000014 && math.Abs(Overhead(1.35)-35) > 1e-9 {
		t.Fatalf("Overhead(1.35) = %v", Overhead(1.35))
	}
	if Overhead(1) != 0 {
		t.Fatalf("Overhead(1) = %v", Overhead(1))
	}
}
