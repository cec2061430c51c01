package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is what the program needs of BENCHMARK.json, the contract with
// the driver and the single list of what this benchmark reports. Every
// workload reports every end-to-end metric (README.md says what each reads
// on a workload that has no stored state to be "warm" from), and a traced
// run every per-layer metric; one that a workload does not exercise reads 0.
type benchSpec struct {
	RunSeconds float64     `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

// specPath is where the contract sits relative to the root of a checkout,
// which is where the driver and run.sh start the program.
const specPath = "BENCHMARK.json"

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds <= 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no run_seconds, end_to_end or per_layer", path)
	}
	return &s, nil
}

// reading is one reported value; n is the sample count behind a
// percentile (0 for everything else).
type reading struct {
	v float64
	n int
}

// ledger collects the readings of one run.
type ledger struct {
	vals map[string]reading
}

func newLedger() *ledger { return &ledger{vals: make(map[string]reading)} }

func (l *ledger) set(name string, v float64) { l.setN(name, v, 0) }

func (l *ledger) setN(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l.vals[name] = reading{v: v, n: n}
}

// undeclared returns the names set on the ledger that the contract does not
// declare — a bug in a workload, caught by the smoke test.
func (l *ledger) undeclared(s *benchSpec) []string {
	known := make(map[string]bool, len(s.EndToEnd)+len(s.PerLayer))
	for _, d := range s.EndToEnd {
		known[d.Name] = true
	}
	for _, d := range s.PerLayer {
		known[d.Name] = true
	}
	var bad []string
	for name := range l.vals {
		if !known[name] {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// line renders one metric as "workload metric value unit [n=N]".
func (l *ledger) line(workload string, d metricDef) string {
	r := l.vals[d.Name]
	s := fmt.Sprintf("%s %s %s %s", workload, d.Name, formatValue(r.v), d.Unit)
	if r.n > 0 {
		s += fmt.Sprintf(" n=%d", r.n)
	}
	return s
}

// formatValue prints a measurement to six significant digits (whole numbers
// in full); the JSON line carries every digit.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples, and 0 for an empty set. The input is not modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func sum(samples []float64) float64 {
	var s float64
	for _, v := range samples {
		s += v
	}
	return s
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sum(samples) / float64(len(samples))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
