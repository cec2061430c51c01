package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the layers themselves are not instrumented). Times are
// nanoseconds since the tracer started. Parent is the index of the span
// that caused this one, -1 for a root; spans of one job share Job.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	// Sampled marks a span whose duration is an estimate scaled up from
	// sampled measurements (the cycle-loop split) rather than one timed
	// interval.
	Sampled bool `json:"sampled,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer's clock; a nil tracer's stands still.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, job int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: parent, Job: job})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span (and any span left open inside it).
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for n := len(t.stack); n > 0; n = len(t.stack) {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		t.spans[top].End = now
		if top == id {
			return
		}
	}
}

// add records a finished span under the innermost open one; the caller
// supplies the interval. Used for intervals observed after the fact (a
// job seen through Runner.Progress) and for sampled estimates.
func (t *tracer) add(name string, job int, start, end int64, sampled bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Job: job, Sampled: sampled})
}

// wrap records a finished span under the innermost open one and makes it
// the parent of that span's children that started inside the interval. A
// job seen through Runner.Progress is known only once it is over; by then
// the calls it made have recorded their own spans.
func (t *tracer) wrap(name string, job int, start, end int64) {
	if t == nil {
		return
	}
	t.add(name, job, start, end, false)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) - 1
	for k := id - 1; k >= 0 && t.spans[k].Start >= start; k-- {
		if t.spans[k].Parent == t.spans[id].Parent {
			t.spans[k].Parent = id
		}
	}
}

// count is how many spans were recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children are clipped to the parent and
// overlapping children are counted once, so the self times of a tree sum
// to the root's duration.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerOf is the module a span name belongs to: the part before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerSelfTimes sums self time per layer.
func layerSelfTimes(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, d := range selfTimes(spans) {
		out[layerOf(spans[i].Name)] += d
	}
	return out
}

// traceFile is the JSON written at the end of a traced run.
type traceFile struct {
	Workload    string           `json:"workload"`
	Seed        uint64           `json:"seed"`
	WallNS      int64            `json:"wall_ns"`
	LayerSelfNS map[string]int64 `json:"layer_self_ns"`
	Spans       []span           `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, LayerSelfNS: layerSelfTimes(t.spans), Spans: t.spans}
	if len(t.spans) > 0 {
		tf.WallNS = t.spans[0].End - t.spans[0].Start
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
