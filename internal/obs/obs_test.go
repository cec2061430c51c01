package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pinnedloads/internal/stats"
)

func TestNopRecorder(t *testing.T) {
	if Nop.Enabled() {
		t.Fatal("Nop recorder reports Enabled")
	}
	Nop.Record(Event{Kind: KindPin}) // must not panic
}

func TestRingRecordsInOrder(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{Cycle: int64(i), Kind: KindRetire})
	}
	if r.Len() != 5 || r.Total() != 5 || r.Dropped() != 0 {
		t.Fatalf("len=%d total=%d dropped=%d, want 5/5/0", r.Len(), r.Total(), r.Dropped())
	}
	for i, ev := range r.Events() {
		if ev.Cycle != int64(i) {
			t.Fatalf("event %d has cycle %d", i, ev.Cycle)
		}
	}
}

func TestRingWraparoundKeepsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 11; i++ {
		r.Record(Event{Cycle: int64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("len=%d, want 4", r.Len())
	}
	if r.Dropped() != 7 {
		t.Fatalf("dropped=%d, want 7", r.Dropped())
	}
	evs := r.Events()
	for i, want := range []int64{7, 8, 9, 10} {
		if evs[i].Cycle != want {
			t.Fatalf("event %d has cycle %d, want %d", i, evs[i].Cycle, want)
		}
	}
}

func TestRingRejectsZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

func TestKindAndCauseStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if numKinds.String() != "unknown" {
		t.Fatal("out-of-range kind must render as unknown")
	}
}

func TestSamplerDeltas(t *testing.T) {
	var c stats.Counters
	s := NewSampler(100)

	c.Add("retired", 10)
	s.MaybeSample(50, &c) // before the first interval boundary: no snapshot
	if len(s.Snapshots()) != 0 {
		t.Fatal("sampled before the interval elapsed")
	}
	s.MaybeSample(100, &c)
	c.Add("retired", 7)
	c.Inc("l1.misses")
	s.MaybeSample(150, &c) // mid-interval: still nothing
	s.MaybeSample(200, &c)
	s.Finish(230, &c)

	snaps := s.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	if snaps[0].Cycle != 100 || snaps[0].Counters["retired"] != 10 || snaps[0].Delta["retired"] != 10 {
		t.Fatalf("snapshot 0 wrong: %+v", snaps[0])
	}
	if snaps[1].Cycle != 200 || snaps[1].Delta["retired"] != 7 || snaps[1].Delta["l1.misses"] != 1 {
		t.Fatalf("snapshot 1 wrong: %+v", snaps[1])
	}
	if len(snaps[2].Delta) != 0 {
		t.Fatalf("final snapshot should have an empty delta, got %v", snaps[2].Delta)
	}

	// Finish at the last sampled cycle must not duplicate.
	s.Finish(230, &c)
	if len(s.Snapshots()) != 3 {
		t.Fatal("Finish re-sampled an already-sampled cycle")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	events := []Event{
		{Cycle: 1, Core: 0, Kind: KindVPAdvance, Seq: 0, Arg: 4},
		{Cycle: 2, Core: 1, Kind: KindPin, Seq: 7, Line: 0x1a40},
		{Cycle: 3, Core: 1, Kind: KindMSHRAlloc, Line: 0x2000, Arg: 1},
		{Cycle: 4, Core: 0, Kind: KindDeferredInval, Line: 0x1a40, Arg: 1},
		{Cycle: 5, Core: 1, Kind: KindSquash, Seq: 9, Arg: 12, Cause: CauseBranch},
		{Cycle: 6, Core: 1, Kind: KindUnpin, Seq: 7, Line: 0x1a40, Arg: 1},
		{Cycle: 7, Core: 0, Kind: KindRetire, Seq: 20, Arg: 4},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, 2); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 2 process-name metadata records + 7 events.
	if len(doc.TraceEvents) != 9 {
		t.Fatalf("got %d trace events, want 9", len(doc.TraceEvents))
	}
	for _, name := range []string{"vp_frontier", "pin", "unpin", "deferred_inval", "squash", "mshr_alloc", "retired"} {
		if !strings.Contains(buf.String(), "\"name\":\""+name+"\"") {
			t.Fatalf("trace lacks %q events", name)
		}
	}
	// Every record must carry a phase and a timestamp or be metadata.
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "" {
			t.Fatalf("record without phase: %v", ev)
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	events := []Event{
		{Cycle: 1, Core: 0, Kind: KindVPAdvance, Arg: 3},
		{Cycle: 2, Core: 3, Kind: KindSquash, Seq: 5, Arg: 2, Cause: CauseMCV},
	}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, events, 4); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, events, 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical event streams produced different trace bytes")
	}
}
