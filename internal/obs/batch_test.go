package obs

import (
	"testing"
)

// genEvents builds a deterministic event stream long enough to exercise
// threshold flushes and ring wraparound.
func genEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Cycle: int64(i),
			Seq:   int64(i * 3),
			Line:  uint64(i) << 6,
			Arg:   int64(i % 7),
			Core:  int16(i % 4),
			Kind:  Kind(i % int(numKinds)),
			Cause: Cause(i % 5),
		}
	}
	return evs
}

// TestBatchEquivalentToDirect is the batching layer's correctness
// contract: a ring fed through a Batch must end up byte-identical to a
// ring fed directly, for stream lengths below, at, and beyond both the
// flush threshold and the ring capacity.
func TestBatchEquivalentToDirect(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200, 1000} {
		evs := genEvents(n)

		direct := NewRing(64)
		for _, ev := range evs {
			direct.Record(ev)
		}

		batched := NewRing(64)
		b := NewBatch(batched, 8)
		for _, ev := range evs {
			b.Record(ev)
		}
		b.Flush()

		if direct.Total() != batched.Total() || direct.Dropped() != batched.Dropped() {
			t.Fatalf("n=%d: total/dropped %d/%d direct vs %d/%d batched",
				n, direct.Total(), direct.Dropped(), batched.Total(), batched.Dropped())
		}
		de, be := direct.Events(), batched.Events()
		if len(de) != len(be) {
			t.Fatalf("n=%d: %d events direct vs %d batched", n, len(de), len(be))
		}
		for i := range de {
			if de[i] != be[i] {
				t.Fatalf("n=%d: event %d differs: %+v direct vs %+v batched", n, i, de[i], be[i])
			}
		}
	}
}

// plainRecorder lacks RecordAll, forcing Batch onto its per-event
// fallback path.
type plainRecorder struct {
	evs []Event
}

func (p *plainRecorder) Enabled() bool   { return true }
func (p *plainRecorder) Record(ev Event) { p.evs = append(p.evs, ev) }

func TestBatchFallbackWithoutBulkRecorder(t *testing.T) {
	evs := genEvents(20)
	dst := &plainRecorder{}
	b := NewBatch(dst, 8)
	for _, ev := range evs {
		b.Record(ev)
	}
	b.Flush()
	if len(dst.evs) != len(evs) {
		t.Fatalf("got %d events, want %d", len(dst.evs), len(evs))
	}
	for i := range evs {
		if dst.evs[i] != evs[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, dst.evs[i], evs[i])
		}
	}
}

func TestBatchFlushEmptyIsNoop(t *testing.T) {
	r := NewRing(4)
	b := NewBatch(r, 8)
	b.Flush()
	if r.Total() != 0 {
		t.Fatalf("flush of empty batch recorded %d events", r.Total())
	}
}

func TestBatchRejectsZeroThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBatch(r, 0) did not panic")
		}
	}()
	NewBatch(NewRing(4), 0)
}

func TestRingRecordAllMatchesRecord(t *testing.T) {
	// One oversized batch must wrap the ring exactly like individual
	// Record calls would.
	evs := genEvents(150)
	direct := NewRing(32)
	for _, ev := range evs {
		direct.Record(ev)
	}
	bulk := NewRing(32)
	bulk.RecordAll(evs)
	if direct.Total() != bulk.Total() {
		t.Fatalf("total %d direct vs %d bulk", direct.Total(), bulk.Total())
	}
	de, be := direct.Events(), bulk.Events()
	for i := range de {
		if de[i] != be[i] {
			t.Fatalf("event %d differs: %+v direct vs %+v bulk", i, de[i], be[i])
		}
	}
}

// TestBatchSteadyStateAllocs pins the hot-path cost: once warmed, a
// Record through the Batch into a Ring must not allocate.
func TestBatchSteadyStateAllocs(t *testing.T) {
	r := NewRing(1 << 10)
	b := NewBatch(r, 64)
	ev := Event{Kind: KindRetire}
	if n := testing.AllocsPerRun(1000, func() { b.Record(ev) }); n != 0 {
		t.Fatalf("batched Record allocates %v per op in steady state", n)
	}
}
