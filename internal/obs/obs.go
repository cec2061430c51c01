// Package obs is the simulator's observability layer: a structured event
// tracer, a Chrome trace_event exporter, and periodic metrics snapshots.
//
// All instrumentation in the simulator goes through the Recorder interface.
// The default recorder (Nop) reports Enabled() == false, and every call
// site guards its event construction behind a cached enabled flag, so a run
// without tracing pays only a per-site branch on a local bool — no
// allocation, no interface call, no event formatting. The Ring recorder
// keeps the most recent events in a fixed-size buffer so tracing long runs
// has bounded memory: when the buffer wraps, the oldest events are dropped
// and counted.
package obs

// Kind identifies one event type in the simulator's event taxonomy.
type Kind uint8

// The event taxonomy. Each kind documents how the Event fields are used.
const (
	// KindVPAdvance: a core's Visibility Point frontier moved forward.
	// Seq is the old frontier, Arg the new one.
	KindVPAdvance Kind = iota
	// KindPin: a load was pinned. Seq is the load's ROB sequence number,
	// Line the pinned cache line.
	KindPin
	// KindUnpin: a pinned load retired and released its record. Seq and
	// Line as for KindPin; Arg is 1 when this was the line's last pin.
	KindUnpin
	// KindDeferredInval: an invalidation, forwarded write request, or
	// recall was denied because the line is pinned (the paper's deferral
	// mechanism). Line is the contested line; Arg the requestor id, or -1
	// for a directory recall.
	KindDeferredInval
	// KindSquash: the pipeline squashed entries [Seq, Seq+Arg) of the ROB.
	// Cause records why.
	KindSquash
	// KindMSHRAlloc: the L1 allocated a miss-status register for Line.
	// Arg is 1 for a prefetch, 0 for a demand miss.
	KindMSHRAlloc
	// KindRetire: a core retired Arg instructions this cycle; Seq is the
	// new ROB head.
	KindRetire

	numKinds
)

// String returns the event name used in exported traces.
func (k Kind) String() string {
	switch k {
	case KindVPAdvance:
		return "vp_advance"
	case KindPin:
		return "pin"
	case KindUnpin:
		return "unpin"
	case KindDeferredInval:
		return "deferred_inval"
	case KindSquash:
		return "squash"
	case KindMSHRAlloc:
		return "mshr_alloc"
	case KindRetire:
		return "retire"
	}
	return "unknown"
}

// Cause classifies a squash event.
type Cause uint8

// Squash causes, matching the squash.* counter names.
const (
	CauseNone   Cause = iota
	CauseBranch       // branch misprediction
	CauseAlias        // memory-dependence mis-speculation
	CauseMCV          // memory-consistency violation (invalidation/eviction)
	CauseFault        // precise exception at the head
)

// String returns the cause name used in exported traces.
func (c Cause) String() string {
	switch c {
	case CauseBranch:
		return "branch"
	case CauseAlias:
		return "alias"
	case CauseMCV:
		return "mcv"
	case CauseFault:
		return "fault"
	}
	return "none"
}

// Event is one traced simulator event. The struct is fixed-size and
// pointer-free so a Ring of them is a single allocation.
type Event struct {
	Cycle int64  // simulation cycle the event occurred in
	Seq   int64  // ROB sequence number (kind-dependent)
	Line  uint64 // cache line address (kind-dependent)
	Arg   int64  // kind-dependent argument
	Core  int16  // originating core (or L1) id
	Kind  Kind
	Cause Cause // squash events only
}

// Recorder receives simulator events. Implementations must be cheap: the
// core cycle loop calls Record from its hottest paths.
type Recorder interface {
	// Enabled reports whether events should be constructed and recorded.
	// Call sites cache this once per run, so it must be constant for the
	// recorder's lifetime.
	Enabled() bool
	// Record stores one event.
	Record(Event)
}

type nop struct{}

func (nop) Enabled() bool { return false }
func (nop) Record(Event)  {}

// Nop is the default recorder: tracing disabled, every call a no-op.
var Nop Recorder = nop{}

// Ring is a fixed-capacity event recorder. When full, new events overwrite
// the oldest; Dropped reports how many were lost.
type Ring struct {
	buf   []Event
	total uint64 // events ever recorded
}

// NewRing returns a recorder keeping the most recent capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("obs: NewRing requires capacity > 0")
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Enabled implements Recorder.
func (r *Ring) Enabled() bool { return true }

// Record implements Recorder.
func (r *Ring) Record(ev Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = ev
	}
	r.total++
}

// Len returns the number of buffered events.
func (r *Ring) Len() int { return len(r.buf) }

// Total returns the number of events ever recorded.
func (r *Ring) Total() uint64 { return r.total }

// Dropped returns the number of events lost to buffer wraparound.
func (r *Ring) Dropped() uint64 { return r.total - uint64(len(r.buf)) }

// Events returns the buffered events in recording order. The slice is
// freshly allocated; the ring may keep recording afterwards.
func (r *Ring) Events() []Event {
	out := make([]Event, len(r.buf))
	if r.total <= uint64(cap(r.buf)) {
		copy(out, r.buf)
		return out
	}
	// The buffer wrapped: the oldest event sits at the next write slot.
	start := int(r.total % uint64(cap(r.buf)))
	n := copy(out, r.buf[start:])
	copy(out[n:], r.buf[:start])
	return out
}
