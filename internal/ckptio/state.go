package ckptio

import (
	"encoding/binary"
	"slices"
	"sort"

	"pinnedloads/internal/isa"
	"pinnedloads/internal/ringq"
)

// State is one direction of a component's field walk. A component describes
// its serialized state once, as a method that hands each field to a State by
// pointer in wire order; a State made by SaveTo writes the fields out and one
// made by LoadFrom reads them back, so the two directions cannot disagree on
// what the fields are or in which order they come. What only one direction
// needs — validating what was read, rebuilding derived state — sits in the
// same walk behind Loading. State is two words: pass it by value.
type State struct {
	e *Encoder
	d *Decoder
}

// Walker is implemented by components that carry mutable state through a
// checkpoint. Saving must be deterministic: the same state always produces
// the same bytes (lists are walked in a fixed order).
type Walker interface {
	State(s State)
}

// SaveTo returns the State that appends every field it is handed to e.
func SaveTo(e *Encoder) State { return State{e: e} }

// LoadFrom returns the State that overwrites every field it is handed from d.
func LoadFrom(d *Decoder) State { return State{d: d} }

// Loading reports whether the walk reads fields rather than writes them.
func (s State) Loading() bool { return s.d != nil }

// Err returns the walk's sticky error: the decoder's first malformed read or
// either direction's first Failf. A walk that goes on after an error reads
// zero values; it must check Err before it rebuilds state from what it read.
func (s State) Err() error {
	if s.d != nil {
		return s.d.err
	}
	return s.e.err
}

// Failf sets the sticky error (first failure wins): input that does not fit
// the receiving system, or a component that cannot be checkpointed at all.
func (s State) Failf(format string, args ...any) {
	if s.d != nil {
		s.d.Failf(format, args...)
	} else {
		s.e.failf(format, args...)
	}
}

// field walks one value through the codec's pair of methods for its type.
func field[T any](s State, p *T, put func(*Encoder, T), get func(*Decoder) T) {
	if s.d != nil {
		*p = get(s.d)
	} else {
		put(s.e, *p)
	}
}

// U8 walks one raw byte.
func (s State) U8(p *uint8) { field(s, p, (*Encoder).U8, (*Decoder).U8) }

// Bool walks a bool (one byte; loading rejects anything but 0 and 1).
func (s State) Bool(p *bool) { field(s, p, (*Encoder).Bool, (*Decoder).Bool) }

// U64 walks an unsigned value (uvarint).
func (s State) U64(p *uint64) { field(s, p, (*Encoder).U64, (*Decoder).U64) }

// U32 walks a uvarint that must fit 32 bits.
func (s State) U32(p *uint32) { field(s, p, (*Encoder).U32, (*Decoder).U32) }

// U16 walks a uvarint that must fit 16 bits.
func (s State) U16(p *uint16) { field(s, p, (*Encoder).U16, (*Decoder).U16) }

// I64 walks a signed value (zigzag uvarint).
func (s State) I64(p *int64) { field(s, p, (*Encoder).I64, (*Decoder).I64) }

// I32 walks a zigzag value that must fit 32 bits.
func (s State) I32(p *int32) { field(s, p, (*Encoder).I32, (*Decoder).I32) }

// I8 walks a zigzag value that must fit 8 bits.
func (s State) I8(p *int8) { field(s, p, (*Encoder).I8, (*Decoder).I8) }

// Int walks a zigzag value that must fit an int.
func (s State) Int(p *int) { field(s, p, (*Encoder).Int, (*Decoder).Int) }

// Ticking walks a clock or a counter: a field that moves on every tick, even
// on one its component declares quiet. It saves the bytes I64 or U64 would;
// an attached SiteMap lists its index in Ticking.
func Ticking[T int64 | uint64](s State, p *T) {
	if s.e != nil && s.e.Sites != nil {
		s.e.Sites.Ticking = append(s.e.Sites.Ticking, len(s.e.Sites.Offs))
	}
	switch p := any(p).(type) {
	case *int64:
		s.I64(p)
	case *uint64:
		s.U64(p)
	}
}

// F64 walks a float64 as its raw IEEE-754 bits.
func (s State) F64(p *float64) { field(s, p, (*Encoder).F64, (*Decoder).F64) }

// String walks a length-prefixed string.
func (s State) String(p *string) { field(s, p, (*Encoder).String, (*Decoder).String) }

// Name walks a string that loading expects among sorted, the ascending names
// the receiver already holds: an equal one is shared rather than copied, so
// a restore into a receiver that knows every name allocates none.
func (s State) Name(p *string, sorted []string) {
	if s.d == nil {
		s.e.String(*p)
		return
	}
	// Comparing with string(b) does not allocate; passing it would.
	b := s.d.stringBytes()
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= string(b) })
	if i < len(sorted) && sorted[i] == string(b) {
		*p = sorted[i]
	} else {
		*p = string(b)
	}
}

// Inst walks one micro-operation, including every field (unlike the
// tracefile stream encoding, TransientAddr is preserved: checkpointed
// pending queues may hold adversarial-kernel instructions).
func (s State) Inst(in *isa.Inst) {
	s.U8((*uint8)(&in.Op))
	s.U8(&in.Lat)
	for i := range in.Deps {
		s.I32(&in.Deps[i])
	}
	s.U64(&in.Addr)
	s.Bool(&in.Taken)
	s.Bool(&in.Mispredict)
	s.Bool(&in.Fault)
	s.U64(&in.TransientAddr)
}

// Enum walks a one-byte enumeration; loading rejects a value above max.
func Enum[T ~uint8](s State, p *T, max T, what string) {
	if s.d == nil {
		s.e.U8(uint8(*p))
		return
	}
	v := T(s.d.U8())
	if v > max {
		s.d.Failf("invalid %s %d", what, v)
		v = 0
	}
	*p = v
}

// Count walks a sequence length: saving writes n; loading reads it bounded
// by max and by the bytes left (Decoder.Count). It returns the length to
// walk, zero once the walk has failed.
func (s State) Count(n, max int) int {
	if s.d != nil {
		return s.d.Count(max)
	}
	s.e.U64(uint64(n))
	return n
}

// Counted walks the length of a sequence that saving learns only by walking
// the elements. Loading, it reads the length as Count does; saving, it returns
// a mark instead, and CountAt(mark, n) writes n there once the elements are
// out: the bytes Count(n) and the same elements leave.
func (s State) Counted(max int) (n, mark int) {
	if s.d != nil {
		return s.d.Count(max), 0
	}
	s.e.site()
	return 0, len(s.e.buf)
}

// CountAt writes a saving walk's length n at its Counted mark, in front of
// the elements walked since; loading, it does nothing.
func (s State) CountAt(mark, n int) {
	if s.d == nil {
		var v [binary.MaxVarintLen64]byte
		b := binary.AppendUvarint(v[:0], uint64(n))
		s.e.buf = slices.Insert(s.e.buf, mark, b...)
		if m := s.e.Sites; m != nil { // what came after Counted's entry moves
			for i := len(m.Offs) - 1; i > 0 && m.Offs[i-1] >= mark; i-- {
				m.Offs[i] += len(b)
			}
		}
	}
}

// Geometry walks a length that configuration fixes — n is the receiving
// structure's — so that loading rejects a checkpoint of another shape. It
// reports whether the walk may go on into the structure.
func (s State) Geometry(n int, what string) bool {
	got := uint64(n)
	s.U64(&got)
	return s.sameShape(int64(n), int64(got), what)
}

// GeometryInt is Geometry for the sections that write the length zigzag.
func (s State) GeometryInt(n int, what string) bool {
	got := n
	s.Int(&got)
	return s.sameShape(int64(n), int64(got), what)
}

func (s State) sameShape(have, got int64, what string) bool {
	if s.Err() == nil && got != have {
		s.Failf("%s: configuration has %d, checkpoint has %d", what, have, got)
	}
	return s.Err() == nil
}

// Present walks the presence flag of a part that configuration decides on
// (have says whether the receiving structure has it), rejecting a checkpoint
// that disagrees. It reports whether to walk the part.
func (s State) Present(have bool, what string) bool {
	got := have
	s.Bool(&got)
	if s.Err() == nil && got != have {
		s.Failf("%s: configuration has it %v, checkpoint has it %v", what, have, got)
	}
	return have && s.Err() == nil
}

// Slice walks the length of a variable-length list and, loading, makes the
// list that many zero elements (in the storage it has, when that is enough);
// the caller then walks the elements in place, in both directions alike.
func Slice[T any](s State, p *[]T, max int) {
	n := s.Count(len(*p), max)
	if s.d == nil {
		return
	}
	if n <= cap(*p) {
		*p = (*p)[:n]
		clear(*p)
	} else {
		*p = make([]T, n)
	}
}

// Queue walks a FIFO front first, as its length and then each element through
// walk, in place. Loading empties q and refills it with that many zero
// elements for walk to overwrite, reading at most max.
func Queue[T any](s State, q *ringq.Q[T], max int, walk func(State, *T)) {
	n := s.Count(q.Len(), max)
	if s.d != nil {
		for q.Len() > 0 {
			q.Pop()
		}
		var zero T
		for range n {
			q.Push(zero)
		}
	}
	for i := range n {
		walk(s, q.Ref(i))
	}
}
