// Package ckptio provides the low-level codec shared by every component
// that serializes simulation state into a checkpoint (package checkpoint),
// and by the recorded-trace file format (package tracefile): varint-packed
// integers (unsigned as uvarint, signed as zigzag), length-prefixed strings
// and sequences, and a hardened decoder that turns every malformed input
// into a sticky error instead of a panic or an unbounded allocation.
//
// Components do not call the two directions themselves: each describes its
// state once as a State walk (state.go), which runs over an Encoder to save
// and over a Decoder to load.
//
// Encoding a value is infallible and appends to a growing buffer; decoding
// carries a sticky error so a walk can read a whole structure straight
// through and check Err once at the end. Sequence lengths are read through
// Count, which bounds them by both a caller-supplied maximum and the bytes
// remaining in the input, so a corrupt length can never drive a large
// allocation.
package ckptio

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Encoder appends primitive values to a byte buffer. err is set only by a
// State walk that meets a component it cannot checkpoint; Sites, by tests.
type Encoder struct {
	buf   []byte
	err   error
	Sites *SiteMap
}

// A SiteMap records where each primitive starts and panics with itself just
// before the one at index Stop (never if negative), for a deferred recover to
// read the walk line off the stack: a call would not fit the inlining budget.
// Ticking lists the indices of the primitives written through Ticking.
type SiteMap struct {
	Offs    []int
	Ticking []int
	Stop    int
}

func (e *Encoder) site() {
	if m := e.Sites; m != nil && len(m.Offs) == m.Stop {
		panic(m)
	} else if m != nil {
		m.Offs = append(m.Offs, len(e.buf))
	}
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder for reuse, keeping its buffer.
func (e *Encoder) Reset() { e.buf, e.err = e.buf[:0], nil }

// Err returns the error of a walk that could not save its component.
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) failf(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("ckptio: "+format, args...)
	}
}

// encoders recycles the buffers Encode writes through.
var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// Encode runs write over a recycled encoder and returns a copy of the bytes
// it left there, or write's error. What a caller keeps — a checkpoint in a
// store holds its blob for as long as the store lives — is then as big as its
// bytes, whatever the buffer had to grow to, and nobody has to estimate a size
// in advance: the grown buffer serves the next call.
func Encode(write func(*Encoder) error) ([]byte, error) {
	e := encoders.Get().(*Encoder)
	defer encoders.Put(e)
	e.Reset()
	if err := write(e); err != nil {
		return nil, err
	}
	return slices.Clone(e.buf), nil
}

// Grow makes room for n more bytes, so a caller that can bound what it is
// about to encode pays for one buffer instead of a series of doublings.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Raw appends bytes as they are, with no length prefix.
func (e *Encoder) Raw(p []byte) { e.buf = append(e.buf, p...) }

// U8 writes one raw byte.
func (e *Encoder) U8(v uint8) { e.site(); e.buf = append(e.buf, v) }

// Bool writes a bool as one byte.
func (e *Encoder) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	e.U8(b)
}

// U64 writes an unsigned value as a uvarint.
func (e *Encoder) U64(v uint64) { e.site(); e.buf = binary.AppendUvarint(e.buf, v) }

// U32 writes a 32-bit unsigned value as a uvarint.
func (e *Encoder) U32(v uint32) { e.U64(uint64(v)) }

// U16 writes a 16-bit unsigned value as a uvarint.
func (e *Encoder) U16(v uint16) { e.U64(uint64(v)) }

// I64 writes a signed value zigzag-encoded as a uvarint.
func (e *Encoder) I64(v int64) { e.U64(uint64((v << 1) ^ (v >> 63))) }

// I32 writes a 32-bit signed value zigzag-encoded.
func (e *Encoder) I32(v int32) { e.I64(int64(v)) }

// I8 writes an 8-bit signed value zigzag-encoded.
func (e *Encoder) I8(v int8) { e.I64(int64(v)) }

// Int writes an int zigzag-encoded.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 writes a float64 as its raw IEEE-754 bits (fixed 8 bytes, so exact
// round-trips are guaranteed).
func (e *Encoder) F64(v float64) {
	e.site()
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder reads values encoded by Encoder. The first malformed read sets a
// sticky error; every subsequent read returns zero values, so callers can
// decode a whole structure and check Err once.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Failf sets the sticky error (first failure wins). State-restore code uses
// it to reject structurally valid input that does not match the receiving
// system (for example a mismatched ROB geometry).
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ckptio: "+format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.data) - d.off
}

// Rest consumes and returns every unread byte.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	r := d.data[d.off:]
	d.off = len(d.data)
	return r
}

// Done reports the sticky error, or an error if unread bytes remain.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("ckptio: %d trailing bytes after decode", len(d.data)-d.off)
	}
	return nil
}

// U8 reads one raw byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.Failf("truncated input at byte %d", d.off)
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

// Bool reads a bool; any byte other than 0 or 1 is malformed.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Failf("invalid bool byte %#x", v)
		return false
	}
	return v == 1
}

// U64 reads a uvarint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.Failf("malformed uvarint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// U32 reads a uvarint that must fit 32 bits.
func (d *Decoder) U32() uint32 {
	v := d.U64()
	if v > math.MaxUint32 {
		d.Failf("value %d overflows uint32", v)
		return 0
	}
	return uint32(v)
}

// U16 reads a uvarint that must fit 16 bits.
func (d *Decoder) U16() uint16 {
	v := d.U64()
	if v > math.MaxUint16 {
		d.Failf("value %d overflows uint16", v)
		return 0
	}
	return uint16(v)
}

// I64 reads a zigzag-encoded signed value.
func (d *Decoder) I64() int64 {
	v := d.U64()
	return int64(v>>1) ^ -int64(v&1)
}

// I32 reads a zigzag-encoded value that must fit 32 bits.
func (d *Decoder) I32() int32 {
	v := d.I64()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.Failf("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// I8 reads a zigzag-encoded value that must fit 8 bits.
func (d *Decoder) I8() int8 {
	v := d.I64()
	if v < math.MinInt8 || v > math.MaxInt8 {
		d.Failf("value %d overflows int8", v)
		return 0
	}
	return int8(v)
}

// Int reads a zigzag-encoded int.
func (d *Decoder) Int() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.Failf("value %d overflows int", v)
		return 0
	}
	return int(v)
}

// F64 reads a fixed 8-byte float64.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.Failf("truncated float64 at byte %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

// maxStringLen bounds decoded string lengths; a recorded trace's name is
// held to it too.
const maxStringLen = 1 << 16

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.stringBytes()) }

// stringBytes reads a length-prefixed string as a view of the input.
func (d *Decoder) stringBytes() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > maxStringLen || n > uint64(d.Remaining()) {
		d.Failf("string length %d exceeds input", n)
		return nil
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Count reads a sequence length and validates it against max and the bytes
// remaining (every element costs at least one byte), so a corrupt count can
// never drive a large allocation.
func (d *Decoder) Count(max int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(max) || n > uint64(d.Remaining()) {
		d.Failf("sequence length %d exceeds limit %d or input size", n, max)
		return 0
	}
	return int(n)
}
