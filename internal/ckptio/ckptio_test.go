package ckptio

import (
	"math"
	"strings"
	"testing"

	"pinnedloads/internal/isa"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U8(0xab)
	e.Bool(true)
	e.Bool(false)
	e.U64(math.MaxUint64)
	e.U64(0)
	e.U32(math.MaxUint32)
	e.U16(math.MaxUint16)
	e.I64(math.MinInt64)
	e.I64(math.MaxInt64)
	e.I64(-1)
	e.I32(math.MinInt32)
	e.Int(-42)
	e.F64(-0.5)
	e.F64(math.Inf(1))
	e.String("hello, checkpoint")
	e.String("")
	in := isa.Inst{Op: isa.Load, Lat: 3, Deps: [2]int32{1, -7}, Addr: 0xdeadbeef,
		Taken: true, Mispredict: true, Fault: true, TransientAddr: 0xfeed}
	SaveTo(e).Inst(&in)
	d := NewDecoder(e.Bytes())
	if v := d.U8(); v != 0xab {
		t.Fatalf("U8 = %#x", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round-trip failed")
	}
	if v := d.U64(); v != math.MaxUint64 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.U64(); v != 0 {
		t.Fatalf("U64 zero = %d", v)
	}
	if v := d.U32(); v != math.MaxUint32 {
		t.Fatalf("U32 = %d", v)
	}
	if v := d.U16(); v != math.MaxUint16 {
		t.Fatalf("U16 = %d", v)
	}
	if v := d.I64(); v != math.MinInt64 {
		t.Fatalf("I64 min = %d", v)
	}
	if v := d.I64(); v != math.MaxInt64 {
		t.Fatalf("I64 max = %d", v)
	}
	if v := d.I64(); v != -1 {
		t.Fatalf("I64 -1 = %d", v)
	}
	if v := d.I32(); v != math.MinInt32 {
		t.Fatalf("I32 = %d", v)
	}
	if v := d.Int(); v != -42 {
		t.Fatalf("Int = %d", v)
	}
	if v := d.F64(); v != -0.5 {
		t.Fatalf("F64 = %v", v)
	}
	if v := d.F64(); !math.IsInf(v, 1) {
		t.Fatalf("F64 inf = %v", v)
	}
	if s := d.String(); s != "hello, checkpoint" {
		t.Fatalf("String = %q", s)
	}
	if s := d.String(); s != "" {
		t.Fatalf("empty String = %q", s)
	}
	var out isa.Inst
	LoadFrom(d).Inst(&out)
	if out != in {
		t.Fatalf("Inst round-trip: got %+v, want %+v", out, in)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderErrors(t *testing.T) {
	check := func(name string, f func(d *Decoder)) {
		t.Helper()
		e := NewEncoder()
		e.U64(math.MaxUint64) // overflows every narrower reader
		d := NewDecoder(e.Bytes())
		f(d)
		if d.Err() == nil {
			t.Errorf("%s: no error on overflow", name)
		}
	}
	check("U32", func(d *Decoder) { d.U32() })
	check("U16", func(d *Decoder) { d.U16() })
	check("I32", func(d *Decoder) { d.I32() })

	// Truncation in every reader.
	for name, f := range map[string]func(d *Decoder){
		"U8":     func(d *Decoder) { d.U8() },
		"U64":    func(d *Decoder) { d.U64() },
		"F64":    func(d *Decoder) { d.F64() },
		"String": func(d *Decoder) { _ = d.String() },
	} {
		d := NewDecoder(nil)
		f(d)
		if d.Err() == nil {
			t.Errorf("%s: no error on empty input", name)
		}
	}

	// Bad bool byte.
	d := NewDecoder([]byte{2})
	d.Bool()
	if d.Err() == nil {
		t.Error("Bool accepted byte 2")
	}

	// String length beyond remaining input.
	e := NewEncoder()
	e.U64(100)
	d = NewDecoder(e.Bytes())
	if s := d.String(); s != "" || d.Err() == nil {
		t.Errorf("String accepted length beyond input (got %q)", s)
	}

	// String length beyond the hard cap.
	e = NewEncoder()
	e.U64(maxStringLen + 1)
	d = NewDecoder(append(e.Bytes(), make([]byte, 16)...))
	if s := d.String(); s != "" || d.Err() == nil {
		t.Errorf("String accepted length beyond cap (got %q)", s)
	}
}

func TestCount(t *testing.T) {
	e := NewEncoder()
	e.U64(3)
	e.U8(1)
	e.U8(2)
	e.U8(3)
	d := NewDecoder(e.Bytes())
	if n := d.Count(10); n != 3 {
		t.Fatalf("Count = %d, want 3", n)
	}

	// Count above the caller's max.
	e = NewEncoder()
	e.U64(11)
	d = NewDecoder(append(e.Bytes(), make([]byte, 32)...))
	if d.Count(10); d.Err() == nil {
		t.Error("Count accepted length above max")
	}

	// Count above the remaining bytes (cheap corrupt-length rejection).
	e = NewEncoder()
	e.U64(1000)
	d = NewDecoder(e.Bytes())
	if d.Count(1 << 20); d.Err() == nil {
		t.Error("Count accepted length above remaining input")
	}
}

func TestStickyError(t *testing.T) {
	d := NewDecoder(nil)
	d.U64() // first failure
	d.Failf("should not replace: %d", 7)
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "uvarint") {
		t.Fatalf("first error not preserved: %v", err)
	}
	// Every subsequent read returns zero values without panicking.
	if d.U8() != 0 || d.U64() != 0 || d.I64() != 0 || d.F64() != 0 ||
		d.String() != "" || d.Bool() || d.Count(10) != 0 || d.Remaining() != 0 {
		t.Fatal("reads after error not zero-valued")
	}
	if d.Rest() != nil {
		t.Fatal("Rest after error not nil")
	}
}

func TestFailf(t *testing.T) {
	d := NewDecoder([]byte{1})
	d.Failf("geometry mismatch: %d != %d", 4, 8)
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "ckptio: geometry mismatch: 4 != 8") {
		t.Fatalf("Failf error = %v", err)
	}
}

func TestRestAndDone(t *testing.T) {
	e := NewEncoder()
	e.U64(7)
	buf := append(e.Bytes(), []byte("trailing payload")...)

	d := NewDecoder(buf)
	d.U64()
	if string(d.Rest()) != "trailing payload" {
		t.Fatal("Rest did not return the remainder")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	d = NewDecoder(buf)
	d.U64()
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Done accepted trailing bytes: %v", err)
	}
}

func TestEncoderGrowAndRaw(t *testing.T) {
	e := NewEncoder()
	e.Grow(64)
	room := cap(e.Bytes())
	e.Raw([]byte("PLCK"))
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<35 - 1, 1 << 35, 1<<64 - 1} {
		e.U64(v)
	}
	if string(e.Bytes()[:4]) != "PLCK" {
		t.Fatalf("Raw wrote %q", e.Bytes()[:4])
	}
	if room < 64 || cap(e.Bytes()) != room {
		t.Fatalf("Grow(64) gave capacity %d, and %d bytes then moved the buffer to %d", room, len(e.Bytes()), cap(e.Bytes()))
	}
}
