package ckptio

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"pinnedloads/internal/isa"
	"pinnedloads/internal/ringq"
)

type color uint8

// record has one field of every kind a walk can carry.
type record struct {
	u8    uint8
	b     bool
	u64   uint64
	u32   uint32
	u16   uint16
	i64   int64
	i32   int32
	i8    int8
	n     int
	f     float64
	str   string
	inst  isa.Inst
	c     color
	fixed []uint16
	hasP  bool
	part  uint64
	list  []int32
	m     []pair // a map as its (key, value) pairs
	set   []uint64
}

type pair struct {
	k int64
	v uint32
}

func (r *record) walk(s State) {
	s.U8(&r.u8)
	s.Bool(&r.b)
	Ticking(s, &r.u64)
	s.U32(&r.u32)
	s.U16(&r.u16)
	Ticking(s, &r.i64)
	s.I32(&r.i32)
	s.I8(&r.i8)
	s.Int(&r.n)
	s.F64(&r.f)
	s.String(&r.str)
	s.Inst(&r.inst)
	Enum(s, &r.c, 2, "color")
	if s.Geometry(len(r.fixed), "fixed") && s.GeometryInt(len(r.fixed), "fixed again") {
		for i := range r.fixed {
			s.U16(&r.fixed[i])
		}
	}
	if s.Present(r.hasP, "part") {
		s.U64(&r.part)
	}
	Slice(s, &r.list, 1<<10)
	for i := range r.list {
		s.I32(&r.list[i])
	}
	Slice(s, &r.m, 1<<10)
	for i := range r.m {
		s.I64(&r.m[i].k)
		s.U32(&r.m[i].v)
	}
	Slice(s, &r.set, 1<<10)
	for i := range r.set {
		s.U64(&r.set[i])
	}
}

func sample() record {
	r := record{u8: 0xab, b: true, u64: math.MaxUint64, u32: math.MaxUint32, u16: math.MaxUint16,
		i64: math.MinInt64, i32: math.MinInt32, i8: math.MinInt8, n: -42, f: -0.5, str: "walk",
		inst:  isa.Inst{Op: isa.Load, Lat: 3, Deps: [2]int32{1, -7}, Addr: 0xdeadbeef, Fault: true},
		c:     2,
		fixed: []uint16{7, 8, 9}, hasP: true, part: 99, list: []int32{-1, 0, 1},
		set: []uint64{9, 3, 1 << 40}}
	// Keys of both signs, in descending order.
	for k := int64(168); k > 0; k-- {
		r.m = append(r.m, pair{k - 20, uint32(k)})
	}
	return r
}

func saved(r *record) []byte {
	e := NewEncoder()
	r.walk(SaveTo(e))
	return e.Bytes()
}

func TestStateRoundTrip(t *testing.T) {
	want := sample()
	data := saved(&want)
	// The target starts with other contents in everything of variable size.
	got := record{fixed: make([]uint16, 3), hasP: true, list: make([]int32, 9, 16),
		m: []pair{{5, 5}, {-1000, 1}}, set: []uint64{77}}
	d := NewDecoder(data)
	s := LoadFrom(d)
	if !s.Loading() {
		t.Fatal("LoadFrom's State does not say it is loading")
	}
	got.walk(s)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v\nwant   %+v", got, want)
	}
	if again := saved(&got); string(again) != string(data) {
		t.Fatal("save, load, save is not a fixed point")
	}
	if !reflect.DeepEqual(want, sample()) {
		t.Fatal("saving changed the record")
	}
}

func TestStateRejects(t *testing.T) {
	base := sample()
	mutate := func(f func(r *record)) []byte {
		r := sample()
		f(&r)
		return saved(&r)
	}
	i8At := func(v int64) []byte { // the bytes of a record whose i8 field holds v
		e := NewEncoder()
		e.U8(0)
		e.Bool(false)
		e.U64(0)
		e.U32(0)
		e.U16(0)
		e.I64(0)
		e.I32(0)
		e.I64(v)
		return e.Bytes()
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"i8 above range", i8At(128), "overflows int8"},
		{"i8 below range", i8At(-129), "overflows int8"},
		{"enum above max", mutate(func(r *record) { r.c = 3 }), "invalid color 3"},
		{"other geometry", mutate(func(r *record) { r.fixed = r.fixed[:2] }), "fixed: configuration has 3, checkpoint has 2"},
		{"part missing", mutate(func(r *record) { r.hasP = false }), "part: configuration has it true, checkpoint has it false"},
		{"list above its bound", mutate(func(r *record) { r.list = make([]int32, 1<<10+1) }), "sequence length"},
		{"map above its bound", mutate(func(r *record) { r.m = make([]pair, 1<<10+1) }), "sequence length"},
		{"truncated in the map", saved(&base)[:len(saved(&base))-30], "uvarint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := record{fixed: make([]uint16, 3), hasP: true}
			d := NewDecoder(tc.data)
			s := LoadFrom(d)
			got.walk(s)
			err := s.Err()
			if err == nil || !strings.HasPrefix(err.Error(), "ckptio: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want a ckptio error mentioning %q", err, tc.want)
			}
			if s.Count(0, 8) != 0 || s.Present(true, "x") || s.Geometry(3, "x") {
				t.Fatal("a failed walk goes on into a structure")
			}
		})
	}
}

func TestStateSaveFailure(t *testing.T) {
	e := NewEncoder()
	s := SaveTo(e)
	if s.Loading() || s.Err() != nil {
		t.Fatal("SaveTo's State does not say it is saving")
	}
	s.Failf("part %d is not checkpointable", 7)
	s.Failf("second")
	if err := e.Err(); err == nil || err != s.Err() || err.Error() != "ckptio: part 7 is not checkpointable" {
		t.Fatalf("Err = %v", err)
	}
	// Out-of-range values are a loading matter: saving writes what it is given.
	c := color(9)
	Enum(SaveTo(NewEncoder()), &c, 2, "color")
	if c != 9 {
		t.Fatal("saving changed an enum")
	}
}

// TestCountedAndQueue: a length patched in front of elements already walked,
// and a ring queue walked in place, leave the bytes Count and a walk of the
// elements leave, and load back.
func TestCountedAndQueue(t *testing.T) {
	want := NewEncoder()
	want.U8(7)
	want.U64(300)
	for v := uint64(0); v < 300; v++ {
		want.U64(v * v)
	}

	e := NewEncoder()
	e.U8(7)
	s := SaveTo(e)
	_, mark := s.Counted(1 << 10)
	for v := uint64(0); v < 300; v++ {
		sq := v * v
		s.U64(&sq)
	}
	s.CountAt(mark, 300)
	if string(e.Bytes()) != string(want.Bytes()) {
		t.Fatal("Counted and CountAt do not leave Count's bytes")
	}

	var q ringq.Q[uint64]
	for v := uint64(0); v < 5; v++ {
		q.Push(v)
	}
	for range 5 {
		q.Pop() // the queue wraps
	}
	for v := uint64(0); v < 300; v++ {
		q.Push(v * v)
	}
	e = NewEncoder()
	e.U8(7)
	Queue(SaveTo(e), &q, 1<<10, State.U64)
	if string(e.Bytes()) != string(want.Bytes()) {
		t.Fatal("a queue walk does not leave Count's bytes and its elements, front first")
	}

	load := func(max int) (*ringq.Q[uint64], error) {
		var back ringq.Q[uint64]
		back.Push(99) // emptied by the load
		d := NewDecoder(want.Bytes())
		d.U8()
		Queue(LoadFrom(d), &back, max, State.U64)
		return &back, d.Done()
	}
	back, err := load(1 << 10)
	if err != nil || back.Len() != 300 {
		t.Fatalf("loading: %v, %d elements", err, back.Len())
	}
	for i := range 300 {
		if back.At(i) != q.At(i) {
			t.Fatalf("element %d loaded as %d, want %d", i, back.At(i), q.At(i))
		}
	}
	if _, err := load(299); err == nil || !strings.Contains(err.Error(), "sequence length") {
		t.Fatalf("loading 300 elements bounded by 299: %v", err)
	}
	d := NewDecoder(want.Bytes())
	d.U8()
	if n, _ := LoadFrom(d).Counted(1 << 10); n != 300 {
		t.Fatalf("loading Counted reads %d, want 300", n)
	}
}

// TestNameSharesKnownStrings: loading a name the receiver holds hands back the
// receiver's string without allocating, whatever its length; a name it does
// not hold is read as its own string, and the bytes are String's.
func TestNameSharesKnownStrings(t *testing.T) {
	known := []string{"a", "pipeline.stall_retire_expose_after_a_long_name", "retired", "z"}
	names := []string{"retired", "pipeline.stall_retire_expose_after_a_long_name", "unknown"}
	e := NewEncoder()
	for _, n := range names {
		SaveTo(e).Name(&n, known)
	}
	for _, n := range names {
		e.String(n)
	}
	if half := len(e.Bytes()) / 2; string(e.Bytes()[:half]) != string(e.Bytes()[half:]) {
		t.Fatal("Name saves other bytes than String")
	}
	var got [3]string
	s := LoadFrom(NewDecoder(e.Bytes()))
	for i := range got {
		s.Name(&got[i], known)
	}
	if got != [3]string{names[0], names[1], names[2]} {
		t.Fatalf("loaded %q, want %q", got, names)
	}
	if unsafe.StringData(got[1]) != unsafe.StringData(known[1]) {
		t.Error("a known name was copied, not shared")
	}
	e.Reset()
	for _, n := range names[:2] {
		SaveTo(e).Name(&n, known)
	}
	if a := testing.AllocsPerRun(10, func() {
		s := LoadFrom(NewDecoder(e.Bytes()))
		s.Name(&got[0], known)
		s.Name(&got[1], known)
	}); a != 0 {
		t.Fatalf("loading known names allocates %v times", a)
	}
}
