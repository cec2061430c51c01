package ckptio

import (
	"maps"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"pinnedloads/internal/isa"
	"pinnedloads/internal/ringq"
	"pinnedloads/internal/table"
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
	m     table.Table[uint32] // int64 keys
	set   table.Table[struct{}]
}

// contents is the record with its tables as maps, the form two records are
// compared in: where a table keeps an entry depends on the order the keys
// came in, and a sorted walk leaves its scratch behind.
func (r record) contents() any {
	type flat struct {
		record
		M   map[uint64]uint32
		Set map[uint64]struct{}
	}
	f := flat{record: r, M: maps.Collect(r.m.All()), Set: maps.Collect(r.set.All())}
	f.record.m, f.record.set = table.Table[uint32]{}, table.Table[struct{}]{}
	return f
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
	m := WalkTable[int64](s, &r.m, 1<<10)
	for m.Next() {
		s.I64(&m.Key)
		s.U32(&m.Val)
	}
	set := WalkTable[uint64](s, &r.set, 1<<10)
	for set.Next() {
		s.U64(&set.Key)
	}
}

func sample() record {
	r := record{u8: 0xab, b: true, u64: math.MaxUint64, u32: math.MaxUint32, u16: math.MaxUint16,
		i64: math.MinInt64, i32: math.MinInt32, i8: math.MinInt8, n: -42, f: -0.5, str: "walk",
		inst:  isa.Inst{Op: isa.Load, Lat: 3, Deps: [2]int32{1, -7}, Addr: 0xdeadbeef, Fault: true},
		c:     2,
		fixed: []uint16{7, 8, 9}, hasP: true, part: 99, list: []int32{-1, 0, 1},
		m: table.Growing[uint32](8), set: table.Growing[struct{}](8)}
	// Keys of both signs, inserted in descending order.
	for k := int64(168); k > 0; k-- {
		r.m.Set(uint64(k-20), uint32(k))
	}
	for _, k := range []uint64{9, 3, 1 << 40} {
		r.set.Set(k, struct{}{})
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
		m: table.Growing[uint32](2), set: table.Growing[struct{}](2)}
	got.m.Set(5, 5)
	got.m.Set(1<<64-1000, 1)
	got.set.Set(77, struct{}{})
	d := NewDecoder(data)
	s := LoadFrom(d)
	if !s.Loading() {
		t.Fatal("LoadFrom's State does not say it is loading")
	}
	got.walk(s)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.contents(), want.contents()) {
		t.Fatalf("loaded %+v\nwant   %+v", got.contents(), want.contents())
	}
	if again := saved(&got); string(again) != string(data) {
		t.Fatal("save, load, save is not a fixed point")
	}
	// Saving leaves the record as it was and writes tables in key order, as
	// the count and then each (key, value) pair.
	if !reflect.DeepEqual(want.contents(), sample().contents()) {
		t.Fatal("saving changed the record")
	}
	small := table.New[uint32](3)
	for k, v := range map[int64]uint32{3: 1, -2: 2, 1: 3} {
		small.Set(uint64(k), v)
	}
	e := NewEncoder()
	s = SaveTo(e)
	w := WalkTable[int64](s, &small, 8)
	for w.Next() {
		s.I64(&w.Key)
		s.U32(&w.Val)
	}
	pairs := NewEncoder()
	pairs.U64(3)
	for _, kv := range [][2]int64{{-2, 2}, {1, 3}, {3, 1}} {
		pairs.I64(kv[0])
		pairs.U32(uint32(kv[1]))
	}
	if string(e.Bytes()) != string(pairs.Bytes()) {
		t.Fatalf("a table of three entries saves as % x, want % x", e.Bytes(), pairs.Bytes())
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
		{"map above its bound", mutate(func(r *record) {
			for k := uint64(0); k <= 1<<10; k++ {
				r.m.Set(k, 1)
			}
		}), "sequence length"},
		{"truncated in the map", saved(&base)[:len(saved(&base))-30], "uvarint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := record{fixed: make([]uint16, 3), hasP: true, m: table.Growing[uint32](8), set: table.Growing[struct{}](8)}
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

// TestWalkTableAllocatesNothing: a sorted walk takes its keys from the
// table's own scratch, so saving a core's or an L1's tables costs nothing
// beyond the bytes.
func TestWalkTableAllocatesNothing(t *testing.T) {
	tab := table.New[*int](128)
	for k := uint64(0); k < 128; k++ {
		tab.Set(k*7919%1000, new(int))
	}
	e := NewEncoder()
	e.Grow(4 * 128)
	if got := testing.AllocsPerRun(10, func() {
		e.buf = e.buf[:0]
		s := SaveTo(e)
		w := WalkTable[uint64](s, &tab, 1<<10)
		for w.Next() {
			s.U64(&w.Key)
			s.Int(w.Val)
		}
	}); got != 0 {
		t.Fatalf("walking a table of %d entries allocates %v times", tab.Len(), got)
	}
}

// TestWalkTableRejectsPastItsBound: loading stops at the receiving table's
// bound as it stops at the walk's, before anything is stored.
func TestWalkTableRejectsPastItsBound(t *testing.T) {
	five := table.New[int64](5)
	for k := uint64(1); k <= 5; k++ {
		five.Set(k, -int64(k))
	}
	e := NewEncoder()
	walk := func(s State, tab *table.Table[int64]) {
		w := WalkTable[uint64](s, tab, 1<<10)
		for w.Next() {
			s.U64(&w.Key)
			s.I64(&w.Val)
		}
	}
	walk(SaveTo(e), &five)
	for _, bound := range []int{5, 4} {
		back := table.New[int64](bound)
		back.Set(99, 1) // emptied by the load
		d := NewDecoder(e.Bytes())
		walk(LoadFrom(d), &back)
		err := d.Done()
		switch {
		case bound == 5 && (err != nil || back.Len() != 5 || back.Has(99)):
			t.Fatalf("loading into a table of bound 5: %v, %d entries", err, back.Len())
		case bound == 4 && (err == nil || !strings.Contains(err.Error(), "sequence length 5 exceeds limit 4")):
			t.Fatalf("loading five entries into a table of bound 4: %v", err)
		}
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
