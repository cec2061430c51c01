package table

import (
	"maps"
	"math/bits"
	"slices"
	"testing"
)

// checkLayout holds a table to what lookups rely on: the count matches the
// occupied slots, and every entry sits in the unbroken run of occupied slots
// that starts at its home, so a probe from the home reaches it before it
// meets an empty slot (no tombstone left behind, no entry left behind a hole).
func checkLayout[V any](t *testing.T, tab *Table[V]) {
	t.Helper()
	full := 0
	for _, w := range tab.full {
		full += bits.OnesCount64(w)
	}
	if full != tab.n {
		t.Fatalf("%d slots occupied, the table counts %d", full, tab.n)
	}
	mask := len(tab.slots) - 1
	for i := range tab.slots {
		if !tab.used(i) {
			continue
		}
		for j := tab.home(tab.slots[i].key); j != i; j = (j + 1) & mask {
			if !tab.used(j) {
				t.Fatalf("key %#x in slot %d: slot %d between its home %d and it is empty",
					tab.slots[i].key, i, j, tab.home(tab.slots[i].key))
			}
		}
	}
}

// keysAround returns keys whose home in a table of 16 slots is one of the
// last three slots or the first three, so that the probes of the fuzz target
// run over the end of the slot array and back to its start. Half of them
// have the top bit set: negative as int64s, where the signed order differs.
func keysAround() []uint64 {
	probe := New[struct{}](8)
	if len(probe.slots) != 16 {
		panic("a table of bound 8 no longer has 16 slots")
	}
	var keys []uint64
	per := map[int]int{}
	for c := uint64(1); len(keys) < 24; c++ {
		k := c * 0x10001
		if c%2 == 0 {
			k |= 1 << 63
		}
		h := probe.home(k)
		if (h >= 13 || h <= 2) && per[h] < 4 {
			per[h]++
			keys = append(keys, k)
		}
	}
	return keys
}

// model is a table under test beside the map it must agree with.
type model struct {
	tab Table[uint64]
	ref map[uint64]uint64
}

func (m *model) set(t *testing.T, k, v uint64) {
	t.Helper()
	_, had := m.ref[k]
	room := had || len(m.ref) < m.tab.Limit()
	if got := m.tab.Set(k, v); got != room {
		t.Fatalf("Set(%#x) = %v with %d of %d entries held", k, got, len(m.ref), m.tab.Limit())
	}
	if room {
		m.ref[k] = v
	}
}

func (m *model) check(t *testing.T, k uint64, signed bool) {
	t.Helper()
	checkLayout(t, &m.tab)
	want, wok := m.ref[k]
	if got, ok := m.tab.Get(k); got != want || ok != wok || m.tab.Has(k) != wok {
		t.Fatalf("Get(%#x) = %d, %v; the map holds %d, %v", k, got, ok, want, wok)
	}
	if m.tab.Len() != len(m.ref) {
		t.Fatalf("Len() = %d, the map holds %d", m.tab.Len(), len(m.ref))
	}
	if got := maps.Collect(m.tab.All()); !maps.Equal(got, m.ref) {
		t.Fatalf("All() yields %v, the map holds %v", got, m.ref)
	}
	want2 := slices.Collect(maps.Keys(m.ref))
	slices.SortFunc(want2, func(a, b uint64) int {
		if signed {
			return cmpInt(int64(a), int64(b))
		}
		return cmpInt(a, b)
	})
	if got := m.tab.Sorted(signed); !slices.Equal(got, want2) {
		t.Fatalf("Sorted(%v) = %x, want %x", signed, got, want2)
	}
}

func cmpInt[T int64 | uint64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// FuzzTableMatchesMap decodes its input two bytes at a time into Set, Get,
// Del and sorted walks over keys that crowd the end of a 16-slot table, and
// runs each on a table of bound 8 (which fills and must refuse), on a table
// that grows from room for 2, and on a Go map; after every operation both
// tables must answer every query as the map does and keep every entry
// reachable from its home.
func FuzzTableMatchesMap(f *testing.F) {
	keys := keysAround()
	// Fill past the bound, delete from the middle of the wrapped cluster,
	// walk; then other keys, values rewritten, checked in signed order.
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 3, 0, 2, 1, 2, 3, 3, 1, 0, 8, 1, 4, 3, 0})
	f.Add([]byte{0, 23, 4, 22, 0, 21, 4, 20, 0, 23, 6, 22, 5, 21, 0, 19, 2, 20, 2, 23, 7, 1, 2, 21, 6, 19, 1, 19, 7, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		bounded := model{New[uint64](8), map[uint64]uint64{}}
		growing := model{Growing[uint64](2), map[uint64]uint64{}}
		for i := 0; i+1 < len(ops); i += 2 {
			k := keys[int(ops[i+1])%len(keys)]
			for _, m := range []*model{&bounded, &growing} {
				switch ops[i] % 4 {
				case 0:
					m.set(t, k, uint64(i))
				case 2:
					want, wok := m.ref[k]
					if got, ok := m.tab.Del(k); got != want || ok != wok {
						t.Fatalf("Del(%#x) = %d, %v; the map held %d, %v", k, got, ok, want, wok)
					}
					delete(m.ref, k)
				}
				m.check(t, k, ops[i]%8 >= 4)
			}
		}
	})
}

// TestBounds: a bounded table refuses a new key once full but still rewrites
// the ones it holds; a bound of zero takes no storage and refuses everything;
// a growing table doubles, and Clear keeps the size.
func TestBounds(t *testing.T) {
	full := New[int](5)
	for k := uint64(0); k < 5; k++ {
		if !full.Set(k<<40, int(k)) {
			t.Fatalf("Set %d of 5 refused", k+1)
		}
	}
	if full.Set(99, 1) || !full.Set(2<<40, 7) || full.Len() != 5 || full.Limit() != 5 {
		t.Fatalf("a full table of bound 5: %d entries", full.Len())
	}
	if v, _ := full.Get(2 << 40); v != 7 {
		t.Fatalf("a rewritten key holds %d", v)
	}
	none := New[int](0)
	if none.slots != nil || none.Set(1, 1) || none.Has(1) || none.Len() != 0 || len(none.Sorted(false)) != 0 {
		t.Fatal("a table of bound zero holds something")
	}
	if _, ok := none.Del(1); ok {
		t.Fatal("a table of bound zero deleted something")
	}
	var zero Table[int]
	if zero.Set(1, 1) || zero.Has(1) {
		t.Fatal("the zero Table holds something")
	}
	grow := Growing[int](0)
	for k := uint64(0); k < 100; k++ {
		if !grow.Set(k*k, int(k)) {
			t.Fatalf("a growing table refused entry %d", k+1)
		}
	}
	if grow.Len() != 100 || grow.max < 100 || len(grow.slots) < 2*grow.max {
		t.Fatalf("a growing table after 100 keys: %d entries, bound %d, %d slots", grow.Len(), grow.max, len(grow.slots))
	}
	slots := len(grow.slots)
	grow.Clear()
	if grow.Len() != 0 || grow.Has(4) || len(grow.slots) != slots {
		t.Fatalf("Clear left %d entries and %d of %d slots", grow.Len(), len(grow.slots), slots)
	}
}

// TestSteadyStateAllocatesNothing: once sized, setting, getting, deleting
// and sorting allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	tab := New[int64](62)
	if got := testing.AllocsPerRun(20, func() {
		for k := uint64(1); k <= 62; k++ {
			tab.Set(k, int64(k))
		}
		tab.Sorted(true)
		for k := uint64(1); k <= 62; k++ {
			tab.Get(k)
			tab.Del(k)
		}
	}); got != 0 {
		t.Fatalf("a round of 62 entries allocates %v times", got)
	}
}
