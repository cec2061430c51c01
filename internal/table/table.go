// Package table is the keyed bookkeeping of the cycle loop: an open-addressed
// hash table from uint64 keys to values, with linear probing and
// backward-shift deletion. A delete moves the entries behind the hole back
// toward their home slots instead of leaving a tombstone, so a table probes
// the same after any number of deletes as one built from its live entries.
//
// The hardware keeps this state in small indexed structures: the memory
// tokens, pinned lines and extended LQ IDs of a core are each at most one per
// load-queue entry (paper Sections 5.2 and 6). A table is sized once from
// such a bound and Set refuses an entry past it, so the owner can treat an
// overflow as the broken invariant it is. A table made by Growing has no
// bound and doubles instead, which a machine does a few times while it warms
// up and never in steady state.
package table

import (
	"iter"
	"math"
	"math/bits"
	"slices"
)

// Table maps uint64 keys to Vs. The zero value holds nothing and accepts
// nothing; New and Growing make one that does.
type Table[V any] struct {
	slots []slot[V]
	full  []uint64 // bit i is set while slots[i] holds an entry
	n     int
	max   int  // the most entries Set lets the table hold
	grow  bool // past max, Set doubles the table instead of refusing
	shift uint // 64 - log2(len(slots)): home takes the hash's top bits
	// keys is Sorted's scratch, room for max keys: a sorted walk allocates
	// nothing.
	keys []uint64
}

type slot[V any] struct {
	key uint64
	val V
}

// New returns a table that holds at most bound entries.
func New[V any](bound int) Table[V] {
	t := Table[V]{}
	t.size(bound)
	return t
}

// Growing returns a table with room for bound entries that doubles whenever
// Set needs more.
func Growing[V any](bound int) Table[V] {
	t := New[V](bound)
	t.grow = true
	return t
}

// size gives t room for bound entries, at most half its slots full; a bound
// of zero takes no storage.
func (t *Table[V]) size(bound int) {
	if bound == 0 {
		t.slots, t.full, t.keys, t.max, t.n = nil, nil, nil, 0, 0
		return
	}
	b := 3
	if bound > 4 {
		b = bits.Len(uint(2*bound - 1))
	}
	t.slots = make([]slot[V], 1<<b)
	t.full = make([]uint64, (len(t.slots)+63)/64)
	t.keys = make([]uint64, 0, bound)
	t.max, t.shift, t.n = bound, uint(64-b), 0
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// Limit returns the most entries Set accepts: math.MaxInt for a table that
// grows.
func (t *Table[V]) Limit() int {
	if t.grow {
		return math.MaxInt
	}
	return t.max
}

// home is k's first probe: the top bits of a Fibonacci hash, which spreads
// the runs of consecutive keys tokens and tags come in.
func (t *Table[V]) home(k uint64) int { return int((k * 0x9e3779b97f4a7c15) >> t.shift) }

func (t *Table[V]) used(i int) bool { return t.full[i>>6]&(1<<(i&63)) != 0 }

// find returns k's slot and true, or the empty slot that ends k's probe and
// false. The table must have storage.
func (t *Table[V]) find(k uint64) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		if !t.used(i) {
			return i, false
		}
		if t.slots[i].key == k {
			return i, true
		}
	}
}

// Get returns k's value and whether k is present.
func (t *Table[V]) Get(k uint64) (V, bool) {
	if t.n > 0 {
		if i, ok := t.find(k); ok {
			return t.slots[i].val, true
		}
	}
	var zero V
	return zero, false
}

// Has reports whether k is present.
func (t *Table[V]) Has(k uint64) bool {
	_, ok := t.Get(k)
	return ok
}

// Set stores v under k. It reports false, and changes nothing, when k is new
// and the table already holds its bound.
func (t *Table[V]) Set(k uint64, v V) bool {
	if len(t.slots) == 0 {
		if !t.grow {
			return false
		}
		t.resize()
	}
	i, ok := t.find(k)
	if ok {
		t.slots[i].val = v
		return true
	}
	if t.n == t.max {
		if !t.grow {
			return false
		}
		t.resize()
		i, _ = t.find(k)
	}
	t.slots[i] = slot[V]{k, v}
	t.full[i>>6] |= 1 << (i & 63)
	t.n++
	return true
}

// resize doubles the table's bound and reinserts every entry.
func (t *Table[V]) resize() {
	old, full := t.slots, t.full
	t.size(max(2*t.max, 1))
	for i := range old {
		if full[i>>6]&(1<<(i&63)) != 0 {
			j, _ := t.find(old[i].key)
			t.slots[j] = old[i]
			t.full[j>>6] |= 1 << (j & 63)
			t.n++
		}
	}
}

// Del removes k and returns the value it held, and whether it was present.
func (t *Table[V]) Del(k uint64) (V, bool) {
	var zero V
	if t.n == 0 {
		return zero, false
	}
	i, ok := t.find(k)
	if !ok {
		return zero, false
	}
	v := t.slots[i].val
	// Backward shift: an entry past the hole moves into it unless its home
	// lies cyclically in (hole, entry], where the move would put it ahead of
	// its home and out of its own probe.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.used(j); j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.full[i>>6] &^= 1 << (i & 63)
	t.n--
	return v, true
}

// Clear removes every entry, keeping the table's size.
func (t *Table[V]) Clear() {
	clear(t.slots)
	clear(t.full)
	t.n = 0
}

// Sorted returns the keys in ascending order, as uint64s or, with signed, as
// the int64s they are the bits of. The slice is the table's own scratch: it
// is valid until the next Sorted, and reading it allocates nothing.
func (t *Table[V]) Sorted(signed bool) []uint64 {
	// Flipping the sign bit maps int64 order onto uint64 order and back.
	var flip uint64
	if signed {
		flip = 1 << 63
	}
	keys := t.keys[:0]
	for i := range t.slots {
		if t.used(i) {
			keys = append(keys, t.slots[i].key^flip)
		}
	}
	slices.Sort(keys)
	for i := range keys {
		keys[i] ^= flip
	}
	t.keys = keys
	return keys
}

// All yields every entry, in no particular order.
func (t *Table[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		for i := range t.slots {
			if t.used(i) && !yield(t.slots[i].key, t.slots[i].val) {
				return
			}
		}
	}
}
