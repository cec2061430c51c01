package simcache

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"pinnedloads/internal/simrun"
)

func out(cpi float64) *simrun.Output {
	return &simrun.Output{CPI: cpi, Cycles: 100, Insts: 50,
		Counters: map[string]uint64{"retired": 50, "l1.misses": 3},
		HW:       []simrun.HW{{CST: true, L1FP: 0.01}}}
}

func TestMemoryLRUEviction(t *testing.T) {
	m := NewMemory(2)
	m.Put("a", out(1))
	m.Put("b", out(2))
	if _, ok, _ := m.Get("a"); !ok { // promotes a over b
		t.Fatal("a missing")
	}
	m.Put("c", out(3)) // evicts b (least recently used)
	if _, ok, _ := m.Get("b"); ok {
		t.Fatal("b survived past the bound")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok, _ := m.Get(k); !ok {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestMemoryUnbounded(t *testing.T) {
	m := NewMemory(0)
	for i := 0; i < 100; i++ {
		m.Put(string(rune('a'+i)), out(float64(i)))
	}
	if m.Len() != 100 {
		t.Fatalf("len = %d, want 100", m.Len())
	}
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := out(1.25)
	key := "00ab"
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.Get(key)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if got.CPI != want.CPI || got.Counters["retired"] != 50 || !got.HW[0].CST {
		t.Fatalf("round trip mangled the entry: %+v", got)
	}
	if _, ok, err := d.Get("beef"); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
}

// TestDiskTruncationDetected truncates a written entry at several points
// and checks every cut is detected as a miss (and the corpse removed), so
// a crash mid-write can never serve a garbage result.
func TestDiskTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "cafe"
	if err := d.Put(key, out(2.5)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(full) / 2, len(full) - 1} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := d.Get(key); ok || err != nil {
			t.Fatalf("cut at %d: ok=%v err=%v, want miss", cut, ok, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("cut at %d: corrupt entry not removed", cut)
		}
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Flipping payload bytes (not just truncating) must also miss.
	mangled := append([]byte(nil), full...)
	mangled[len(mangled)/2] ^= 0xff
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Get(key); ok {
		t.Fatal("bit flip served as a hit")
	}
}

func TestTieredPromotion(t *testing.T) {
	fast := NewMemory(8)
	slow, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewTiered(fast, slow)
	if err := c.Put("ab", out(3)); err != nil {
		t.Fatal(err)
	}
	// Both tiers hold it.
	if _, ok, _ := fast.Get("ab"); !ok {
		t.Fatal("fast tier missing after put")
	}
	if _, ok, _ := slow.Get("ab"); !ok {
		t.Fatal("slow tier missing after put")
	}
	// Drop the fast tier; a tiered get must hit via disk and promote.
	fast2 := NewMemory(8)
	c2 := NewTiered(fast2, slow)
	if _, ok, err := c2.Get("ab"); !ok || err != nil {
		t.Fatalf("tiered get: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := fast2.Get("ab"); !ok {
		t.Fatal("slow hit was not promoted")
	}
}

// TestMemoSingleflight hammers one key from many goroutines: exactly one
// execution, every caller — and every later one — shares the same pointer.
func TestMemoSingleflight(t *testing.T) {
	m := NewMemo()
	var execs atomic.Int64
	const n = 32
	outs := make([]*simrun.Output, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, err := m.Do("k", func() (*simrun.Output, error) {
				execs.Add(1)
				return out(1), nil
			})
			if err != nil {
				t.Error(err)
			}
			outs[i] = o
		}(i)
	}
	wg.Wait()
	if execs.Load() != 1 {
		t.Fatalf("executions = %d, want 1", execs.Load())
	}
	for i := 1; i < n; i++ {
		if outs[i] != outs[0] {
			t.Fatal("callers got different result pointers")
		}
	}
	// The finished flight keeps its result: a later caller shares it too.
	if o, err := m.Do("k", func() (*simrun.Output, error) { execs.Add(1); return out(2), nil }); o != outs[0] || err != nil {
		t.Fatalf("a later call got %p, %v; want the first result %p", o, err, outs[0])
	}
	if execs.Load() != 1 {
		t.Fatalf("executions after a later call = %d, want 1", execs.Load())
	}
}

// TestMemoErrorMemoized checks a failed computation is remembered: the
// second request returns the same error without re-executing.
func TestMemoErrorMemoized(t *testing.T) {
	m := NewMemo()
	boom := errors.New("boom")
	var execs int
	fn := func() (*simrun.Output, error) { execs++; return nil, boom }
	if _, err := m.Do("k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Do("k", fn); !errors.Is(err, boom) {
		t.Fatalf("second err = %v", err)
	}
	if execs != 1 {
		t.Fatalf("executions = %d, want 1", execs)
	}
}

// TestDiskPutLeavesOnlyTheEntry checks a put's temp file is gone either
// way: a successful put renames it into the entry, and a failed one (here
// the rename, onto a directory) removes it.
func TestDiskPutLeavesOnlyTheEntry(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("00ab", out(1.5)); err != nil {
		t.Fatal(err)
	}
	names := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		return got
	}
	if got := names(); len(got) != 1 || got[0] != "00ab.json" {
		t.Fatalf("after a successful put the directory holds %q, want only 00ab.json", got)
	}

	blocker := filepath.Join(dir, "beef.json")
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("beef", out(2)); err == nil {
		t.Fatal("put onto a directory succeeded")
	}
	if got := names(); len(got) != 2 || got[0] != "00ab.json" || got[1] != "beef.json" {
		t.Fatalf("after a failed put the directory holds %q, want no put-*.tmp", got)
	}
}
