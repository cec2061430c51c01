package cache

import "testing"

func TestMSHRAllocRelease(t *testing.T) {
	m := NewMSHR(2)
	if m.Free() != 2 {
		t.Fatalf("Free = %d", m.Free())
	}
	i := m.Alloc(100, 1)
	if i < 0 || m.Free() != 1 {
		t.Fatalf("Alloc = %d, Free = %d", i, m.Free())
	}
	if m.Lookup(100) != i {
		t.Fatal("entry does not track its line")
	}
	waiters := m.Release(i)
	if len(waiters) != 1 || waiters[0] != 1 {
		t.Fatalf("waiters = %v", waiters)
	}
	if m.Free() != 2 {
		t.Fatal("Release did not free the entry")
	}
}

func TestMSHRFull(t *testing.T) {
	m := NewMSHR(1)
	m.Alloc(1, 1)
	if m.Alloc(2, 2) != -1 {
		t.Fatal("Alloc succeeded on a full file")
	}
}

func TestMSHRLookupCoalesce(t *testing.T) {
	m := NewMSHR(4)
	i := m.Alloc(7, 10)
	if m.Lookup(7) != i || m.Lookup(8) != -1 {
		t.Fatal("Lookup wrong")
	}
	m.AddWaiter(i, 11)
	m.AddWaiter(i, 12)
	w := m.Release(i)
	if len(w) != 3 || w[0] != 10 || w[2] != 12 {
		t.Fatalf("waiters = %v", w)
	}
}

func TestMSHRReleasePanicsOnFree(t *testing.T) {
	m := NewMSHR(1)
	i := m.Alloc(1, 1)
	m.Release(i)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	m.Release(i)
}

func TestMSHRWaiterSliceIsolation(t *testing.T) {
	// A released entry's waiters must be consumed before reallocation;
	// the API documents that reallocation may reuse the backing array.
	m := NewMSHR(1)
	i := m.Alloc(1, 42)
	w := m.Release(i)
	if len(w) != 1 || w[0] != 42 {
		t.Fatalf("waiters = %v", w)
	}
	m.Alloc(2, 99)
	// w may now alias the new entry's storage; the test simply documents
	// that the first value was delivered before reallocation.
}
