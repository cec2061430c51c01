package checkpoint

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
)

func testSystem(t *testing.T) *core.System {
	t.Helper()
	w := trace.ByName("mcf_r")
	if w == nil {
		t.Fatal("mcf profile missing")
	}
	sys, err := core.New(arch.PaperConfig(1), defense.Policy{Scheme: defense.DOM, Variant: defense.LP}, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := Meta{Identity: "job-abc123", Cycle: 424242, Fingerprint: 0xdeadbeefcafe}
	payload := []byte("not a real payload, but the format does not care")
	blob := Encode(m, payload)

	got, p, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("meta round-trip: got %+v, want %+v", got, m)
	}
	if string(p) != string(payload) {
		t.Fatalf("payload round-trip: got %q", p)
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	blob := Encode(Meta{Identity: "x"}, []byte("payload"))
	blob[4] = 99 // version byte

	_, _, err := Decode(blob)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %v", err)
	}
	if ve.Version != 99 {
		t.Fatalf("VersionError.Version = %d, want 99", ve.Version)
	}

	// A blob the previous format wrote — Version-1, whatever Version is, so
	// that each bump tests the format a deployed binary actually left behind —
	// and a version 2 one: "PLCK", the version byte, then a CRC and body that
	// the current reader must not so much as checksum. There is no migration:
	// the caller gets the typed error and runs cold.
	for _, old := range []uint8{Version - 1, 2} {
		blob := append([]byte{'P', 'L', 'C', 'K', old, 0xde, 0xad, 0xbe, 0xef}, "an older format's body"...)
		if _, _, err = Decode(blob); !errors.As(err, &ve) || ve.Version != old {
			t.Fatalf("version %d header: want *VersionError{%d}, got %v", old, old, err)
		}
		if _, err = Restore(blob, testSystem(t)); !errors.As(err, &ve) || ve.Version != old {
			t.Fatalf("Restore of a version %d blob: want *VersionError{%d}, got %v", old, old, err)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	blob := Encode(Meta{Identity: "x", Cycle: 7}, []byte("some payload bytes"))

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", blob[:5]},
		{"bad magic", append([]byte("NOPE"), blob[4:]...)},
		{"truncated", blob[:len(blob)-3]},
		{"flipped payload byte", flip(blob, len(blob)-1)},
		{"flipped meta byte", flip(blob, 10)},
		{"flipped crc byte", flip(blob, 6)},
	} {
		_, _, err := Decode(tc.data)
		if err == nil {
			t.Errorf("%s: Decode accepted corrupt data", tc.name)
			continue
		}
		var ve *VersionError
		if errors.As(err, &ve) {
			t.Errorf("%s: got VersionError for corruption: %v", tc.name, err)
		}
	}
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x40
	return c
}

func TestCaptureRestoreFingerprint(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Run(500, 2000); err != nil {
		t.Fatal(err)
	}
	blob, err := Capture(sys, "run-1")
	if err != nil {
		t.Fatal(err)
	}

	m, _, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if m.Identity != "run-1" || m.Cycle != sys.Cycle() || m.Fingerprint != sys.Fingerprint() {
		t.Fatalf("capture meta %+v does not match system (cycle %d, fp %x)",
			m, sys.Cycle(), sys.Fingerprint())
	}

	// Restoring into a system with a different policy must fail typed.
	w := trace.ByName("mcf_r")
	other, err := core.New(arch.PaperConfig(1), defense.Policy{Scheme: defense.Fence}, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Restore(blob, other)
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *MismatchError restoring into different policy, got %v", err)
	}
	if !strings.Contains(err.Error(), "policy") {
		t.Fatalf("mismatch error should mention policy: %v", err)
	}

	// Restoring into an identical fresh system succeeds and lands on the
	// snapshot cycle.
	fresh := testSystem(t)
	m2, err := Restore(blob, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatalf("restore meta %+v != capture meta %+v", m2, m)
	}
	if fresh.Cycle() != sys.Cycle() {
		t.Fatalf("restored cycle %d, want %d", fresh.Cycle(), sys.Cycle())
	}
	if !fresh.Resumed() {
		t.Fatal("restored system not marked resumed")
	}
}

// TestRestoreTargetsAgree restores one checkpoint into the three kinds of
// machine a caller may hand Restore — freshly built and pre-warmed, built
// blank for the purpose, and one that has already run something else — and
// captures each again: all three must give back the checkpoint's bytes, so
// nothing of the target survives a restore.
func TestRestoreTargetsAgree(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Run(500, 2000); err != nil {
		t.Fatal(err)
	}
	blob, err := Capture(sys, "targets")
	if err != nil {
		t.Fatal(err)
	}
	blank, err := core.NewBlank(arch.PaperConfig(1), defense.Policy{Scheme: defense.DOM, Variant: defense.LP}, trace.ByName("mcf_r"), 1)
	if err != nil {
		t.Fatal(err)
	}
	used := testSystem(t)
	if _, err := used.Run(0, 5000); err != nil {
		t.Fatal(err)
	}
	for name, target := range map[string]*core.System{"fresh": testSystem(t), "blank": blank, "previously run": used} {
		if _, err := Restore(blob, target); err != nil {
			t.Fatalf("%s target: %v", name, err)
		}
		again, err := Capture(target, "targets")
		if err != nil {
			t.Fatalf("%s target: %v", name, err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("%s target captures different bytes after the restore", name)
		}
		if err := target.Mem().CheckResidency(); err != nil {
			t.Fatalf("%s target: %v", name, err)
		}
	}
}

func TestCaptureRejectsOpaqueWorkload(t *testing.T) {
	// The built-in sources are checkpointable; a custom generator that does
	// not implement the ckptio interfaces must fail Capture with a clear
	// error instead of producing an unresumable snapshot.
	sys, err := core.New(arch.PaperConfig(1),
		defense.Policy{Scheme: defense.Unsafe}, uncheckpointable{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := Capture(sys, "x"); err == nil ||
		!strings.Contains(err.Error(), "not checkpointable") {
		t.Fatalf("want not-checkpointable error, got %v", err)
	}
}

type uncheckpointable struct{}

func (uncheckpointable) Name() string { return "opaque" }
func (uncheckpointable) Cores() int   { return 1 }
func (uncheckpointable) Generator(core int, seed uint64) trace.Generator {
	return opaqueGen{}
}

type opaqueGen struct{}

func (opaqueGen) Next() isa.Inst      { return isa.Inst{Op: isa.Halt} }
func (opaqueGen) WrongPath() isa.Inst { return isa.Inst{} }
