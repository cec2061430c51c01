package tracefile

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
)

// fuzzSeedTrace builds a small but representative trace: two cores, every
// op kind, mispredicted branches, faults, warm lines.
func fuzzSeedTrace() *Trace {
	return &Trace{
		TraceName: "fuzz-seed.trace",
		Streams: [][]isa.Inst{
			{
				{Op: isa.Load, Addr: 0x4000, Deps: [2]int32{1, 0}},
				{Op: isa.Store, Addr: 0x4040},
				{Op: isa.Branch, Taken: true, Mispredict: true},
				{Op: isa.ALU, Lat: 3},
				{Op: isa.Load, Addr: 0x8000, Fault: true},
			},
			{
				{Op: isa.Fence},
				{Op: isa.Lock, Addr: 0x9000},
				{Op: isa.Barrier},
				{Op: isa.Halt},
			},
		},
		Wrong: [][]isa.Inst{
			{{Op: isa.Nop}},
			{{Op: isa.Load, Addr: 0xdead40}},
		},
		Warm: [][]arch.LineRange{{{First: 0x100, N: 2}, {First: 0x200, N: 1}}, nil},
	}
}

// FuzzTracefileRoundTrip checks that Decode never panics on arbitrary
// input, and that any input Decode accepts round-trips losslessly:
// decode -> encode -> decode yields an identical trace and identical bytes.
func FuzzTracefileRoundTrip(f *testing.F) {
	seed, err := fuzzSeedTrace().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// A recorded generator trace exercises the warm-line path.
	rec, err := Record(trace.ByName("gcc_r"), 1, 32).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	// Files the v2 and v3 writers left: a v2 file's PC deltas are read and
	// dropped, a v3 file's warm lines gathered into runs, and both re-encode
	// as v4.
	for _, name := range []string{"fuzz-seed.v2.pltr", "fuzz-seed.v3.pltr"} {
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	// Warm runs a loader must refuse: an empty one, and lines past the bound.
	for _, runs := range [][]uint64{{0}, {1 << 60}, {maxWarmLines / 2, maxWarmLines/2 + 1}} {
		f.Add(warmRunsFile(runs))
	}
	f.Add([]byte{})
	f.Add([]byte("PLTR"))
	f.Add([]byte("PLTR\x02\x01\x00"))
	f.Add([]byte("PLTR\x02\x00\x00")) // no cores
	// Truncations and bit flips of a valid encoding are the interesting
	// corruption class; give the mutator a head start.
	f.Add(seed[:len(seed)/2])
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return // rejected input is fine; panicking or OOM is not
		}
		enc1, err := tr.Encode()
		if err != nil {
			t.Fatalf("encode of decoded trace failed: %v", err)
		}
		tr2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("re-decode of encoded trace failed: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip changed the trace:\nfirst:  %+v\nsecond: %+v", tr, tr2)
		}
		enc2, err := tr2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("re-encoding is not byte-stable")
		}
	})
}

// warmRunsFile is a one-core v4 file with no instructions whose warm lines are
// runs of the given lengths, one line apart.
func warmRunsFile(runs []uint64) []byte {
	b := []byte("PLTR\x04\x01\x00\x00\x00")
	b = binary.AppendUvarint(b, uint64(len(runs)))
	for _, n := range runs {
		b = binary.AppendUvarint(append(b, 2), n) // zigzag delta 1
	}
	return b
}

// TestDecodeRejectsImplausibleCounts pins the hardening limits: headers
// claiming absurd sizes must fail fast instead of allocating, a trace
// with no cores, which no run could replay, is not a trace, and a core's
// warm runs must be non-empty and hold at most maxWarmLines lines, so a
// 20-byte file cannot ask replay to prewarm 2^60 of them.
func TestDecodeRejectsImplausibleCounts(t *testing.T) {
	huge := []byte("PLTR\x02\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01") // cores = 2^63+
	if _, err := Decode(huge); err == nil {
		t.Fatal("decode accepted an implausible core count")
	}
	name := []byte("PLTR\x02\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01") // nameLen huge
	if _, err := Decode(name); err == nil {
		t.Fatal("decode accepted an implausible name length")
	}
	if _, err := Decode([]byte("PLTR\x02\x00\x00")); err == nil {
		t.Fatal("decode accepted a trace with no cores")
	}
	for _, runs := range [][]uint64{{0}, {1 << 60}, {maxWarmLines / 2, maxWarmLines/2 + 1}} {
		if _, err := Decode(warmRunsFile(runs)); err == nil || !strings.Contains(err.Error(), "warm run") {
			t.Fatalf("warm runs %v: error %v, want a warm run rejected", runs, err)
		}
	}
	tr, err := Decode(warmRunsFile([]uint64{maxWarmLines / 2, maxWarmLines / 2}))
	if err != nil {
		t.Fatal(err)
	}
	if want := []arch.LineRange{{First: 1, N: maxWarmLines / 2}, {First: maxWarmLines/2 + 2, N: maxWarmLines / 2}}; !reflect.DeepEqual(tr.Warm[0], want) {
		t.Fatalf("warm runs at the bound loaded as %v, want %v", tr.Warm[0], want)
	}
}

// TestDecodeTruncatedStreamCount checks that a stream count far larger than
// the remaining input errors out with bounded memory (ckptio.Decoder.Count).
func TestDecodeTruncatedStreamCount(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("PLTR")
	buf.WriteByte(2)
	buf.WriteByte(1)                                                  // one core
	buf.WriteByte(1)                                                  // name length 1
	buf.WriteByte('x')                                                //
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // count ~2^55
	if _, err := Decode(buf.Bytes()); err == nil {
		t.Fatal("decode accepted a truncated stream")
	}
}
