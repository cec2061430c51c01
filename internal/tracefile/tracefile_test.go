package tracefile

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
)

func TestRoundTrip(t *testing.T) {
	src := trace.ByName("gcc_r")
	rec := Record(src, 7, 5000)
	path := filepath.Join(t.TempDir(), "gcc.pltr")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceName != rec.TraceName || got.Cores() != rec.Cores() {
		t.Fatalf("header mismatch: %q/%d vs %q/%d",
			got.TraceName, got.Cores(), rec.TraceName, rec.Cores())
	}
	for core := range rec.Streams {
		if len(got.Streams[core]) != len(rec.Streams[core]) {
			t.Fatalf("core %d: %d vs %d instructions",
				core, len(got.Streams[core]), len(rec.Streams[core]))
		}
		for i := range rec.Streams[core] {
			if got.Streams[core][i] != rec.Streams[core][i] {
				t.Fatalf("core %d inst %d: %+v vs %+v",
					core, i, got.Streams[core][i], rec.Streams[core][i])
			}
		}
		for i := range rec.Wrong[core] {
			if got.Wrong[core][i] != rec.Wrong[core][i] {
				t.Fatalf("core %d wrong-path %d mismatch", core, i)
			}
		}
	}
}

func TestRoundTripParallel(t *testing.T) {
	src := trace.ByName("fft")
	rec := Record(src, 1, 1000)
	if rec.Cores() != 8 {
		t.Fatalf("cores = %d", rec.Cores())
	}
	path := filepath.Join(t.TempDir(), "fft.pltr")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for core := range rec.Streams {
		for i := range rec.Streams[core] {
			if got.Streams[core][i] != rec.Streams[core][i] {
				t.Fatalf("core %d inst %d mismatch", core, i)
			}
		}
	}
}

func TestReplayMatchesGenerator(t *testing.T) {
	src := trace.ByName("leela_r")
	rec := Record(src, 3, 2000)
	replay := rec.Generator(0, 999) // seed ignored on replay
	orig := src.Generator(0, 3)
	for i := 0; i < 2000; i++ {
		a, b := replay.Next(), orig.Next()
		if a != b {
			t.Fatalf("inst %d: replay %+v vs original %+v", i, a, b)
		}
	}
	// Exhausted replays halt.
	if in := replay.Next(); in.Op != isa.Halt {
		t.Fatalf("post-end op = %v", in.Op)
	}
}

func TestReplayWrongPathCycles(t *testing.T) {
	src := trace.ByName("leela_r")
	rec := Record(src, 3, 10)
	g := rec.Generator(0, 0)
	first := g.WrongPath()
	for i := 1; i < wrongPathSample; i++ {
		g.WrongPath()
	}
	if again := g.WrongPath(); again != first {
		t.Fatal("wrong-path sample did not cycle")
	}
}

func TestHaltRecorded(t *testing.T) {
	s := &trace.Script{ScriptName: "tiny",
		Insts: [][]isa.Inst{{{Op: isa.ALU, Lat: 1}}}} // halts after one inst
	rec := Record(s, 1, 100)
	if n := len(rec.Streams[0]); n != 2 {
		t.Fatalf("recorded %d insts, want inst+halt", n)
	}
	if rec.Streams[0][1].Op != isa.Halt {
		t.Fatal("halt not recorded")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.pltr")
	if err := os.WriteFile(path, []byte("NOTATRACE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCompactness(t *testing.T) {
	src := trace.ByName("gcc_r")
	rec := Record(src, 1, 10000)
	path := filepath.Join(t.TempDir(), "c.pltr")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	perInst := float64(fi.Size()) / float64(10000+wrongPathSample)
	if perInst > 16 {
		t.Fatalf("%.1f bytes/instruction, want compact (< 16)", perInst)
	}
}

func TestWarmLinesRoundTrip(t *testing.T) {
	src := trace.ByName("bwaves_r") // has LLC-resident warm lines
	rec := Record(src, 1, 100)
	if len(rec.WarmRanges(0)) == 0 {
		t.Fatal("no warm lines recorded")
	}
	path := filepath.Join(t.TempDir(), "w.pltr")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := rec.WarmRanges(0), got.WarmRanges(0); !reflect.DeepEqual(a, b) {
		t.Fatalf("warm runs %v loaded as %v", a, b)
	}
	if got.WarmRanges(99) != nil {
		t.Fatal("out-of-range core returned warm lines")
	}
}

// TestWarmLinesCoalesce: runs that repeat, descend, touch or are empty must
// load as the merged runs that expand to the same lines in the same order,
// and a trace whose runs could be merged must write the same bytes as the
// merged one.
func TestWarmLinesCoalesce(t *testing.T) {
	split := &Trace{Streams: [][]isa.Inst{nil}, Wrong: [][]isa.Inst{nil},
		Warm: [][]arch.LineRange{{{First: 0x100, N: 1}, {First: 0x101, N: 1}, {First: 0x100, N: 1},
			{First: 0x108, N: 0}, {First: 0x90, N: 2}, {First: 0x92, N: 3}}}}
	a, err := split.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []arch.LineRange{{First: 0x100, N: 2}, {First: 0x100, N: 1}, {First: 0x90, N: 5}}
	if !reflect.DeepEqual(got.Warm[0], want) {
		t.Fatalf("loaded runs %v, want %v", got.Warm[0], want)
	}
	b, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("coalesced runs write different bytes")
	}
}

func TestLoadTruncated(t *testing.T) {
	// Truncating a valid trace at various points must error, not panic.
	src := trace.ByName("leela_r")
	rec := Record(src, 1, 200)
	path := filepath.Join(t.TempDir(), "t.pltr")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{3, 5, 10, len(data) / 2, len(data) - 1} {
		p := filepath.Join(t.TempDir(), "cut.pltr")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestSaveToBadPath(t *testing.T) {
	rec := Record(trace.ByName("leela_r"), 1, 10)
	if err := rec.Save("/nonexistent-dir/x.pltr"); err == nil {
		t.Fatal("save to bad path succeeded")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent.pltr"); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

func TestVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.pltr")
	if err := os.WriteFile(path, []byte("PLTR\x63rest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestGeneratorOutOfRangeCore(t *testing.T) {
	rec := Record(trace.ByName("leela_r"), 1, 50)
	g := rec.Generator(42, 0) // falls back to core 0
	if g.Next().Op == isa.Halt {
		t.Fatal("fallback generator empty")
	}
}
