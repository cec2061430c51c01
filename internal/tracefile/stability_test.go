package tracefile

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pinnedloads/internal/trace"
)

// TestTraceBytesStable pins format v3's bytes: a recorded trace is a file
// somebody may replay with a later binary, so a change to how a field is
// written must show here, not in a replay that quietly differs. The three
// proxies cover one core, warm-line runs and eight cores. A deliberate format
// change bumps version and re-records the digests.
func TestTraceBytesStable(t *testing.T) {
	for _, c := range []struct {
		bench string
		size  int
		want  string
	}{
		{"gcc_r", 198632, "41a26251b0870dd4425a5d5a9da7ca2b61a81799eebc1deee349da6ced57c9a1"},
		{"bwaves_r", 299667, "f5e037ebf728d912830382bcaa1beb89a4eebb3a6b6ceb2971d8233c6554ad09"},
		{"fft", 1552454, "38b116d9dc0f4e0ef3a47d235075a66379e9fce2debdb93846f45afdff71c501"},
	} {
		t.Run(c.bench, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), c.bench+".pltr")
			if err := Record(trace.ByName(c.bench), 3, 20000).Save(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != c.want || len(data) != c.size {
				t.Fatalf("trace bytes changed: SHA-256 %s over %d bytes, pinned %s over %d",
					got, len(data), c.want, c.size)
			}
		})
	}
}

// TestLoadsV2 replays files the v2 writer left: the package promises replay
// across simulator versions, so a v2 file must load as the trace it
// recorded, its PC deltas read and dropped. fuzz-seed.v2.pltr is the v2
// encoding of fuzzSeedTrace (two cores, every op kind, a backward PC step);
// gcc_r-seed1-256.v2.pltr.gz is Record(gcc_r, seed 1, 256 instructions),
// warm lines included. Both were written by the last v2 binary.
func TestLoadsV2(t *testing.T) {
	for _, c := range []struct {
		file string
		want *Trace
	}{
		{"fuzz-seed.v2.pltr", fuzzSeedTrace()},
		{"gcc_r-seed1-256.v2.pltr.gz", Record(trace.ByName("gcc_r"), 1, 256)},
	} {
		t.Run(c.file, func(t *testing.T) {
			data := readTestdata(t, c.file)
			if data[len(magic)] != versionPC {
				t.Fatalf("%s is not a v%d file", c.file, versionPC)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("v2 file loaded as a different trace")
			}
			again, err := got.Encode()
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.want.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if again[len(magic)] != version || !bytes.Equal(again, want) {
				t.Fatalf("a loaded v2 trace does not save as v%d of the same trace", version)
			}
		})
	}
}

// readTestdata reads a file under testdata, gunzipping a .gz one.
func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Ext(name) != ".gz" {
		return data
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if data, err = io.ReadAll(zr); err != nil {
		t.Fatal(err)
	}
	return data
}
