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

// TestTraceBytesStable pins format v4's bytes: a recorded trace is a file
// somebody may replay with a later binary, so a change to how a field is
// written must show here, not in a replay that quietly differs. The three
// proxies cover one core, warm-line runs and eight cores. A deliberate format
// change bumps version and re-records the digests. Writing warm lines as runs
// (v4) took gcc_r from 198 632 bytes to 165 866, bwaves_r from 299 667 to
// 168 601 and fft from 1 552 454 to 1 388 634.
func TestTraceBytesStable(t *testing.T) {
	for _, c := range []struct {
		bench string
		size  int
		want  string
	}{
		{"gcc_r", 165866, "b41092a81fbcb8ded0c27b15e4e588a802277f878d072dc46f1761daeab3b011"},
		{"bwaves_r", 168601, "9b9e92d5bb7b6d2134fcddcffeaa59d85230d09efed65b6bb6b856dae4c72320"},
		{"fft", 1388634, "cefd137ea50aa5a09c2ca59a02f02fd523a0db9e51c4a7172fc1e18e33f9e959"},
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
	loadsOlder(t, versionPC, "fuzz-seed.v2.pltr", "gcc_r-seed1-256.v2.pltr.gz")
}

// TestLoadsV3 replays the same two traces as the last v3 binary wrote them,
// every warm line its own delta: they must load as the traces they recorded,
// their lines back in runs.
func TestLoadsV3(t *testing.T) {
	loadsOlder(t, 3, "fuzz-seed.v3.pltr", "gcc_r-seed1-256.v3.pltr.gz")
}

// loadsOlder loads the version v encodings of fuzzSeedTrace and of
// Record(gcc_r, seed 1, 256), and holds each to the trace it recorded and to
// saving as the current version's bytes of that trace.
func loadsOlder(t *testing.T, v uint8, seedFile, gccFile string) {
	for _, c := range []struct {
		file string
		want *Trace
	}{
		{seedFile, fuzzSeedTrace()},
		{gccFile, Record(trace.ByName("gcc_r"), 1, 256)},
	} {
		t.Run(c.file, func(t *testing.T) {
			data := readTestdata(t, c.file)
			if data[len(magic)] != v {
				t.Fatalf("%s is not a v%d file", c.file, v)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("v%d file loaded as a different trace", v)
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
				t.Fatalf("a loaded v%d trace does not save as v%d of the same trace", v, version)
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
