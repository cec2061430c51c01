package tracefile

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"pinnedloads/internal/trace"
)

// TestTraceBytesStable pins format v2's bytes: a recorded trace is a file
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
		{"gcc_r", 234671, "ff3a058233b82bdfa6cf5b7b534183b6c1e0a31c45d0bd0c6345666e1d1593a2"},
		{"bwaves_r", 326550, "6cff93293bec6800372d5cda3d9e6559d3c8d5de0e2b20b2122757063958d72e"},
		{"fft", 1772639, "2da272fa247edf0ac2110d2613a96343855f2bc0bc4445a144bd35de21989483"},
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
