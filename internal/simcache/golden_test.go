package simcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestEnvelopeBytesStable reads testdata/envelope_v1.golden, one envelope a
// line as EncodeEnvelope wrote them before it was written by hand: a 1-core
// and an 8-core run, a traced run, and results at the codec's edges (no
// counters, floats at encoding/json's format cutoffs, escaped names). Each
// must still decode, from memory and from a disk directory, re-encode to
// the same bytes, and be what json.Marshal writes for the envelope of its
// result. A diskVersion bump replaces the file; nothing else may change it,
// since disk caches and peers hold these bytes.
func TestEnvelopeBytesStable(t *testing.T) {
	data, err := os.ReadFile("testdata/envelope_v1.golden")
	if err != nil {
		t.Fatal(err)
	}
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 6 {
		t.Fatalf("golden holds %d envelopes, want 6", len(lines))
	}
	for i, want := range lines {
		out, err := DecodeEnvelope(want)
		if err != nil {
			t.Fatalf("envelope %d no longer decodes: %v", i, err)
		}
		got, err := EncodeEnvelope(out)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("envelope %d re-encodes (%v) to\n%s\nnot\n%s", i, err, got, want)
		}
		if ref := envelopeBytes(out); !bytes.Equal(ref, want) {
			t.Fatalf("envelope %d is not json.Marshal's:\n%s", i, ref)
		}
		// A disk directory the encoding/json encoder filled still serves it.
		key := fmt.Sprintf("k%d", i)
		if err := os.WriteFile(filepath.Join(disk.dir, key+".json"), want, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := disk.Get(key); err != nil || !ok || !reflect.DeepEqual(got, out) {
			t.Fatalf("envelope %d from disk: %v, %v", i, ok, err)
		}
	}
}
