package simcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pinnedloads/internal/simrun"
)

// diskEnvelope is the envelope as encoding/json spells it: the reference
// encoder EncodeEnvelope's bytes are held to.
type diskEnvelope struct {
	Version int             `json:"version"`
	SHA256  string          `json:"sha256"`
	Result  json.RawMessage `json:"result"`
}

// diskVersion is the version envelopeHead spells.
const diskVersion = 1

// envelopeBytes encodes a valid on-disk entry through encoding/json, for the
// fuzz seed corpus and the golden's reference.
func envelopeBytes(o *simrun.Output) []byte {
	payload, err := json.Marshal(o)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(diskEnvelope{
		Version: diskVersion,
		SHA256:  hex.EncodeToString(sum[:]),
		Result:  payload,
	})
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzEnvelopeDecode plants arbitrary bytes where a disk-cache entry
// belongs and reads through them. The contract under fuzzing: Get never
// panics and never returns an error for a corrupt entry — anything that
// fails checksum or decode is a miss, the bad file is removed, and a
// fresh Put/Get round-trip recomputes cleanly over it.
func FuzzEnvelopeDecode(f *testing.F) {
	valid := envelopeBytes(out(1.5))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                     // truncated mid-envelope
	f.Add([]byte(`{}`))                                             // empty envelope
	f.Add([]byte(``))                                               // empty file
	f.Add([]byte(`not json at al`))                                 // garbage
	f.Add([]byte(`{"version":1,"sha256":"00","result":{"cpi":1}}`)) // bad sum
	f.Add([]byte(`{"version":9,"sha256":"","result":null}`))        // bad version
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // one corrupt byte
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		d, err := NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		const key = "fuzzkey"
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		o, ok, err := d.Get(key)
		if err != nil {
			t.Fatalf("Get returned an error for planted bytes: %v", err)
		}
		if ok && o == nil {
			t.Fatal("Get reported a hit with nil output")
		}
		// Whatever the planted bytes were, the slot must be writable and
		// the rewrite must verify.
		want := out(2.5)
		if err := d.Put(key, want); err != nil {
			t.Fatalf("Put after corrupt read: %v", err)
		}
		got, ok, err := d.Get(key)
		if err != nil || !ok {
			t.Fatalf("Get after rewrite: ok=%v err=%v", ok, err)
		}
		if got.CPI != want.CPI {
			t.Fatalf("rewrite round-trip CPI = %v, want %v", got.CPI, want.CPI)
		}
	})
}
