package checkpoint

import (
	"bytes"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/trace"
)

// specStateBlob captures a real mid-run checkpoint under the given policy
// so the fuzz corpus includes current-version payloads carrying reversible-
// speculation state (spec tokens, the L1 spec journal, directory spec-born
// marks in the sparse directory section) and RC-consistency configurations,
// not just hand-made payloads. The seeds are captured on every run, so they
// are always blobs of the version under test.
func specStateBlob(f *testing.F, pol defense.Policy) []byte {
	f.Helper()
	atk := &trace.Attack{AttackKind: "spectre_v1", Secret: 1, Iters: 64}
	sys, err := core.New(arch.PaperConfig(0), pol, atk, 1)
	if err != nil {
		f.Fatal(err)
	}
	var blob []byte
	sys.SetCheckpointHook(1_024, func() error {
		if blob == nil {
			b, err := Capture(sys, "fuzz-spec")
			if err != nil {
				return err
			}
			blob = b
		}
		return nil
	})
	if _, err := sys.Run(0, 500_000); err != nil {
		f.Fatal(err)
	}
	if blob == nil {
		f.Fatal("attack halted before the first checkpoint interval")
	}
	return blob
}

// FuzzCheckpointDecode hardens the checkpoint format layer the same way
// FuzzEnvelopeDecode hardens the simcache envelope: arbitrary bytes must
// never panic or hang — they either decode to the exact meta/payload that
// was encoded, or fail with a clean error.
func FuzzCheckpointDecode(f *testing.F) {
	valid := Encode(Meta{Identity: "fuzz-seed", Cycle: 12345, Fingerprint: 0xabcdef},
		[]byte("payload bytes of a pretend snapshot"))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])        // truncated payload
	f.Add(valid[:9])                   // header only
	f.Add(valid[:4])                   // magic only
	f.Add([]byte{})                    // empty
	f.Add([]byte("PLCK"))              // magic, nothing else
	f.Add([]byte("not a checkpoint"))  // garbage
	f.Add(bytes.Repeat([]byte{0}, 64)) // zeros
	badVersion := append([]byte(nil), valid...)
	badVersion[4] = Version + 1
	f.Add(badVersion)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(badCRC)
	rcp := specStateBlob(f, defense.Policy{Scheme: defense.RCP})
	f.Add(rcp)
	f.Add(rcp[:len(rcp)/2]) // truncated mid-payload, through spec state
	f.Add(specStateBlob(f, defense.Policy{Scheme: defense.RCP, Consistency: defense.RC}))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, payload, err := Decode(data)
		if err != nil {
			return
		}
		// Successful decodes must re-encode to the identical blob: the
		// format has exactly one serialization per (meta, payload).
		if again := Encode(m, payload); !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not idempotent:\n in: %x\nout: %x", data, again)
		}
	})
}
