// Package checkpoint defines the on-disk format for simulation snapshots
// and the helpers that capture and restore complete core.System state.
//
// A checkpoint is a single self-validating blob:
//
//	offset 0: magic "PLCK" (4 bytes)
//	offset 4: format version (1 byte)
//	offset 5: CRC32-IEEE, little-endian, over everything after it (4 bytes)
//	offset 9: metadata (identity string, cycle, fingerprint) followed by
//	          the raw core.System payload, all in ckptio encoding
//
// The CRC rejects corruption and truncation; the version byte gates format
// evolution (an unknown version is a typed VersionError, never a
// misparse); and the fingerprint ties the payload to the exact machine
// configuration and defense policy it was captured under, so a snapshot
// can only restore into an identically configured system.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/core"
)

// Version is the current checkpoint format version. This comment is the
// format's only history; DESIGN.md §10 renders the current layout from the
// walks. Sizes are the warmup-boundary blobs of TestCheckpointSizeRatchet
// (gcc_r under DOM-LP; ocean_cp, eight cores, under DOM-EP).
//
//   - 2: the reversible-speculation state (RCP): ROB-entry spec tokens, the
//     L1's spec journal and MSHR spec flags, the directory's spec-born marks.
//     Every LLC way was written, valid or not: 3.5 MB a machine.
//   - 3: a directory slice as its valid ways only (0.40 MB for the average
//     warmed SPEC17 machine, whose loader was 41.5 % of a warm fork).
//   - 4: those ways in plane-major order, as maximal runs of default-state
//     lines and single lines in the long form (coherence.Dir.State).
//   - 5: each ROB entry's held mark, and the CPI stack's counters.
//   - 6: without a core's predictor-presence byte and the CPT's reservation
//     queue (gcc_r 39 285 → 39 282 B, ocean_cp 362 036 → 362 451 B).
//   - 7: without program counters, the ROB entry's mispredict copy and the
//     core's queue of L1-tag unpins (37 907 B, 349 956 B).
//   - 8: without a core's indexes over its ROB — load count, seq lists, the
//     performed-load list, the token, tag and pinned-line tables, the per-set
//     pin counts — which a restore rebuilds; the write buffer moved up behind
//     the ROB (23 405 B, 220 747 B).
//   - 9: a memory token as n·ROBEntries + slot, and an L1's transaction lists
//     in arrival order, each journal record with its token (23 409 B,
//     220 858 B).
//   - 10: a ROB entry's tokens as their access counts n; without an MSHR
//     entry's write and Pinned flags and an L1's last demand-fill line
//     (23 373 B, 220 541 B).
//   - 11: without a core's cached seq of its oldest load; the oldest load's
//     pinSafe mark is its only record (23 371 B, 220 525 B).
//   - 12: without an L1's ports used and a directory slice's demand requests
//     accepted this cycle, which the next Tick resets before anything reads
//     them (23 362 B, 220 509 B).
//   - 13: without an L1's fills waiting for a way and the two counters of
//     them, which the pin bound (L1Ways−1 pinned lines a set) leaves none
//     of (23 316 B, 220 456 B).
//
// Exactly one version is readable: anything else, older blobs included, is a
// *VersionError and the caller runs cold — there is no migration code.
const Version = 13

// magic identifies a pinnedloads checkpoint.
const magic = "PLCK"

// headerLen is the fixed prefix before the checksummed region: magic,
// version byte and CRC32.
const headerLen = len(magic) + 1 + 4

// Meta describes a checkpoint without its payload.
type Meta struct {
	// Identity names the run the snapshot belongs to: simrun stamps a
	// periodic capture with the run's key (the service's job ID) and a
	// warmup-boundary capture with its warm key, and resumes a checkpoint
	// only into a run that has one of those names.
	Identity string
	// Cycle is the simulation cycle the snapshot was taken at.
	Cycle int64
	// Fingerprint is core.System.Fingerprint() of the captured system.
	Fingerprint uint64
}

// VersionError reports a checkpoint written by an unknown format version.
type VersionError struct {
	Version uint8
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: unsupported format version %d (supported: %d)",
		e.Version, Version)
}

// MismatchError reports a checkpoint whose fingerprint does not match the
// system it was asked to restore into.
type MismatchError struct {
	Want, Got uint64
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: fingerprint %016x does not match system %016x (different configuration or policy)",
		e.Got, e.Want)
}

// IdentityError reports a checkpoint that names another run than the one
// asked to resume from it: same machine and policy, another workload, seed
// or length.
type IdentityError struct {
	Got, Want string
}

func (e *IdentityError) Error() string {
	return fmt.Sprintf("checkpoint: captured in run %s, not in run %s or its warmed prefix", e.Got, e.Want)
}

// ErrCorrupt reports a checkpoint that failed structural validation.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated data")

// begin writes the fixed header (with the CRC still zero) and the metadata.
func begin(e *ckptio.Encoder, m Meta) {
	e.Raw([]byte(magic))
	e.U8(Version)
	e.Raw([]byte{0, 0, 0, 0})
	e.String(m.Identity)
	e.I64(m.Cycle)
	e.U64(m.Fingerprint)
}

// seal checksums everything begin and the payload writer put after the
// header and returns the finished blob, which is the encoder's own buffer.
func seal(e *ckptio.Encoder) []byte {
	buf := e.Bytes()
	crc := crc32.ChecksumIEEE(buf[headerLen:])
	binary.LittleEndian.PutUint32(buf[len(magic)+1:headerLen], crc)
	return buf
}

// metaRoom bounds the encoded header and metadata for an identity.
func metaRoom(identity string) int {
	return headerLen + len(identity) + 3*binary.MaxVarintLen64
}

// Encode wraps a core.System payload and its metadata into a checkpoint
// blob.
func Encode(m Meta, payload []byte) []byte {
	e := ckptio.NewEncoder()
	e.Grow(metaRoom(m.Identity) + len(payload))
	begin(e, m)
	e.Raw(payload)
	return seal(e)
}

// Decode validates a checkpoint blob and returns its metadata and raw
// payload. The returned payload aliases data. Corruption anywhere in the
// blob yields a wrapped ErrCorrupt; an unknown version byte yields a
// *VersionError.
func Decode(data []byte) (Meta, []byte, error) {
	if len(data) < headerLen || string(data[:len(magic)]) != magic {
		return Meta{}, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := data[len(magic)]; v != Version {
		return Meta{}, nil, &VersionError{Version: v}
	}
	want := binary.LittleEndian.Uint32(data[len(magic)+1 : headerLen])
	if got := crc32.ChecksumIEEE(data[headerLen:]); got != want {
		return Meta{}, nil, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}
	d := ckptio.NewDecoder(data[headerLen:])
	var m Meta
	m.Identity = d.String()
	m.Cycle = d.I64()
	m.Fingerprint = d.U64()
	payload := d.Rest()
	if err := d.Err(); err != nil {
		return Meta{}, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, payload, nil
}

// Capture snapshots a system into a checkpoint blob under the given
// identity. The system must be at a cycle boundary (between Ticks); Run's
// checkpoint hook guarantees this. Header, metadata and payload are written
// into one recycled buffer and the blob is a copy of it, so a store that
// keeps the blob keeps its bytes and no more.
func Capture(sys *core.System, identity string) ([]byte, error) {
	return ckptio.Encode(func(e *ckptio.Encoder) error {
		begin(e, Meta{
			Identity:    identity,
			Cycle:       sys.Cycle(),
			Fingerprint: sys.Fingerprint(),
		})
		if err := sys.SaveState(e); err != nil {
			return err
		}
		seal(e)
		return nil
	})
}

// Restore validates a checkpoint blob against the target system's
// fingerprint and overwrites the system's state with the snapshot. On
// success the system continues from Meta.Cycle as if it had never stopped.
func Restore(data []byte, sys *core.System) (Meta, error) {
	m, payload, err := Decode(data)
	if err != nil {
		return Meta{}, err
	}
	if want := sys.Fingerprint(); m.Fingerprint != want {
		return Meta{}, &MismatchError{Want: want, Got: m.Fingerprint}
	}
	if err := sys.Restore(payload); err != nil {
		return Meta{}, err
	}
	return m, nil
}

// WriteFile writes a checkpoint through a temporary file and a rename, so a
// crash mid-write never leaves a truncated blob where a resume would find
// it.
func WriteFile(path string, blob []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
