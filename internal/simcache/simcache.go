// Package simcache stores simulation results keyed by their speckey
// content address. It provides the Cache interface with three backends —
// a bounded in-memory LRU, a crash-safe on-disk store, and a tiered
// combination —, Peer, the prober of sibling daemons' caches, and Memo,
// the singleflight layer that guarantees each key simulates at most once
// across concurrent requesters and keeps what it computed. The simulation
// service caches through the backends and the experiment runner memoizes
// through Memo, under the same keys.
package simcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pinnedloads/internal/simrun"
)

// Cache stores simulation outputs by content-addressed key. Get returns
// (nil, false, nil) for a miss; backends return errors only for real I/O
// failures, never for absence or for corrupt entries (those are misses).
// Implementations are safe for concurrent use.
type Cache interface {
	Get(key string) (*simrun.Output, bool, error)
	Put(key string, out *simrun.Output) error
}

// Memory is a bounded in-memory LRU cache. The zero bound means
// unbounded, a server's default; plserved bounds it and spills to disk.
type Memory struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *memEntry
	entries map[string]*list.Element
}

type memEntry struct {
	key string
	out *simrun.Output
}

// NewMemory returns an LRU cache holding at most max entries (max <= 0
// means unbounded).
func NewMemory(max int) *Memory {
	return &Memory{max: max, order: list.New(), entries: make(map[string]*list.Element)}
}

// Get returns the cached output and promotes the entry.
func (m *Memory) Get(key string) (*simrun.Output, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return nil, false, nil
	}
	m.order.MoveToFront(el)
	return el.Value.(*memEntry).out, true, nil
}

// Put stores the output, evicting the least recently used entry when the
// bound is exceeded.
func (m *Memory) Put(key string, out *simrun.Output) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		el.Value.(*memEntry).out = out
		m.order.MoveToFront(el)
		return nil
	}
	m.entries[key] = m.order.PushFront(&memEntry{key: key, out: out})
	if m.max > 0 && m.order.Len() > m.max {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*memEntry).key)
	}
	return nil
}

// Len returns the number of cached entries.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// The envelope is the checksummed entry format shared by the disk backend
// and the cache-peering wire protocol: the result bytes plus their digest,
// so a torn write, a truncated download or a corrupt peer response is
// detected on read. It is the JSON object {"version","sha256","result"}
// as json.Marshal writes it: envelopeHead (which spells the version, bumped
// when the envelope or the Output encoding changes), the digest of the
// result in lowercase hex, envelopeResult, the result and '}'.
const (
	envelopeHead   = `{"version":1,"sha256":"`
	envelopeResult = `","result":`
	sumLen         = 2 * sha256.Size // the digest in hex
)

// EncodeEnvelope wraps a result in the checksummed envelope — the exact
// bytes the disk backend stores and the /v1/cache peering endpoint serves.
func EncodeEnvelope(out *simrun.Output) ([]byte, error) {
	// Room for the envelope around a 1-core result.
	b := make([]byte, 0, 1024)
	b = append(b, envelopeHead...)
	b = append(b, make([]byte, sumLen)...)
	b = append(b, envelopeResult...)
	start := len(b)
	b, err := out.AppendJSON(b)
	if err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	sum := sha256.Sum256(b[start:])
	hex.Encode(b[len(envelopeHead):], sum[:])
	return append(b, '}'), nil
}

// DecodeEnvelope verifies and unwraps an envelope. Any defect — another
// framing or version, a checksum mismatch, an undecodable result — is an
// error; callers treat it as a miss, never as a result.
func DecodeEnvelope(data []byte) (*simrun.Output, error) {
	// The result starts and ends the value it is, so the checksum covers
	// exactly its bytes.
	n := len(envelopeHead) + sumLen + len(envelopeResult)
	if len(data) <= n+2 || string(data[:len(envelopeHead)]) != envelopeHead ||
		string(data[n-len(envelopeResult):n]) != envelopeResult ||
		data[n] != '{' || data[len(data)-2] != '}' || data[len(data)-1] != '}' {
		return nil, fmt.Errorf("simcache: corrupt envelope")
	}
	var want [sumLen]byte
	sum := sha256.Sum256(data[n : len(data)-1])
	hex.Encode(want[:], sum[:])
	if string(data[len(envelopeHead):len(envelopeHead)+sumLen]) != string(want[:]) {
		return nil, fmt.Errorf("simcache: envelope checksum mismatch")
	}
	var out simrun.Output
	if err := out.UnmarshalJSON(data[n : len(data)-1]); err != nil {
		return nil, fmt.Errorf("simcache: corrupt result payload: %w", err)
	}
	return &out, nil
}

// Disk is a crash-safe on-disk cache: one JSON file per key, written to a
// temp file in the same directory and atomically renamed into place, with
// an embedded checksum over the result payload. A partially written,
// truncated or otherwise corrupt entry is treated as a miss and deleted,
// so the job recomputes instead of serving garbage.
type Disk struct {
	dir string
}

// orphanTmpAge is how stale a put-*.tmp file must be before NewDisk
// sweeps it. A live Put holds its temp file for milliseconds, so an hour
// of age means the writer crashed between CreateTemp and Rename; anything
// younger may belong to a concurrent writer and is left alone.
const orphanTmpAge = time.Hour

// NewDisk returns a disk cache rooted at dir, creating it if needed.
// Orphaned temp files from a crash mid-Put are swept on open.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: %w", err)
	}
	sweepOrphanTmp(dir)
	return &Disk{dir: dir}, nil
}

// sweepOrphanTmp removes stale put-*.tmp files left behind when a writer
// crashed between CreateTemp and Rename. Best effort: a sweep failure
// only leaves garbage files, never affects correctness, so errors are
// ignored.
func sweepOrphanTmp(dir string) {
	matches, err := filepath.Glob(filepath.Join(dir, "put-*.tmp"))
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-orphanTmpAge)
	for _, p := range matches {
		if fi, err := os.Stat(p); err == nil && fi.ModTime().Before(cutoff) {
			os.Remove(p)
		}
	}
}

// path maps a key to its entry file. Keys are hex digests, but guard
// against path traversal anyway by refusing separators.
func (d *Disk) path(key string) (string, error) {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("simcache: invalid key %q", key)
	}
	return filepath.Join(d.dir, key+".json"), nil
}

// Get loads and verifies an entry; corrupt entries are removed and
// reported as misses.
func (d *Disk) Get(key string) (*simrun.Output, bool, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("simcache: %w", err)
	}
	out, err := DecodeEnvelope(data)
	if err != nil {
		os.Remove(p)
		return nil, false, nil
	}
	return out, true, nil
}

// Put writes the entry crash-safely: temp file, fsync, rename.
func (d *Disk) Put(key string, out *simrun.Output) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	data, err := EncodeEnvelope(out)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), p)
	}
	if err != nil {
		// The rename consumed the temp file on success; only a failed put
		// leaves one behind to remove.
		os.Remove(tmp.Name())
		return fmt.Errorf("simcache: %w", err)
	}
	return nil
}

// Tiered layers a fast cache over a slow one: gets that miss fast but hit
// slow are promoted; puts write through to both.
type Tiered struct {
	fast, slow Cache
}

// NewTiered returns the layered cache.
func NewTiered(fast, slow Cache) *Tiered { return &Tiered{fast: fast, slow: slow} }

// Get checks fast then slow, promoting slow hits.
func (t *Tiered) Get(key string) (*simrun.Output, bool, error) {
	if out, ok, err := t.fast.Get(key); ok || err != nil {
		return out, ok, err
	}
	out, ok, err := t.slow.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	if err := t.fast.Put(key, out); err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// Put writes through to both tiers.
func (t *Tiered) Put(key string, out *simrun.Output) error {
	if err := t.fast.Put(key, out); err != nil {
		return err
	}
	return t.slow.Put(key, out)
}

// Memo is singleflight execution with its results kept: the first
// requester of a key runs the compute function, concurrent and later
// requesters for the same key block until it finishes and share its
// result. A flight is never dropped, so a failed computation is memoized
// permanently too: a key that errored once reports the same error without
// re-executing — the experiment pool depends on this to fail fast across a
// sweep.
type Memo struct {
	mu      sync.Mutex
	flights map[string]*flight
}

type flight struct {
	done chan struct{}
	out  *simrun.Output
	err  error
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{flights: make(map[string]*flight)}
}

// Do returns the memoized output for key, or executes fn exactly once to
// compute it (concurrent callers share the one execution).
func (m *Memo) Do(key string, fn func() (*simrun.Output, error)) (*simrun.Output, error) {
	m.mu.Lock()
	f, ok := m.flights[key]
	if !ok {
		f = &flight{done: make(chan struct{})}
		m.flights[key] = f
	}
	m.mu.Unlock()
	if ok {
		<-f.done
		return f.out, f.err
	}
	f.out, f.err = fn()
	close(f.done)
	return f.out, f.err
}
