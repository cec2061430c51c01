package simcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rtFunc injects a canned transport under Peer.HTTP — no sockets, so the
// malformed-payload table and the fuzz target run fast and deterministic.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func respond(code int, body []byte) *http.Response {
	return &http.Response{
		StatusCode:    code,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Header:        make(http.Header),
	}
}

// peerWith returns a single-peer backend whose every probe is answered by
// rt, plus a counter map capturing the Counter hook.
func peerWith(rt rtFunc) (*Peer, map[string]*atomic.Int64) {
	counts := map[string]*atomic.Int64{
		"peer_probes": {}, "peer_hits": {}, "peer_errors": {},
	}
	p := NewPeer([]string{"http://peer-a"})
	p.HTTP = &http.Client{Transport: rt}
	p.Counter = func(name string) {
		if c, ok := counts[name]; ok {
			c.Add(1)
		}
	}
	return p, counts
}

// TestPeerHit serves a valid envelope: Peer reports the hit, with the
// result intact, and counts one probe round that hit. Keeping the hit
// locally is the server's (internal/service's peer tests).
func TestPeerHit(t *testing.T) {
	want := out(1.75)
	env, err := EncodeEnvelope(want)
	if err != nil {
		t.Fatal(err)
	}
	p, counts := peerWith(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path != "/v1/cache/k1" {
			t.Errorf("probe path = %q", r.URL.Path)
		}
		return respond(http.StatusOK, env), nil
	})
	got, ok := p.Get("k1")
	if !ok {
		t.Fatal("peer get missed a served envelope")
	}
	if got.CPI != want.CPI || got.Counters["retired"] != 50 {
		t.Fatalf("peer hit mangled the entry: %+v", got)
	}
	if counts["peer_probes"].Load() != 1 || counts["peer_hits"].Load() != 1 || counts["peer_errors"].Load() != 0 {
		t.Fatalf("counters = probes:%d hits:%d errors:%d, want 1/1/0",
			counts["peer_probes"].Load(), counts["peer_hits"].Load(), counts["peer_errors"].Load())
	}
}

// TestPeerMalformedResponsesAreMisses is the poisoning table: every
// corrupt, truncated, oversized or otherwise broken peer response must be
// a silent miss, with nothing returned for the server to keep.
func TestPeerMalformedResponsesAreMisses(t *testing.T) {
	valid, err := EncodeEnvelope(out(2.0))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x20

	cases := []struct {
		name      string
		code      int
		body      []byte
		rtErr     error
		maxBytes  int64
		wantError bool // peer_errors counted (vs a clean 404 miss)
	}{
		{name: "garbage bytes", code: 200, body: []byte("not json at all"), wantError: true},
		{name: "truncated envelope", code: 200, body: valid[:len(valid)/2], wantError: true},
		{name: "empty body", code: 200, body: nil, wantError: true},
		{name: "checksum mismatch", code: 200, body: flipped, wantError: true},
		{name: "wrong version", code: 200,
			body: []byte(`{"version":9,"sha256":"","result":null}`), wantError: true},
		{name: "valid envelope, non-output payload", code: 200,
			body: mustEnvelopeRaw(t, []byte(`42`)), wantError: true},
		{name: "oversized response", code: 200, body: valid, maxBytes: 8, wantError: true},
		{name: "http 500", code: 500, body: []byte("boom"), wantError: true},
		{name: "http 404 clean miss", code: 404, body: []byte(`{"error":"no"}`)},
		{name: "transport error", rtErr: fmt.Errorf("connection refused"), wantError: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, counts := peerWith(func(r *http.Request) (*http.Response, error) {
				if tc.rtErr != nil {
					return nil, tc.rtErr
				}
				return respond(tc.code, tc.body), nil
			})
			if tc.maxBytes > 0 {
				p.MaxBytes = tc.maxBytes
			}
			if o, ok := p.Get("k"); ok || o != nil {
				t.Fatalf("malformed peer response served as a hit: %+v", o)
			}
			if counts["peer_hits"].Load() != 0 {
				t.Fatal("counted a hit for a rejected payload")
			}
			wantErrs := int64(0)
			if tc.wantError {
				wantErrs = 1
			}
			if counts["peer_errors"].Load() != wantErrs {
				t.Fatalf("peer_errors = %d, want %d", counts["peer_errors"].Load(), wantErrs)
			}
		})
	}
}

// mustEnvelopeRaw builds a checksum-valid envelope around an arbitrary
// raw payload — the "honest checksum, dishonest content" case.
func mustEnvelopeRaw(t *testing.T, payload []byte) []byte {
	t.Helper()
	sum := sha256.Sum256(payload)
	return []byte(fmt.Sprintf(`{"version":%d,"sha256":"%s","result":%s}`,
		diskVersion, hex.EncodeToString(sum[:]), payload))
}

// TestPeerRankOrder verifies probes walk the ranked order and stop at the
// first hit: with rank [b, a] and the entry only on b, a is never asked;
// with the entry only on a, b is asked first and missed.
func TestPeerRankOrder(t *testing.T) {
	envA, _ := EncodeEnvelope(out(3.0))
	envB, _ := EncodeEnvelope(out(4.0))
	var gotOrder []string
	var mu sync.Mutex
	serve := map[string][]byte{} // host -> envelope
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		gotOrder = append(gotOrder, r.URL.Host)
		body, ok := serve[r.URL.Host]
		mu.Unlock()
		if !ok {
			return respond(http.StatusNotFound, nil), nil
		}
		return respond(http.StatusOK, body), nil
	})
	p := NewPeer([]string{"http://a", "http://b"})
	p.HTTP = &http.Client{Transport: rt}
	p.Rank = func(key string) []string { return []string{"http://b", "http://a"} }

	serve["b"] = envB
	o, ok := p.Get("k1")
	if !ok || o.CPI != 4.0 {
		t.Fatalf("ranked-first peer hit: ok=%v cpi=%v", ok, o.CPI)
	}
	if len(gotOrder) != 1 || gotOrder[0] != "b" {
		t.Fatalf("probe order = %v, want [b] (stop at first hit)", gotOrder)
	}

	gotOrder = nil
	delete(serve, "b")
	serve["a"] = envA
	o, ok = p.Get("k2")
	if !ok || o.CPI != 3.0 {
		t.Fatalf("fallback peer hit: ok=%v", ok)
	}
	if len(gotOrder) != 2 || gotOrder[0] != "b" || gotOrder[1] != "a" {
		t.Fatalf("probe order = %v, want [b a]", gotOrder)
	}
}

// TestPeerSingleflight hammers one key from many goroutines against a
// slow peer: exactly one probe round reaches the wire, every caller
// shares its verdict.
func TestPeerSingleflight(t *testing.T) {
	env, _ := EncodeEnvelope(out(2.5))
	var requests atomic.Int64
	rt := rtFunc(func(r *http.Request) (*http.Response, error) {
		requests.Add(1)
		time.Sleep(20 * time.Millisecond) // let the followers pile up
		return respond(http.StatusOK, env), nil
	})
	p := NewPeer([]string{"http://a"})
	p.HTTP = &http.Client{Transport: rt}

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if o, ok := p.Get("shared"); !ok || o.CPI != 2.5 {
				t.Errorf("singleflight follower: ok=%v", ok)
			}
		}()
	}
	wg.Wait()
	if requests.Load() != 1 {
		t.Fatalf("wire requests = %d, want 1 (singleflight)", requests.Load())
	}
	// The flight is not memoized: a later Get probes again.
	p.Get("shared")
	if requests.Load() != 2 {
		t.Fatalf("post-flight requests = %d, want 2", requests.Load())
	}
}

// TestPeerTimeoutFailsOpen points the prober at a peer that hangs past
// the probe timeout: the Get must come back as a miss in bounded time.
func TestPeerTimeoutFailsOpen(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	defer ts.Close()
	p := NewPeer([]string{ts.URL})
	p.Timeout = 30 * time.Millisecond
	start := time.Now()
	if _, ok := p.Get("k"); ok {
		t.Fatal("hung peer: a hit, want a clean miss")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("probe took %v, timeout did not bound it", d)
	}
}

// TestPeerDownFailsOpen probes a peer whose socket is closed (connection
// refused): a clean miss, no error.
func TestPeerDownFailsOpen(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close() // dead on arrival
	p := NewPeer([]string{ts.URL})
	if _, ok := p.Get("k"); ok {
		t.Fatal("dead peer: a hit, want a clean miss")
	}
}

// TestPeerNoPeersNoProbe checks an empty peer list never counts a probe.
func TestPeerNoPeersNoProbe(t *testing.T) {
	p := NewPeer(nil)
	var counted atomic.Int64
	p.Counter = func(string) { counted.Add(1) }
	if _, ok := p.Get("k"); ok {
		t.Fatal("a hit with no peers configured")
	}
	if counted.Load() != 0 {
		t.Fatal("probe counted with no peers configured")
	}
}

// TestNewDiskSweepsOrphanTmp pre-seeds the cache directory with a stale
// crash orphan and a fresh concurrent-writer temp file: NewDisk must
// remove the orphan and leave the live write alone (and leave real
// entries untouched).
func TestNewDiskSweepsOrphanTmp(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("feed", out(1.5)); err != nil {
		t.Fatal(err)
	}

	orphan := filepath.Join(dir, "put-12345.tmp")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-2 * orphanTmpAge)
	if err := os.Chtimes(orphan, stale, stale); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "put-67890.tmp")
	if err := os.WriteFile(fresh, []byte("mid-flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := NewDisk(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("stale orphan temp file survived the sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file was clobbered: %v", err)
	}
	if _, ok, err := d.Get("feed"); !ok || err != nil {
		t.Fatalf("real entry lost across reopen: ok=%v err=%v", ok, err)
	}
}

// TestPeerMissReusesConnection probes a peer that answers every key with a
// JSON error body, the way plserved answers a miss, and counts the
// connections it accepts: a miss must leave its connection reusable, so
// sixteen probes through one Peer open one.
func TestPeerMissReusesConnection(t *testing.T) {
	for _, code := range []int{http.StatusNotFound, http.StatusInternalServerError} {
		t.Run(http.StatusText(code), func(t *testing.T) {
			var opened atomic.Int64
			ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(code)
				fmt.Fprintf(w, "{\"error\":\"service: no cached result for %q\"}\n", r.URL.Path)
			}))
			ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
				if st == http.StateNew {
					opened.Add(1)
				}
			}
			ts.Start()
			defer ts.Close()
			transport := &http.Transport{}
			defer transport.CloseIdleConnections()
			p := NewPeer([]string{ts.URL})
			p.HTTP = &http.Client{Transport: transport}
			for i := 0; i < 16; i++ {
				if _, ok := p.Get(fmt.Sprintf("k%d", i)); ok {
					t.Fatalf("probe %d: a hit, want a clean miss", i)
				}
			}
			if n := opened.Load(); n != 1 {
				t.Fatalf("16 miss probes opened %d connections, want 1", n)
			}
		})
	}
}
