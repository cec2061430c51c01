package simcache

import (
	"bytes"
	"io"
	"net/http"
	"testing"
)

// FuzzPeerResponse plants arbitrary bytes (under an arbitrary status
// code) where a peer's /v1/cache response belongs and probes through
// them. The contract: Peer.Get never panics — a malformed response is a
// miss — and only a response whose envelope checksum verifies may be
// reported as a hit, so fuzzed garbage can never reach the local tiers (the
// server keeps only hits).
func FuzzPeerResponse(f *testing.F) {
	valid, err := EncodeEnvelope(out(1.5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(200, valid)
	f.Add(200, valid[:len(valid)/2])
	f.Add(200, []byte(`{}`))
	f.Add(200, []byte(``))
	f.Add(200, []byte(`not json at al`))
	f.Add(200, []byte(`{"version":1,"sha256":"00","result":{"cpi":1}}`))
	f.Add(404, []byte(`{"error":"no cached result"}`))
	f.Add(500, []byte(`boom`))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(200, flipped)

	f.Fuzz(func(t *testing.T, code int, body []byte) {
		if code < 100 || code > 599 {
			code = 200 + (code & 0x7f) // keep net/http from rejecting the response
		}
		p := NewPeer([]string{"http://fuzz-peer"})
		p.HTTP = &http.Client{Transport: rtFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{
				StatusCode:    code,
				Body:          io.NopCloser(bytes.NewReader(body)),
				ContentLength: int64(len(body)),
				Header:        make(http.Header),
			}, nil
		})}
		o, ok := p.Get("fuzzkey")
		if ok && o == nil {
			t.Fatal("hit with nil output")
		}
		if !ok && o != nil {
			t.Fatal("miss returned an output")
		}
		if ok {
			// A hit must round-trip: whatever was accepted re-encodes.
			if _, err := EncodeEnvelope(o); err != nil {
				t.Fatalf("accepted hit does not re-encode: %v", err)
			}
		}
	})
}
