package simcache

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"pinnedloads/internal/simrun"
)

// Peer probes sibling daemons' result caches: a Get asks each peer's GET
// /v1/cache/{key} endpoint until one serves the checksummed envelope for
// the key. The service asks it after a miss in its own tiers, which turns
// a result any backend in the fleet has already computed into a network
// hit instead of a recompute — fleet-wide exactly-once execution on top of
// the per-daemon caches. It is a prober, not a Cache: peers fill their own
// caches by computing or by keeping a peer hit, never by remote writes.
//
// Peer fails open by design: a Get is a hit or a miss, never an error. A
// peer that is down, slow past Timeout, answering with a non-200 status,
// or serving a corrupt, truncated or oversized envelope is simply a miss
// for that probe (counted in peer_errors), and the caller falls back to
// the next peer and finally to local compute. A corrupt response is
// detected by the envelope checksum before it can reach the caller: Peer
// only reports a hit for an envelope that verified.
type Peer struct {
	peers []string

	// Timeout bounds each individual peer probe (default 500ms). Short on
	// purpose: a probe is an optimization, and the fallback — computing
	// locally — is always available.
	Timeout time.Duration
	// Rank orders the peers to probe for a key, owner-first when built
	// from the fleet's consistent-hash ring (default: configured order).
	// Addresses it returns that are not configured peers are probed as
	// given; an empty result means nothing is probed.
	Rank func(key string) []string
	// Counter, when set, receives one call per counted event:
	// "peer_probes" (probe rounds), "peer_hits" (rounds that found the
	// key), "peer_errors" (individual probes that failed or served a
	// rejected payload).
	Counter func(name string)
	// HTTP overrides the probe transport (default http.DefaultClient);
	// tests inject fault- and payload-shaping round-trippers here.
	HTTP *http.Client
	// MaxBytes caps an accepted peer response (default 64 MiB); anything
	// larger is rejected as an error-miss before being decoded.
	MaxBytes int64

	mu      sync.Mutex
	flights map[string]*peerFlight
}

// peerFlight deduplicates concurrent probes of one key: followers wait on
// done and share the leader's verdict instead of issuing their own probe
// round.
type peerFlight struct {
	done chan struct{}
	out  *simrun.Output
	ok   bool
}

// defaultPeerMaxBytes bounds a peer response: generously above any real
// envelope (a traced sweep result is a few MB), small enough that a
// misbehaving peer cannot balloon the prober's memory.
const defaultPeerMaxBytes = 64 << 20

// drainBytes bounds how much of a non-200 reply is read before closing it:
// a peer's JSON error body fits many times over.
const drainBytes = 4 << 10

// NewPeer returns a peer probe backend over the given sibling base URLs
// (e.g. "http://10.0.0.2:8321"). The caller must exclude its own address.
func NewPeer(peers []string) *Peer {
	clean := make([]string, 0, len(peers))
	for _, p := range peers {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			clean = append(clean, p)
		}
	}
	return &Peer{peers: clean, flights: make(map[string]*peerFlight)}
}

// Peers returns the configured peer addresses.
func (p *Peer) Peers() []string { return p.peers }

// Get probes the peers for key. It reports a hit only for a response
// whose envelope checksum verified; every failure mode is a miss.
func (p *Peer) Get(key string) (*simrun.Output, bool) {
	if len(p.peers) == 0 || key == "" {
		return nil, false
	}
	p.mu.Lock()
	if f, ok := p.flights[key]; ok {
		p.mu.Unlock()
		<-f.done
		return f.out, f.ok
	}
	f := &peerFlight{done: make(chan struct{})}
	p.flights[key] = f
	p.mu.Unlock()

	f.out, f.ok = p.probe(key)

	p.mu.Lock()
	delete(p.flights, key)
	p.mu.Unlock()
	close(f.done)
	return f.out, f.ok
}

// probe walks the ranked peers and returns the first verified hit.
func (p *Peer) probe(key string) (*simrun.Output, bool) {
	p.count("peer_probes")
	for _, addr := range p.rank(key) {
		if out, ok := p.fetch(addr, key); ok {
			p.count("peer_hits")
			return out, true
		}
	}
	return nil, false
}

// fetch asks one peer for one key. Any failure — transport, status,
// oversize, checksum — is a miss for this peer; only 404 (a clean "not
// cached here") is a miss without an error count.
func (p *Peer) fetch(addr, key string) (*simrun.Output, bool) {
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = 500 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		addr+"/v1/cache/"+url.PathEscape(key), nil)
	if err != nil {
		p.count("peer_errors")
		return nil, false
	}
	httpc := p.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		p.count("peer_errors")
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Read the short error body to its end so net/http can pool the
		// connection for the next probe; a longer one is not worth it.
		io.Copy(io.Discard, io.LimitReader(resp.Body, drainBytes))
		if resp.StatusCode != http.StatusNotFound {
			p.count("peer_errors")
		}
		return nil, false
	}
	max := p.MaxBytes
	if max <= 0 {
		max = defaultPeerMaxBytes
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, max+1))
	if err != nil || int64(len(data)) > max {
		p.count("peer_errors")
		return nil, false
	}
	out, err := DecodeEnvelope(data)
	if err != nil {
		p.count("peer_errors")
		return nil, false
	}
	return out, true
}

// rank resolves the probe order for a key.
func (p *Peer) rank(key string) []string {
	if p.Rank != nil {
		return p.Rank(key)
	}
	return p.peers
}

// count reports one counted event to the hook, when set.
func (p *Peer) count(name string) {
	if p.Counter != nil {
		p.Counter(name)
	}
}
