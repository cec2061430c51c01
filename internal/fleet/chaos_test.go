package fleet

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"pinnedloads/internal/vclock"
)

// ChaosOptions configures the fault-injection transport. Probabilities
// are per request and drawn from one seeded RNG, so a given seed yields
// one reproducible fault sequence; delays run on the injected clock, so
// tests advance them manually instead of sleeping.
type ChaosOptions struct {
	// Seed drives the fault RNG (0 means 1 — chaos is always seeded).
	Seed int64
	// Clock times injected delays (default: wall clock).
	Clock vclock.Clock
	// Transport is the real transport beneath the chaos (default
	// http.DefaultTransport).
	Transport http.RoundTripper
	// DropProb is the probability a request vanishes: the caller sees a
	// transport error, the backend never sees the request.
	DropProb float64
	// ErrProb is the probability of a synthetic 502 response.
	ErrProb float64
	// DelayProb and Delay inject latency before forwarding.
	DelayProb float64
	Delay     time.Duration
	// KillAfter schedules backend deaths: once host (the URL's host:port)
	// has seen N requests arrive, every later request to it fails like a
	// connection refusal — the SIGKILL analog for in-process tests.
	KillAfter map[string]int
}

// ChaosTransport is an http.RoundTripper that injects deterministic
// faults between a fleet client and its backends. The fleet e2e tests
// and the fault-injection CI drive their failure schedules through it.
type ChaosTransport struct {
	opt  ChaosOptions
	next http.RoundTripper
	clk  vclock.Clock

	mu     sync.Mutex
	rng    *rand.Rand
	seen   map[string]int // requests per host, including faulted ones
	dead   map[string]bool
	faults map[string]int // injected fault counts by kind, for assertions
}

// NewChaosTransport builds the transport.
func NewChaosTransport(opt ChaosOptions) *ChaosTransport {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	clk := opt.Clock
	if clk == nil {
		clk = vclock.Real{}
	}
	next := opt.Transport
	if next == nil {
		next = http.DefaultTransport
	}
	return &ChaosTransport{
		opt:    opt,
		next:   next,
		clk:    clk,
		rng:    rand.New(rand.NewSource(opt.Seed)),
		seen:   make(map[string]int),
		dead:   make(map[string]bool),
		faults: make(map[string]int),
	}
}

// chaosError is the transport-level failure chaos injects; it satisfies
// the net-error shape closely enough for the client, which treats every
// RoundTrip error as transient.
type chaosError struct{ msg string }

func (e *chaosError) Error() string { return e.msg }

// RoundTrip applies the kill schedule and the probabilistic faults, then
// forwards to the real transport.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.mu.Lock()
	t.seen[host]++
	if n, ok := t.opt.KillAfter[host]; ok && t.seen[host] > n {
		t.dead[host] = true
	}
	if t.dead[host] {
		t.faults["killed"]++
		t.mu.Unlock()
		return nil, &chaosError{fmt.Sprintf("chaos: connect %s: connection refused (killed)", host)}
	}
	drop := t.opt.DropProb > 0 && t.rng.Float64() < t.opt.DropProb
	synthErr := !drop && t.opt.ErrProb > 0 && t.rng.Float64() < t.opt.ErrProb
	delay := t.opt.DelayProb > 0 && t.rng.Float64() < t.opt.DelayProb
	switch {
	case drop:
		t.faults["dropped"]++
	case synthErr:
		t.faults["errored"]++
	case delay:
		t.faults["delayed"]++
	}
	t.mu.Unlock()

	if delay && t.opt.Delay > 0 {
		select {
		case <-t.clk.After(t.opt.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if drop {
		return nil, &chaosError{fmt.Sprintf("chaos: %s %s dropped", req.Method, req.URL)}
	}
	if synthErr {
		body := `{"error":"chaos: injected upstream failure"}`
		return &http.Response{
			StatusCode: http.StatusBadGateway,
			Status:     "502 Bad Gateway",
			Proto:      req.Proto,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(bytes.NewReader([]byte(body))),
			Request:    req,
		}, nil
	}
	return t.next.RoundTrip(req)
}

// Kill marks a backend dead immediately, independent of the schedule —
// the mid-sweep SIGKILL used by the failover tests.
func (t *ChaosTransport) Kill(host string) {
	t.mu.Lock()
	t.dead[host] = true
	t.mu.Unlock()
}

// Revive brings a killed backend back.
func (t *ChaosTransport) Revive(host string) {
	t.mu.Lock()
	delete(t.dead, host)
	t.mu.Unlock()
}

// Requests returns how many requests have targeted host (faulted ones
// included).
func (t *ChaosTransport) Requests(host string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seen[host]
}

// Faults returns the injected-fault counts by kind (dropped, errored,
// delayed, killed).
func (t *ChaosTransport) Faults() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.faults))
	for k, v := range t.faults {
		out[k] = v
	}
	return out
}
