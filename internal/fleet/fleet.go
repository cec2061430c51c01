// Package fleet federates simulation jobs over several plserved
// backends from the client side: no coordinator, no shared state. Jobs
// are content-addressed, submission is idempotent and results are
// deterministic, so a job's SpecKey is its shard key and any backend's
// answer is every backend's answer. Run walks the key's consistent-hash
// ring order and hands the job to the first backend that is healthy (or
// owed its half-open trial) through that backend's client.Run; a backend
// that does not answer leaves the rotation with exponential backoff and
// the job moves on to the next one — at-least-once dispatch, exactly-once
// results. Overload is the server's to signal (429): the walk is the spill.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"pinnedloads/internal/service"
	"pinnedloads/internal/service/client"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/vclock"
)

// Options configures a Fleet. Only Backends is required.
type Options struct {
	// Backends are the plserved base URLs, e.g.
	// ["http://10.0.0.1:8321", "http://10.0.0.2:8321"].
	Backends []string
	// Clock injects time for every wait (default: wall clock).
	Clock vclock.Clock
	// Transport overrides the backends' HTTP transport — the seam the
	// chaos tests inject faults through.
	Transport http.RoundTripper
}

const (
	// clientRetries and clientBackoff tune each backend client's own retry
	// loop: the fleet prefers moving on to a sibling over retrying a sick
	// backend for long.
	clientRetries = 1
	clientBackoff = 100 * time.Millisecond
	// probeBackoff is how long a freshly failed backend stays out of
	// rotation; it doubles per consecutive failure up to probeBackoffMax.
	probeBackoff    = 500 * time.Millisecond
	probeBackoffMax = 30 * time.Second
	// attemptsPerBackend bounds the dispatches of one job, summed over
	// failovers, at this many per configured backend.
	attemptsPerBackend = 3
	// idleWait is how long Run sleeps when no backend is usable and none
	// names a later probe time (their trials are other jobs' to finish).
	idleWait = 25 * time.Millisecond
)

// ErrNoBackends is returned when every backend is down and backed off.
var ErrNoBackends = errors.New("fleet: no usable backend")

// Fleet routes jobs across backends. Safe for concurrent use; the
// experiment runner calls Run from its whole worker pool.
type Fleet struct {
	addrs    []string
	backends []*backend
	ring     *ring
	clock    vclock.Clock

	cmu      sync.Mutex
	counters stats.Counters
}

// New validates the options and builds the fleet.
func New(opt Options) (*Fleet, error) {
	if len(opt.Backends) == 0 {
		return nil, fmt.Errorf("fleet: at least one backend is required")
	}
	seen := make(map[string]bool)
	addrs := make([]string, 0, len(opt.Backends))
	for _, a := range opt.Backends {
		a = strings.TrimRight(strings.TrimSpace(a), "/")
		if a == "" {
			return nil, fmt.Errorf("fleet: empty backend address")
		}
		if seen[a] {
			return nil, fmt.Errorf("fleet: duplicate backend %s", a)
		}
		seen[a] = true
		addrs = append(addrs, a)
	}
	clk := opt.Clock
	if clk == nil {
		clk = vclock.Real{}
	}
	f := &Fleet{addrs: addrs, clock: clk, ring: newRing(addrs, 0)}
	for _, a := range addrs {
		c := client.New(a)
		c.Retries = clientRetries
		c.Backoff = clientBackoff
		c.Clock = clk
		if opt.Transport != nil {
			c.HTTP = &http.Client{Transport: opt.Transport}
		}
		f.backends = append(f.backends, &backend{addr: a, c: c, healthy: true})
	}
	return f, nil
}

// ParseBackends splits a comma-separated backend list — the form
// `plbench -server` and `plctl -server` accept.
func ParseBackends(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Addrs returns the backend addresses in configuration order.
func (f *Fleet) Addrs() []string { return f.addrs }

// count bumps a local fleet counter.
func (f *Fleet) count(name string) {
	f.cmu.Lock()
	f.counters.Inc(name)
	f.cmu.Unlock()
}

// Run executes one job against the fleet and satisfies
// experiments.RemoteRunner: it walks the key's ring order, runs the job on
// the first usable backend and moves on past one that fails. A backend
// that restarted and lost the job mid-wait is resubmitted to, not walked
// past (it answered). Deterministic failures — a bad spec, a simulation
// error — are returned immediately, because they would fail identically
// everywhere; so is the caller's own cancellation, which says nothing
// about the backend.
//
// The backend is sent the spec as the caller wrote it: it normalizes what
// it receives, so the normalized copy here only names the job to route it.
func (f *Fleet) Run(ctx context.Context, spec service.JobSpec) (*simrun.Output, error) {
	ns := spec
	if err := ns.Normalize(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	key := ns.Key()
	f.count("fleet.jobs")

	order := f.ring.candidates(key)
	attempts := attemptsPerBackend * len(f.backends)
	lastErr := ErrNoBackends
	for attempt, from := 0, 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		at, b := f.pick(order, from)
		if b == nil {
			// Everything is down and backed off; sleep until the earliest
			// backend may be probed again.
			select {
			case <-f.clock.After(f.probeDelay()):
			case <-ctx.Done():
			}
			continue
		}
		f.count("fleet.submits")
		out, err := b.c.Run(ctx, spec)
		if err != nil && ctx.Err() != nil {
			b.endTrial()
			return nil, fmt.Errorf("fleet: %w", ctx.Err())
		}
		var lost *client.JobLostError
		switch {
		case err == nil:
			b.markUp()
			f.count("fleet.done")
			return out, nil
		case permanent(err):
			b.markUp()
			f.count("fleet.failed")
			return nil, fmt.Errorf("fleet: %w", err)
		case errors.As(err, &lost):
			// The backend answered, so it is up: resubmit to it.
			b.markUp()
			f.count("fleet.resubmits")
			from = at
		default:
			f.noteFailure(b, err)
			f.count("fleet.failovers")
			from = at + 1
		}
		lastErr = err
	}
	f.count("fleet.failed")
	return nil, fmt.Errorf("fleet: job %s: gave up after %d attempts: %w",
		shortKey(key), attempts, lastErr)
}

// permanent reports whether an error would recur on any backend: failed
// jobs (deterministic simulation errors) and non-backpressure 4xx
// responses. Everything else — transport faults, 5xx, 429 — is worth a
// failover.
func permanent(err error) bool {
	var jerr *client.JobError
	if errors.As(err, &jerr) {
		return true
	}
	var serr *client.StatusError
	if errors.As(err, &serr) {
		return serr.Code < 500 && serr.Code != http.StatusTooManyRequests
	}
	return false
}

// pick returns the first usable backend at or after position from of the
// key's ring order, wrapping around, and its position. A half-open trial
// slot counts as usable — that is how a dead backend gets re-probed
// without a background prober. Nil when nothing is usable.
func (f *Fleet) pick(order []int, from int) (int, *backend) {
	now := f.clock.Now()
	for i := range order {
		at := (from + i) % len(order)
		b := f.backends[order[at]]
		if ok, trial := b.usable(now); ok {
			if trial {
				f.count("fleet.trials")
			}
			return at, b
		}
	}
	return 0, nil
}

// probeDelay is how long Run sleeps when no backend is usable: the time
// until the earliest down backend's probe window opens.
func (f *Fleet) probeDelay() time.Duration {
	now := f.clock.Now()
	best := idleWait
	found := false
	for _, b := range f.backends {
		b.mu.Lock()
		if !b.healthy && !b.trialing {
			if r := b.nextProbe.Sub(now); r > 0 && (!found || r < best) {
				best, found = r, true
			}
		}
		b.mu.Unlock()
	}
	return best
}

// noteFailure feeds a non-permanent error into the backend's health
// state. Transport faults and 5xx mark it down; backpressure does not (a
// full queue is busy, not dead).
func (f *Fleet) noteFailure(b *backend, err error) {
	var serr *client.StatusError
	if errors.As(err, &serr) && serr.Code < 500 {
		b.endTrial()
		return
	}
	f.count("fleet.down_marks")
	b.markDown(f.clock.Now(), err)
}

// shortKey abbreviates a job ID for error messages.
func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

// BackendStatus is one backend's row in the fleet status report.
type BackendStatus struct {
	Addr    string        `json:"addr"`
	Healthy bool          `json:"healthy"`   // the fleet's local routing view
	Reach   bool          `json:"reachable"` // this probe's verdict
	Err     string        `json:"error,omitempty"`
	Health  client.Health `json:"health,omitempty"`
}

// Status probes every backend's /healthz and reports both the live
// verdict and the fleet's routing view.
func (f *Fleet) Status(ctx context.Context) []BackendStatus {
	out := make([]BackendStatus, len(f.backends))
	var wg sync.WaitGroup
	for i, b := range f.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			h, err := f.probe(ctx, b)
			healthy, lastErr := b.snapshot()
			st := BackendStatus{Addr: b.addr, Healthy: healthy, Reach: err == nil, Health: h}
			if err != nil {
				st.Err = err.Error()
			} else if lastErr != "" {
				st.Err = lastErr
			}
			out[i] = st
		}(i, b)
	}
	wg.Wait()
	return out
}

// Metrics is the fleet-wide metrics report: every backend's counters,
// their sum, and the fleet's own local counters.
type Metrics struct {
	// Aggregate[name] is the sum of PerBackend[*][name].
	Aggregate map[string]uint64 `json:"aggregate"`
	// PerBackend[addr][name] is that backend's /metrics counter.
	PerBackend map[string]map[string]uint64 `json:"per_backend"`
	// Fleet holds the local routing counters (fleet.jobs, fleet.submits,
	// fleet.failovers, ...).
	Fleet map[string]uint64 `json:"fleet"`
}

// Metrics fetches and aggregates /metrics from every reachable backend.
// Unreachable backends contribute nothing; their error is joined into
// err, but the report still covers the rest.
func (f *Fleet) Metrics(ctx context.Context) (Metrics, error) {
	m := Metrics{
		Aggregate:  make(map[string]uint64),
		PerBackend: make(map[string]map[string]uint64),
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
	)
	for _, b := range f.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			bm, err := b.c.Metrics(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			m.PerBackend[b.addr] = bm
			for name, v := range bm {
				m.Aggregate[name] += v
			}
		}(b)
	}
	wg.Wait()
	f.cmu.Lock()
	m.Fleet = f.counters.Snapshot()
	f.cmu.Unlock()
	return m, errors.Join(errs...)
}

// Drain asks every backend to stop accepting jobs and finish queued
// work; errors are joined but do not stop the remaining drains.
func (f *Fleet) Drain(ctx context.Context) error {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
	)
	for _, b := range f.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			if err := b.c.Drain(ctx); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}(b)
	}
	wg.Wait()
	return errors.Join(errs...)
}
