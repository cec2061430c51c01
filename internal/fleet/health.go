package fleet

import (
	"context"
	"sync"
	"time"

	"pinnedloads/internal/service/client"
)

// backend is one plserved instance plus the fleet's local view of it:
// routing health with exponential probe backoff.
//
// Health transitions are driven by traffic, not a background goroutine:
// a transport-level failure marks the backend down and schedules the
// next allowed contact at now+backoff; once that deadline passes the
// backend is half-open — exactly one job (or explicit probe) may try it,
// re-opening it on success and doubling the backoff on failure. Keeping
// the state machine synchronous makes it fully deterministic under the
// injected clock.
type backend struct {
	addr string
	c    *client.Client

	mu        sync.Mutex
	healthy   bool
	backoff   time.Duration // next down-interval; doubles per failed probe
	nextProbe time.Time     // when a down backend may be tried again
	trialing  bool          // a half-open trial is in flight
	lastErr   string        // most recent failure, for status output
}

// usable reports whether the router may send a job to this backend now.
// A healthy backend always is; a down backend is usable only as the
// single half-open trial once its backoff has elapsed. The second return
// says this attempt is that trial.
func (b *backend) usable(now time.Time) (ok, trial bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.healthy {
		return true, false
	}
	if !b.trialing && !now.Before(b.nextProbe) {
		b.trialing = true
		return true, true
	}
	return false, false
}

// markDown records a transport-level failure: the backend leaves the
// rotation for probeBackoff, doubling per consecutive failure up to
// probeBackoffMax.
func (b *backend) markDown(now time.Time, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.healthy || b.backoff == 0 {
		b.backoff = probeBackoff
	} else {
		b.backoff = min(2*b.backoff, probeBackoffMax)
	}
	b.healthy = false
	b.trialing = false
	b.nextProbe = now.Add(b.backoff)
	if err != nil {
		b.lastErr = err.Error()
	}
}

// markUp re-opens the backend after a successful contact and resets its
// backoff.
func (b *backend) markUp() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.healthy = true
	b.trialing = false
	b.backoff = 0
	b.lastErr = ""
}

// endTrial clears the half-open gate without a verdict (the trial was
// abandoned, e.g. its context was canceled before the request went out).
func (b *backend) endTrial() {
	b.mu.Lock()
	b.trialing = false
	b.mu.Unlock()
}

// snapshot returns the backend's health fields for status reporting.
func (b *backend) snapshot() (healthy bool, lastErr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy, b.lastErr
}

// probe contacts /healthz and feeds the verdict into the health state.
// An up, non-draining answer re-opens the backend; anything else marks
// it down (or doubles the backoff of an already-down one).
func (f *Fleet) probe(ctx context.Context, b *backend) (client.Health, error) {
	h, err := b.c.Healthz(ctx)
	if err != nil {
		b.markDown(f.clock.Now(), err)
		return h, err
	}
	b.markUp()
	return h, nil
}
