package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pinnedloads/internal/service"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/vclock"
)

// fastClient tunes the real-service tests' retry backoff low; retry/backoff
// tests use fakeClient instead so they never sleep wall-clock time.
func fastClient(base string) *Client {
	c := New(base)
	c.Backoff = time.Millisecond
	return c
}

// fakeClient pairs a client with a manually advanced clock; every
// backoff and floor wait blocks until the test advances it.
func fakeClient(base string) (*Client, *vclock.Fake) {
	clk := vclock.NewFake(time.Time{})
	c := New(base)
	c.Clock = clk
	return c, clk
}

// advanceNext waits for the client to arm its next timer and fires it,
// returning the duration the client asked to wait.
func advanceNext(t *testing.T, clk *vclock.Fake) time.Duration {
	t.Helper()
	clk.BlockUntil(1)
	d := clk.Deadlines()[0]
	clk.Advance(d)
	return d
}

// TestRunAgainstRealService drives the full SDK round trip against an
// in-process service instance.
func TestRunAgainstRealService(t *testing.T) {
	s := service.New(service.Options{Workers: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	c := fastClient(ts.URL)
	ctx := context.Background()
	spec := service.JobSpec{Benchmark: "gcc_r", Scheme: "fence", Variant: "ep",
		Warmup: 500, Measure: 2000}
	out, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.CPI <= 0 || out.Insts != 2000 {
		t.Fatalf("implausible result %+v", out)
	}
	// The resubmit is served from cache/dedup; metrics confirm a single
	// execution.
	if _, err := c.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["svc.executed"] != 1 {
		t.Fatalf("svc.executed = %d, want 1", m["svc.executed"])
	}
}

// countingTransport counts the requests a client sends.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestRunIsOneRequest checks a cold Run submits and waits in one request
// (the server holds the submit until the job is done), and a hit too.
func TestRunIsOneRequest(t *testing.T) {
	s := service.New(service.Options{Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	rt := &countingTransport{}
	c := fastClient(ts.URL)
	c.HTTP = &http.Client{Transport: rt}
	spec := service.JobSpec{Benchmark: "gcc_r", Scheme: "fence", Variant: "ep",
		Warmup: 500, Measure: 2000}
	for _, name := range []string{"cold", "hit"} {
		before := rt.n.Load()
		out, err := c.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if out.Insts != 2000 {
			t.Fatalf("%s: implausible result %+v", name, out)
		}
		if n := rt.n.Load() - before; n != 1 {
			t.Errorf("%s Run sent %d requests, want 1", name, n)
		}
	}
}

// TestRetryOn429HonorsRetryAfter serves two 429s with a 3-second
// Retry-After and then succeeds. The fake clock proves the client waits
// exactly the hinted duration — not less, not its own backoff — without
// the test sleeping any real time.
func TestRetryOn429HonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		json.NewEncoder(w).Encode(service.JobStatus{ID: "abc", State: service.StateQueued})
	}))
	defer fake.Close()
	c, clk := fakeClient(fake.URL)

	type result struct {
		st  service.JobStatus
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := c.Submit(context.Background(), service.JobSpec{Benchmark: "gcc_r"})
		done <- result{st, err}
	}()

	// First 429: the client must arm a 3s wait (Retry-After overrides the
	// default 250ms backoff) and stay parked until it fully elapses.
	clk.BlockUntil(1)
	if d := clk.Deadlines()[0]; d != 3*time.Second {
		t.Fatalf("first retry wait = %v, want 3s from Retry-After", d)
	}
	clk.Advance(2 * time.Second)
	if hits.Load() != 1 {
		t.Fatalf("client retried after only 2s of a 3s Retry-After (hits=%d)", hits.Load())
	}
	clk.Advance(time.Second)

	// Second 429, same hint.
	clk.BlockUntil(1)
	if d := clk.Deadlines()[0]; d != 3*time.Second {
		t.Fatalf("second retry wait = %v, want 3s", d)
	}
	clk.Advance(3 * time.Second)

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.st.ID != "abc" || hits.Load() != 3 {
		t.Fatalf("st=%+v hits=%d, want success on 3rd attempt", res.st, hits.Load())
	}
}

// TestRetryBackoffDoubles checks the 5xx backoff schedule doubles per
// attempt, asserting each armed wait on the fake clock.
func TestRetryBackoffDoubles(t *testing.T) {
	var hits atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer fake.Close()
	c, clk := fakeClient(fake.URL)
	c.Backoff = 100 * time.Millisecond
	c.Retries = 3

	done := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), "abc")
		done <- err
	}()
	for i, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
	} {
		if got := advanceNext(t, clk); got != want {
			t.Fatalf("wait %d = %v, want %v", i, got, want)
		}
	}
	err := <-done
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Code != http.StatusInternalServerError {
		t.Fatalf("err = %v, want StatusError 500", err)
	}
	if hits.Load() != 4 {
		t.Fatalf("hits = %d, want 1 try + 3 retries", hits.Load())
	}
}

// TestRetryOn5xxAndGiveUp checks transient 5xx retries and that the
// retry budget is finite.
func TestRetryOn5xxAndGiveUp(t *testing.T) {
	var hits atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer fake.Close()
	c, clk := fakeClient(fake.URL)
	c.Retries = 2

	done := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), "abc")
		done <- err
	}()
	advanceNext(t, clk)
	advanceNext(t, clk)
	err := <-done
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Code != http.StatusInternalServerError {
		t.Fatalf("err = %v, want StatusError 500", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("hits = %d, want 1 try + 2 retries", hits.Load())
	}
}

// TestNoRetryOn4xx checks a permanent client error is not retried.
func TestNoRetryOn4xx(t *testing.T) {
	var hits atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown job"})
	}))
	defer fake.Close()
	c, _ := fakeClient(fake.URL)
	_, err := c.Get(context.Background(), "missing")
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Code != http.StatusNotFound {
		t.Fatalf("err = %v, want StatusError 404", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d, want exactly 1 (no retry)", hits.Load())
	}
}

// TestWaitFloorPacesServerIgnoringWait points Wait at a server that
// answers every status read at once, as one that predates ?wait= would:
// every read carries the parameter, and two non-terminal replies are never
// closer than the floor.
func TestWaitFloorPacesServerIgnoringWait(t *testing.T) {
	var gets atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("wait"); got != service.MaxWait.String() {
			t.Errorf("status read carried wait=%q, want %s", got, service.MaxWait)
		}
		st := service.JobStatus{ID: "abc", State: service.StateRunning}
		if gets.Add(1) >= 4 {
			st.State = service.StateDone
		}
		json.NewEncoder(w).Encode(st)
	}))
	defer fake.Close()
	c, clk := fakeClient(fake.URL)

	done := make(chan error, 1)
	go func() {
		_, err := c.Wait(context.Background(), "abc")
		done <- err
	}()
	for i := 1; i <= 3; i++ {
		clk.BlockUntil(1)
		if got := gets.Load(); got != int64(i) {
			t.Fatalf("%d reads before floor wait %d, want %d", got, i, i)
		}
		clk.Advance(waitFloor - time.Nanosecond)
		if got := gets.Load(); got != int64(i) {
			t.Fatalf("read %d went out before the floor elapsed", got)
		}
		clk.Advance(time.Nanosecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if gets.Load() != 4 {
		t.Fatalf("gets = %d, want 4", gets.Load())
	}
}

// TestErrorsCarryBackendAddress asserts every error path names the
// backend that produced it, so multi-backend failures are attributable,
// while the typed cause stays reachable through errors.As.
func TestErrorsCarryBackendAddress(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown job"})
	}))
	defer fake.Close()
	c, _ := fakeClient(fake.URL)
	_, err := c.Get(context.Background(), "missing")
	if err == nil || !strings.Contains(err.Error(), fake.URL) {
		t.Fatalf("error %q does not name the backend %s", err, fake.URL)
	}
	var serr *StatusError
	if !errors.As(err, &serr) {
		t.Fatalf("wrapped error %v lost its StatusError cause", err)
	}

	// Transport-level failure (nothing listening) must also name the
	// address the client dialed.
	dead := httptest.NewServer(http.HandlerFunc(nil))
	deadURL := dead.URL
	dead.Close()
	c2, _ := fakeClient(deadURL)
	c2.Retries = 0
	if _, err := c2.Get(context.Background(), "x"); err == nil ||
		!strings.Contains(err.Error(), deadURL) {
		t.Fatalf("transport error %q does not name the backend %s", err, deadURL)
	}
}

// TestRunReportsJobFailure turns a failed job into a typed JobError that
// names the backend and is distinguishable from transport failures.
func TestRunReportsJobFailure(t *testing.T) {
	s := service.New(service.Options{Workers: 1, JobTimeout: 30 * time.Millisecond})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	c := fastClient(ts.URL)
	_, err := c.Run(context.Background(), service.JobSpec{
		Benchmark: "gcc_r", Measure: 1 << 40})
	var jerr *JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %v, want JobError", err)
	}
	if jerr.Backend != ts.URL || !strings.Contains(err.Error(), ts.URL) {
		t.Fatalf("JobError %+v does not attribute the backend %s", jerr, ts.URL)
	}
}

// TestRunFollowsQueuedSubmit covers a submit that answers before the job
// is terminal: Run follows it with Wait and reports what the status read
// found — the result of a done job, the message of a failed one.
func TestRunFollowsQueuedSubmit(t *testing.T) {
	for _, final := range []service.JobStatus{
		{ID: "abc", State: service.StateDone, Result: &simrun.Output{CPI: 3, Insts: 1000}},
		{ID: "abc", State: service.StateFailed, Error: "boom"},
	} {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(service.JobStatus{ID: "abc", State: service.StateQueued})
		})
		mux.HandleFunc("GET /v1/jobs/abc", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(final)
		})
		fake := httptest.NewServer(mux)
		out, err := fastClient(fake.URL).Run(context.Background(), service.JobSpec{Benchmark: "gcc_r"})
		fake.Close()
		var jerr *JobError
		switch {
		case final.State == service.StateDone && (err != nil || out == nil || out.CPI != 3 || out.Insts != 1000):
			t.Errorf("done after a queued submit: Run = %+v, %v", out, err)
		case final.State == service.StateFailed && (!errors.As(err, &jerr) || jerr.ID != "abc" || jerr.Message != "boom"):
			t.Errorf("failed after a queued submit: Run err = %v, want a JobError for abc saying boom", err)
		}
	}
}

// TestWaitJobLost simulates a backend restart mid-wait: the job polls as
// running, then the restarted registry answers 404. Wait must return the
// typed JobLostError immediately instead of polling forever.
func TestWaitJobLost(t *testing.T) {
	var gets atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if gets.Add(1) <= 2 {
			json.NewEncoder(w).Encode(service.JobStatus{ID: "abc", State: service.StateRunning})
			return
		}
		// The "restarted" backend has an empty registry.
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown job"})
	}))
	defer fake.Close()
	c, clk := fakeClient(fake.URL)

	done := make(chan error, 1)
	go func() {
		_, err := c.Wait(context.Background(), "abc")
		done <- err
	}()
	advanceNext(t, clk) // after poll 1 (running)
	advanceNext(t, clk) // after poll 2 (running); poll 3 gets the 404

	err := <-done
	var lost *JobLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want JobLostError", err)
	}
	if lost.ID != "abc" || lost.Backend != fake.URL {
		t.Fatalf("JobLostError = %+v, want ID abc on %s", lost, fake.URL)
	}
	if !strings.Contains(err.Error(), "resubmit") {
		t.Fatalf("error %q does not tell the user to resubmit", err)
	}
	if gets.Load() != 3 {
		t.Fatalf("gets = %d, want exactly 3 (no polling after the loss)", gets.Load())
	}
}

// TestCacheProbe exercises the cache probe against a real service: HEAD
// reports hit + encoded size without a transfer, and a clean miss for an
// unknown key.
func TestCacheProbe(t *testing.T) {
	s := service.New(service.Options{Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	c := fastClient(ts.URL)
	ctx := context.Background()
	spec := service.JobSpec{Benchmark: "gcc_r", Scheme: "fence", Variant: "ep",
		Warmup: 200, Measure: 1000}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	hit, size, err := c.CacheProbe(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || size <= 0 {
		t.Fatalf("probe of a cached key: hit=%v size=%d", hit, size)
	}

	if hit, _, err := c.CacheProbe(ctx, "nosuchkey"); err != nil || hit {
		t.Fatalf("probe of an unknown key: hit=%v err=%v", hit, err)
	}
}
