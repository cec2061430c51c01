package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pinnedloads/internal/service"
	"pinnedloads/internal/service/client"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/vclock"
)

// fakeBackend is an httptest stand-in for plserved that answers every
// submit with an immediately done job, so fleet unit tests run fully
// synchronously (no polling, no timers) unless they arrange otherwise.
type fakeBackend struct {
	ts      *httptest.Server
	submits atomic.Int64
	gets    atomic.Int64
}

func newFakeBackend(t *testing.T, cpi float64) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		fb.submits.Add(1)
		json.NewEncoder(w).Encode(service.JobStatus{
			ID: "job", State: service.StateDone,
			Result: &simrun.Output{CPI: cpi, Insts: 1000},
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fb.gets.Add(1)
		json.NewEncoder(w).Encode(service.JobStatus{
			ID: r.PathValue("id"), State: service.StateDone,
			Result: &simrun.Output{CPI: cpi, Insts: 1000},
		})
	})
	fb.ts = httptest.NewServer(mux)
	t.Cleanup(fb.ts.Close)
	return fb
}

func (fb *fakeBackend) host(t *testing.T) string {
	t.Helper()
	u, err := url.Parse(fb.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// newTestFleet builds a fleet over the fakes with no client retries (the
// fleet's own failover is under test) and a fake clock.
func newTestFleet(t *testing.T, chaos *ChaosTransport, fbs ...*fakeBackend) (*Fleet, *vclock.Fake) {
	t.Helper()
	clk := vclock.NewFake(time.Time{})
	addrs := make([]string, len(fbs))
	for i, fb := range fbs {
		addrs[i] = fb.ts.URL
	}
	opt := Options{Backends: addrs, Clock: clk}
	if chaos != nil {
		opt.Transport = chaos
	}
	f, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.backends {
		b.c.Retries = 0 // fail over, don't retry in place
	}
	return f, clk
}

func testSpec(bench string) service.JobSpec {
	return service.JobSpec{Benchmark: bench, Warmup: 100, Measure: 500}
}

// primaryFor returns the index (into the fleet's backend list) owning
// the spec's key.
func primaryFor(t *testing.T, f *Fleet, spec service.JobSpec) int {
	t.Helper()
	ns := spec
	if err := ns.Normalize(); err != nil {
		t.Fatal(err)
	}
	return f.ring.candidates(ns.Key())[0]
}

// autoAdvance fires every armed fake-clock timer until stopped, so tests
// that only assert outcomes (not wait durations) never block on time.
func autoAdvance(clk *vclock.Fake) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
			}
			if ds := clk.Deadlines(); len(ds) > 0 {
				clk.Advance(ds[len(ds)-1])
			} else {
				runtime.Gosched()
			}
		}
	}()
	return func() { close(done); <-finished }
}

// TestRoutingConsistentByKey checks an identical spec always lands on
// the same backend, and that the sweep spreads across all of them.
func TestRoutingConsistentByKey(t *testing.T) {
	fbs := []*fakeBackend{newFakeBackend(t, 1), newFakeBackend(t, 1), newFakeBackend(t, 1)}
	f, _ := newTestFleet(t, nil, fbs...)
	ctx := context.Background()

	spec := testSpec("gcc_r")
	for i := 0; i < 5; i++ {
		if _, err := f.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	owner := primaryFor(t, f, spec)
	for i, fb := range fbs {
		want := int64(0)
		if i == owner {
			want = 5
		}
		if got := fb.submits.Load(); got != want {
			t.Fatalf("backend %d saw %d submits, want %d (owner=%d)", i, got, want, owner)
		}
	}

	// Distinct benchmarks hash to distinct owners often enough that a
	// 12-spec sweep cannot sit entirely on one backend.
	for _, bench := range []string{"gcc_r", "mcf_r", "xalancbmk_r", "deepsjeng_r",
		"leela_r", "exchange2_r", "x264_r", "perlbench_r", "bwaves_r",
		"xz_r", "ocean_cp", "radix"} {
		if _, err := f.Run(ctx, testSpec(bench)); err != nil {
			t.Fatal(err)
		}
	}
	loaded := 0
	for _, fb := range fbs {
		if fb.submits.Load() > 0 {
			loaded++
		}
	}
	if loaded < 2 {
		t.Fatalf("12-benchmark sweep used %d of 3 backends", loaded)
	}
}

// TestFailoverOnKilledBackend kills the key's owner and checks the job
// completes on a sibling, the owner is marked down, and the failover is
// counted.
func TestFailoverOnKilledBackend(t *testing.T) {
	fbs := []*fakeBackend{newFakeBackend(t, 1), newFakeBackend(t, 1), newFakeBackend(t, 1)}
	chaos := NewChaosTransport(ChaosOptions{Seed: 7})
	f, _ := newTestFleet(t, chaos, fbs...)
	spec := testSpec("gcc_r")
	owner := primaryFor(t, f, spec)
	chaos.Kill(fbs[owner].host(t))

	out, err := f.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.CPI != 1 {
		t.Fatalf("bad result %+v", out)
	}
	if healthy, _ := f.backends[owner].snapshot(); healthy {
		t.Fatal("killed owner still marked healthy")
	}
	if fbs[owner].submits.Load() != 0 {
		t.Fatal("killed owner somehow served a submit")
	}
	f.cmu.Lock()
	failovers := f.counters.Snapshot()["fleet.failovers"]
	f.cmu.Unlock()
	if failovers == 0 {
		t.Fatal("failover not counted")
	}
}

// TestHalfOpenRecovery drives the full health cycle on the fake clock:
// down on failure, out of rotation during backoff, re-probed by a single
// trial job once the backoff elapses, healthy again on success.
func TestHalfOpenRecovery(t *testing.T) {
	fbs := []*fakeBackend{newFakeBackend(t, 1), newFakeBackend(t, 1)}
	chaos := NewChaosTransport(ChaosOptions{Seed: 7})
	f, clk := newTestFleet(t, chaos, fbs...)
	ctx := context.Background()
	spec := testSpec("gcc_r")
	owner := primaryFor(t, f, spec)
	sibling := 1 - owner

	chaos.Kill(fbs[owner].host(t))
	if _, err := f.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if healthy, _ := f.backends[owner].snapshot(); healthy {
		t.Fatal("owner not marked down")
	}

	// Still inside the backoff window: the owner must not be contacted.
	before := chaos.Requests(fbs[owner].host(t))
	if _, err := f.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if got := chaos.Requests(fbs[owner].host(t)); got != before {
		t.Fatalf("down backend contacted during backoff (%d -> %d requests)", before, got)
	}

	// Revive the process and let the backoff elapse: the next job for its
	// keys is the half-open trial and re-admits it.
	chaos.Revive(fbs[owner].host(t))
	clk.Advance(probeBackoff)
	if _, err := f.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if healthy, _ := f.backends[owner].snapshot(); !healthy {
		t.Fatal("recovered backend not re-admitted after trial success")
	}
	if fbs[owner].submits.Load() == 0 {
		t.Fatal("trial did not reach the recovered backend")
	}
	if sib := fbs[sibling].submits.Load(); sib != 2 {
		t.Fatalf("sibling served %d submits, want 2 (the two failover runs)", sib)
	}
}

// TestTrialFailureDoublesBackoff checks a failed half-open trial doubles
// the next backoff window.
func TestTrialFailureDoublesBackoff(t *testing.T) {
	fbs := []*fakeBackend{newFakeBackend(t, 1), newFakeBackend(t, 1)}
	chaos := NewChaosTransport(ChaosOptions{Seed: 7})
	f, clk := newTestFleet(t, chaos, fbs...)
	ctx := context.Background()
	spec := testSpec("gcc_r")
	owner := primaryFor(t, f, spec)
	chaos.Kill(fbs[owner].host(t))

	if _, err := f.Run(ctx, spec); err != nil { // marks owner down, backoff=500ms
		t.Fatal(err)
	}
	clk.Advance(probeBackoff)
	if _, err := f.Run(ctx, spec); err != nil { // trial fails, backoff doubles
		t.Fatal(err)
	}
	b := f.backends[owner]
	b.mu.Lock()
	backoff := b.backoff
	b.mu.Unlock()
	if want := 2 * probeBackoff; backoff != want {
		t.Fatalf("backoff after failed trial = %v, want %v", backoff, want)
	}
}

// TestAllBackendsDownGivesUp checks the attempt budget bounds the retry
// loop and the terminal error names the cause; the auto-advancer stands
// in for real waiting.
func TestAllBackendsDownGivesUp(t *testing.T) {
	fbs := []*fakeBackend{newFakeBackend(t, 1), newFakeBackend(t, 1)}
	chaos := NewChaosTransport(ChaosOptions{Seed: 7})
	f, clk := newTestFleet(t, chaos, fbs...)
	chaos.Kill(fbs[0].host(t))
	chaos.Kill(fbs[1].host(t))

	stop := autoAdvance(clk)
	defer stop()
	_, err := f.Run(context.Background(), testSpec("gcc_r"))
	if err == nil || !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("err = %v, want gave-up error", err)
	}
}

// TestPermanentErrorsDoNotFailOver checks a deterministic failure (bad
// spec rejected with 400) is returned at once instead of burning the
// whole fleet's attempt budget.
func TestPermanentErrorsDoNotFailOver(t *testing.T) {
	fbs := []*fakeBackend{newFakeBackend(t, 1), newFakeBackend(t, 1)}
	f, _ := newTestFleet(t, nil, fbs...)
	_, err := f.Run(context.Background(), testSpec("no_such_bench"))
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// The spec fails fleet-side normalization before any submit.
	if fbs[0].submits.Load()+fbs[1].submits.Load() != 0 {
		t.Fatal("invalid spec reached a backend")
	}

	// A job that reaches the failed state is permanent too.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.JobStatus{
			ID: "job", State: service.StateFailed, Error: "simulation exploded"})
	})
	failing := httptest.NewServer(mux)
	defer failing.Close()
	f2, err := New(Options{Backends: []string{failing.URL}, Clock: vclock.NewFake(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f2.Run(context.Background(), testSpec("gcc_r"))
	var jerr *client.JobError
	if !errors.As(err, &jerr) || !strings.Contains(err.Error(), failing.URL) {
		t.Fatalf("err = %v, want attributed JobError", err)
	}
}

// fleetCounter reads one of the fleet's local counters.
func fleetCounter(f *Fleet, name string) uint64 {
	f.cmu.Lock()
	defer f.cmu.Unlock()
	return f.counters.Snapshot()[name]
}

// TestRestartMidWaitResubmits restarts a backend under a waiting job: it
// accepts the submit, answers the status read 404 (its registry is gone),
// then serves the resubmit. The backend answered, so the job is resubmitted
// to it and it is never marked down.
func TestRestartMidWaitResubmits(t *testing.T) {
	var submits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if submits.Add(1) == 1 {
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(service.JobStatus{ID: "job", State: service.StateQueued})
			return
		}
		json.NewEncoder(w).Encode(service.JobStatus{ID: "job", State: service.StateDone,
			Result: &simrun.Output{CPI: 3, Insts: 1000}})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown job"})
	})
	fb := &fakeBackend{ts: httptest.NewServer(mux)}
	defer fb.ts.Close()
	f, clk := newTestFleet(t, nil, fb)
	defer autoAdvance(clk)()

	out, err := f.Run(context.Background(), testSpec("gcc_r"))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.CPI != 3 {
		t.Fatalf("bad result %+v", out)
	}
	if got := submits.Load(); got != 2 {
		t.Fatalf("backend saw %d submits, want 2 (submit, resubmit)", got)
	}
	if healthy, _ := f.backends[0].snapshot(); !healthy {
		t.Fatal("a backend that answered every request was marked down")
	}
	if marks, re := fleetCounter(f, "fleet.down_marks"), fleetCounter(f, "fleet.resubmits"); marks != 0 || re != 1 {
		t.Fatalf("down_marks = %d, resubmits = %d, want 0 and 1", marks, re)
	}
}

// TestCancelDoesNotMarkDown cancels the caller's context while the job
// waits on a healthy backend: that is the caller's doing, so the backend
// stays in rotation and no failover is counted.
func TestCancelDoesNotMarkDown(t *testing.T) {
	waiting := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.JobStatus{ID: "job", State: service.StateQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		close(waiting)
		<-r.Context().Done() // the job never finishes
	})
	fb := &fakeBackend{ts: httptest.NewServer(mux)}
	defer fb.ts.Close()
	f, clk := newTestFleet(t, nil, fb)
	defer autoAdvance(clk)()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-waiting
		cancel()
	}()
	if _, err := f.Run(ctx, testSpec("gcc_r")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if healthy, lastErr := f.backends[0].snapshot(); !healthy {
		t.Fatalf("cancelled caller marked a healthy backend down: %s", lastErr)
	}
	if marks, fo := fleetCounter(f, "fleet.down_marks"), fleetCounter(f, "fleet.failovers"); marks != 0 || fo != 0 {
		t.Fatalf("down_marks = %d, failovers = %d, want 0 and 0", marks, fo)
	}
}

// TestBackpressureWalksOn fills the owner's queue (it answers every submit
// 429): the job moves on to the next backend in ring order, and the owner,
// busy rather than dead, is not marked down.
func TestBackpressureWalksOn(t *testing.T) {
	var fullHost atomic.Value // the host:port whose queue is full
	fullHost.Store("")
	var served atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Host == fullHost.Load() {
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		served.Add(1)
		json.NewEncoder(w).Encode(service.JobStatus{ID: "job", State: service.StateDone,
			Result: &simrun.Output{CPI: 1, Insts: 1000}})
	})
	fbs := []*fakeBackend{{ts: httptest.NewServer(handler)}, {ts: httptest.NewServer(handler)}}
	defer fbs[0].ts.Close()
	defer fbs[1].ts.Close()
	f, _ := newTestFleet(t, nil, fbs...)
	spec := testSpec("gcc_r")
	owner := primaryFor(t, f, spec)
	fullHost.Store(fbs[owner].host(t))

	if _, err := f.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if got := served.Load(); got != 1 {
		t.Fatalf("the free backend served %d submits, want 1", got)
	}
	if healthy, _ := f.backends[owner].snapshot(); !healthy {
		t.Fatal("a backend with a full queue was marked down")
	}
	if marks, fo := fleetCounter(f, "fleet.down_marks"), fleetCounter(f, "fleet.failovers"); marks != 0 || fo != 1 {
		t.Fatalf("down_marks = %d, failovers = %d, want 0 and 1", marks, fo)
	}
}

// TestChaosSameSeedSameFaults checks the fault schedule is a pure
// function of the seed.
func TestChaosSameSeedSameFaults(t *testing.T) {
	run := func(seed int64) map[string]int {
		backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("{}"))
		}))
		defer backend.Close()
		chaos := NewChaosTransport(ChaosOptions{Seed: seed, DropProb: 0.3, ErrProb: 0.3})
		hc := &http.Client{Transport: chaos}
		for i := 0; i < 200; i++ {
			resp, err := hc.Get(backend.URL)
			if err == nil {
				resp.Body.Close()
			}
		}
		return chaos.Faults()
	}
	a, b, c := run(42), run(42), run(43)
	if a["dropped"] != b["dropped"] || a["errored"] != b["errored"] {
		t.Fatalf("same seed produced different faults: %v vs %v", a, b)
	}
	if a["dropped"] == 0 || a["errored"] == 0 {
		t.Fatalf("chaos injected nothing: %v", a)
	}
	if c["dropped"] == a["dropped"] && c["errored"] == a["errored"] {
		t.Fatalf("different seeds produced identical faults: %v vs %v", a, c)
	}
}

// TestParseBackendsAndConfig covers the fleet-definition front door, the
// comma list (the JSON config file it once also covered is gone).
func TestParseBackendsAndConfig(t *testing.T) {
	got := ParseBackends(" http://a:1, http://b:2 ,,http://c:3 ")
	if len(got) != 3 || got[0] != "http://a:1" || got[2] != "http://c:3" {
		t.Fatalf("ParseBackends = %v", got)
	}
}
