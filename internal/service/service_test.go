package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/simcache"
)

// tinySpec is a job small enough for unit tests (a few ms of simulation).
func tinySpec() JobSpec {
	return JobSpec{Benchmark: "gcc_r", Scheme: "fence", Variant: "ep",
		Warmup: 500, Measure: 2000}
}

// newTestServer starts a server plus its httptest front end.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJob submits a spec over HTTP and decodes the response.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (int, JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st, resp
}

// waitDone polls the HTTP API until the job is terminal.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

func metric(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		n, val, ok := strings.Cut(line, "=")
		if !ok || n != name {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(val, "%d", &v); err != nil {
			t.Fatalf("metric %s has non-numeric value %q", name, val)
		}
		return v
	}
	return 0
}

func TestSubmitLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	code, st, _ := postJob(t, ts, tinySpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("fresh job = %+v", st)
	}
	// The normalized spec echoes back with defaults resolved.
	if st.Spec.Scheme != "Fence" || st.Spec.Variant != "EP" || st.Spec.Seed != 1 ||
		st.Spec.Config == nil {
		t.Fatalf("spec not normalized: %+v", st.Spec)
	}
	done := waitDone(t, ts, st.ID)
	if done.State != StateDone || done.Result == nil || done.Result.CPI <= 0 {
		t.Fatalf("finished job = %+v", done)
	}
	if done.Result.Insts != 2000 {
		t.Fatalf("insts = %d, want 2000", done.Result.Insts)
	}
}

// TestSubmitDedupes checks a resubmit maps onto the same job and, once
// done, is served from the cache without a second simulation.
func TestSubmitDedupes(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	_, st1, _ := postJob(t, ts, tinySpec())
	code, st2, _ := postJob(t, ts, tinySpec())
	if st2.ID != st1.ID {
		t.Fatalf("identical specs got distinct IDs %s vs %s", st1.ID, st2.ID)
	}
	if code != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200", code)
	}
	waitDone(t, ts, st1.ID)
	code, st3, _ := postJob(t, ts, tinySpec())
	if code != http.StatusOK || st3.State != StateDone || st3.Result == nil {
		t.Fatalf("post-completion resubmit = %d %+v", code, st3)
	}
	if got := metric(t, ts, "svc.executed"); got != 1 {
		t.Fatalf("executed = %d, want exactly 1", got)
	}
	if got := metric(t, ts, "svc.dedup_hits"); got < 2 {
		t.Fatalf("dedup_hits = %d, want >= 2", got)
	}
}

// TestSpecConsistencyNormalization pins the consistency axis on the wire
// spec: TSO is the canonical default (so pre-existing specs keep their
// job IDs), an explicit "tso" keys identically, "rc" is a distinct job
// whose resolved VP condition mask drops the vacuous mcv condition, and
// unknown model names are rejected.
func TestSpecConsistencyNormalization(t *testing.T) {
	base := tinySpec()
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	if base.Consistency != "TSO" {
		t.Fatalf("default consistency = %q, want TSO", base.Consistency)
	}
	explicit := tinySpec()
	explicit.Consistency = "tso"
	if err := explicit.Normalize(); err != nil {
		t.Fatal(err)
	}
	if explicit.Key() != base.Key() {
		t.Fatal("explicit tso keyed differently from the default")
	}
	rc := tinySpec()
	rc.Consistency = "rc"
	if err := rc.Normalize(); err != nil {
		t.Fatal(err)
	}
	if rc.Consistency != "RC" {
		t.Fatalf("normalized consistency = %q, want RC", rc.Consistency)
	}
	if rc.Key() == base.Key() {
		t.Fatal("RC spec collided with the TSO key")
	}
	for _, c := range rc.Conds {
		if c == "mcv" {
			t.Fatalf("RC spec kept the mcv condition: %v", rc.Conds)
		}
	}
	bad := tinySpec()
	bad.Consistency = "weak"
	if err := bad.Normalize(); err == nil {
		t.Fatal("unknown consistency model normalized")
	}
}

func TestBadSpecAndUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, _, _ := postJob(t, ts, JobSpec{Benchmark: "no-such-bench"})
	if code != http.StatusBadRequest {
		t.Fatalf("bad benchmark = %d, want 400", code)
	}
	code, _, _ = postJob(t, ts, JobSpec{})
	if code != http.StatusBadRequest {
		t.Fatalf("empty spec = %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/deadbeef/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", resp.StatusCode)
	}
}

// TestDeletedConfigFieldsRefused: a job whose config names a machine field
// the simulator no longer has is a bad request, whatever the value, and is
// neither run nor enqueued — never silently run on another machine (the
// conservative TSO that AggressiveTSO=false asked for is gone).
func TestDeletedConfigFieldsRefused(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for field, values := range map[string][]any{
		"RealPredictor": {true, false},
		"CPTReserve":    {true, false},
		"AggressiveTSO": {true, false},
		"ClockGHz":      {2.0, 3.5},
	} {
		for _, v := range values {
			spec := tinySpec()
			cfg := arch.PaperConfig(1)
			spec.Config = &cfg
			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatal(err)
			}
			doc["config"].(map[string]any)[field] = v
			if body, err = json.Marshal(doc); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("config naming %s=%v: %d, want 400", field, v, resp.StatusCode)
			}
		}
	}
	m := metricsMap(t, s)
	for _, name := range []string{"svc.submitted", "svc.jobs", "svc.queue_depth", "svc.executed"} {
		if m[name] != 0 {
			t.Errorf("%s = %d after refused submits, want 0", name, m[name])
		}
	}
}

// TestQueueSaturation fills the single queue slot behind a stuck worker
// and checks the next submit is 429 with a Retry-After hint.
func TestQueueSaturation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1,
		RetryAfter: 7 * time.Second})
	long := tinySpec()
	long.Measure = 1 << 40 // occupies the worker until Close cancels it
	long.Seed = 100
	if code, _, _ := postJob(t, ts, long); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	long.Seed = 101 // distinct job fills the queue slot
	if code, _, _ := postJob(t, ts, long); code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}
	long.Seed = 102
	code, _, resp := postJob(t, ts, long)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429", code)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}
	if got := metric(t, ts, "svc.rejected"); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

// TestJobTimeout checks the per-job deadline cancels a runaway simulation
// and surfaces as a failed job.
func TestJobTimeout(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, JobTimeout: 50 * time.Millisecond})
	spec := tinySpec()
	spec.Measure = 1 << 40
	_, st, _ := postJob(t, ts, spec)
	done := waitDone(t, ts, st.ID)
	if done.State != StateFailed {
		t.Fatalf("runaway job state = %s, want failed", done.State)
	}
	if !strings.Contains(done.Error, "deadline") {
		t.Fatalf("error = %q, want a deadline error", done.Error)
	}
	if got := metric(t, ts, "svc.timeouts"); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	_ = s
}

// TestConcurrentSubmitsSameJob hammers one job ID from many goroutines
// and checks exactly one simulation ran (the -race tier runs this too).
func TestConcurrentSubmitsSameJob(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 32})
	var wg sync.WaitGroup
	ids := make([]string, 16)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := tinySpec()
			code, st, _ := postJob(t, ts, spec)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("submit %d = %d", i, code)
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("IDs diverged: %s vs %s", id, ids[0])
		}
	}
	waitDone(t, ts, ids[0])
	if got := metric(t, ts, "svc.executed"); got != 1 {
		t.Fatalf("executed = %d, want exactly 1", got)
	}
	_ = s
}

// TestTraceEndpoint checks a traced job serves a Chrome trace and an
// untraced one is a 400.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	spec := tinySpec()
	spec.TraceBuffer = 1 << 12
	_, st, _ := postJob(t, ts, spec)
	waitDone(t, ts, st.ID)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d, want 200", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	plain := tinySpec()
	plain.Seed = 9
	_, st2, _ := postJob(t, ts, plain)
	waitDone(t, ts, st2.ID)
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st2.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("untraced trace = %d, want 400", resp2.StatusCode)
	}
}

// TestTraceSurvivesRestart reads a job's Chrome trace from a disk-backed
// server, restarts on the same directory and reads it again: the restarted
// server knows the job only from the cache, without its spec, and must
// still name every core.
func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	spec.TraceBuffer = 1 << 12
	traceOf := func(ts *httptest.Server, id string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace = %d %s, want 200", resp.StatusCode, &buf)
		}
		return buf.Bytes()
	}

	s1, ts1 := newTestServer(t, Options{Workers: 1, Cache: mustDisk(t, dir)})
	_, st, _ := postJob(t, ts1, spec)
	waitDone(t, ts1, st.ID)
	before := traceOf(ts1, st.ID)
	if !bytes.Contains(before, []byte(`"process_name"`)) {
		t.Fatalf("trace names no core:\n%s", before)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Options{Workers: 1, Cache: mustDisk(t, dir)})
	if after := traceOf(ts2, st.ID); !bytes.Equal(after, before) {
		t.Fatalf("trace after a restart differs:\nbefore %.300s\nafter  %.300s", before, after)
	}
}

// TestDrain checks a draining server finishes queued work, rejects new
// submits with 503, and reports draining on /healthz.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	_, st, _ := postJob(t, ts, tinySpec())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// The queued job completed during the drain.
	done := waitDone(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("drained job = %s, want done", done.State)
	}
	spec := tinySpec()
	spec.Seed = 77
	code, _, _ := postJob(t, ts, spec)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestDiskCacheSurvivesRestart computes a job against a disk cache,
// restarts gracefully (drains, then a fresh server on the same directory),
// and checks the resubmit is a cache hit without re-execution — then
// corrupts the entry and checks the job is recomputed instead of served
// garbage. The drain is what makes the restart lossless: a job's waiter
// wakes before its result is written, and Drain waits for the write.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Server, *httptest.Server) {
		c, err := simcache.NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		return newTestServer(t, Options{Workers: 1, Cache: c})
	}

	s1, ts1 := newTestServer(t, Options{Workers: 1, Cache: mustDisk(t, dir)})
	_, st, _ := postJob(t, ts1, tinySpec())
	first := waitDone(t, ts1, st.ID)
	if got := metric(t, ts1, "svc.executed"); got != 1 {
		t.Fatalf("executed = %d", got)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, ts2 := open()
	code, st2, _ := postJob(t, ts2, tinySpec())
	if code != http.StatusOK || !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("restarted submit = %d %+v, want warm cache hit", code, st2)
	}
	if got := metric(t, ts2, "svc.executed"); got != 0 {
		t.Fatalf("restart re-simulated: executed = %d", got)
	}
	if !bytes.Equal(st2.Result.MarshalCSV(), first.Result.MarshalCSV()) {
		t.Fatal("cached result differs from the computed one")
	}

	// Truncate the cache entry: the next server must detect the damage
	// and recompute rather than serve a corrupt result.
	path := filepath.Join(dir, st.ID+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts3 := open()
	code, st3, _ := postJob(t, ts3, tinySpec())
	if code != http.StatusAccepted {
		t.Fatalf("corrupt-cache submit = %d, want 202 (recompute)", code)
	}
	redone := waitDone(t, ts3, st3.ID)
	if redone.State != StateDone {
		t.Fatalf("recompute failed: %+v", redone)
	}
	if got := metric(t, ts3, "svc.executed"); got != 1 {
		t.Fatalf("executed after corruption = %d, want 1", got)
	}
	if !bytes.Equal(redone.Result.MarshalCSV(), first.Result.MarshalCSV()) {
		t.Fatal("recomputed result differs from the original")
	}
}

func mustDisk(t *testing.T, dir string) simcache.Cache {
	t.Helper()
	c, err := simcache.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
