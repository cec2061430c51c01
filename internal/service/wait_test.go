package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pinnedloads/internal/simcache"
	"pinnedloads/internal/simrun"
)

// prompt is the bound on "answered at once": far below MaxWait, far above
// a loaded CI host's scheduling noise.
const prompt = 5 * time.Second

// parkJob registers a running job no worker owns, so the test decides when
// (and whether) it finishes.
func parkJob(s *Server, id string) *job {
	j := &job{id: id, state: StateRunning, done: make(chan struct{})}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	return j
}

// getJob reads a job's status with the given raw query and reports how long
// the server held the answer.
func getJob(t *testing.T, ts *httptest.Server, id, query string) (int, JobStatus, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st, time.Since(start)
}

// TestWaitAnswersAtFinish parks a read on a running job with the longest
// wait there is and checks it is answered when the job finishes, not when
// the wait runs out.
func TestWaitAnswersAtFinish(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	j := parkJob(s, "parked")
	type reply struct {
		code int
		st   JobStatus
	}
	got := make(chan reply, 1)
	go func() {
		code, st, _ := getJob(t, ts, "parked", "?wait=30s")
		got <- reply{code, st}
	}()
	time.Sleep(50 * time.Millisecond) // let the read park
	select {
	case r := <-got:
		t.Fatalf("read of a running job answered early: %d %+v", r.code, r.st)
	default:
	}
	finished := time.Now()
	s.finish(j, &simrun.Output{CPI: 2, Insts: 1000}, false, nil)
	r := <-got
	if late := time.Since(finished); late > prompt {
		t.Fatalf("answer came %v after the job finished", late)
	}
	if r.code != http.StatusOK || r.st.State != StateDone || r.st.Result == nil || r.st.Result.CPI != 2 {
		t.Fatalf("answer = %d %+v, want 200 with the done job", r.code, r.st)
	}
}

// TestWaitExpiryAnswersCurrentStatus checks a wait that runs out is a 200
// with the job's non-terminal status, held for the whole wait.
func TestWaitExpiryAnswersCurrentStatus(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	parkJob(s, "parked")
	code, st, held := getJob(t, ts, "parked", "?wait=40ms")
	if code != http.StatusOK || st.State != StateRunning {
		t.Fatalf("expired wait = %d %+v, want 200 running", code, st)
	}
	if held < 40*time.Millisecond || held > prompt {
		t.Fatalf("answer held %v, want the 40ms asked for", held)
	}
	if code, st, held = getJob(t, ts, "parked", ""); code != http.StatusOK ||
		st.State != StateRunning || held > prompt {
		t.Fatalf("read without wait = %d %+v after %v, want 200 running at once", code, st, held)
	}
}

// TestWaitParameterEdges feeds the parameter what a stranger might: too
// long is capped, malformed or negative is a 400, and an unknown job is a
// 404 at once however long the caller offered to wait.
func TestWaitParameterEdges(t *testing.T) {
	for _, c := range []struct {
		in   string
		want time.Duration
		bad  bool
	}{
		{in: "", want: 0},
		{in: "0s", want: 0},
		{in: "15ms", want: 15 * time.Millisecond},
		{in: "30s", want: MaxWait},
		{in: "1h", want: MaxWait},
		{in: "2562047h", want: MaxWait},
		{in: "-1s", bad: true},
		{in: "30", bad: true},
		{in: "soon", bad: true},
		{in: "9999999h", bad: true}, // overflows a Duration
	} {
		got, err := parseWait(c.in)
		if (err != nil) != c.bad || got != c.want {
			t.Errorf("parseWait(%q) = %v, %v; want %v, bad=%v", c.in, got, err, c.want, c.bad)
		}
	}

	s, ts := newTestServer(t, Options{Workers: 1})
	parkJob(s, "parked")
	for _, q := range []string{"?wait=-1s", "?wait=soon", "?wait=30"} {
		if code, _, _ := getJob(t, ts, "parked", q); code != http.StatusBadRequest {
			t.Errorf("GET parked%s = %d, want 400", q, code)
		}
	}
	for _, q := range []string{"", "?wait=30s"} {
		code, _, held := getJob(t, ts, "deadbeef", q)
		if code != http.StatusNotFound || held > prompt {
			t.Errorf("GET deadbeef%s = %d after %v, want 404 at once", q, code, held)
		}
	}
}

// TestWaitReleasedByClientDisconnect checks a parked read ends with its
// client: the handler returns on r.Context(), leaving nothing waiting on a
// job that may never finish.
func TestWaitReleasedByClientDisconnect(t *testing.T) {
	s := New(Options{Workers: 1})
	s.Start()
	entered, returned := make(chan struct{}), make(chan struct{})
	api := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		api.ServeHTTP(w, r)
		close(returned)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	j := parkJob(s, "parked")

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/parked?wait=30s", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	time.Sleep(20 * time.Millisecond) // let the read park
	cancel()
	select {
	case <-returned:
	case <-time.After(prompt):
		t.Fatal("handler still parked after its client went away")
	}
	select {
	case <-j.done:
		t.Fatal("the job finished; the handler was not released by the disconnect")
	default:
	}
}

// TestWaitCacheBornJobAnswersAtOnce checks a job that is born done — a
// cache hit at submit, or a result only the cache remembers — never parks a
// read.
func TestWaitCacheBornJobAnswersAtOnce(t *testing.T) {
	cache := simcache.NewMemory(0)
	_, ts1 := newTestServer(t, Options{Workers: 1, Cache: cache})
	_, st, _ := postJob(t, ts1, tinySpec())
	waitDone(t, ts1, st.ID)

	_, ts2 := newTestServer(t, Options{Workers: 1, Cache: cache})
	if code, born, _ := postJob(t, ts2, tinySpec()); code != http.StatusOK || !born.CacheHit {
		t.Fatalf("submit against a warm cache = %d %+v, want a cache-born job", code, born)
	}
	// ts3 never saw the submit: only its cache knows the ID.
	_, ts3 := newTestServer(t, Options{Workers: 1, Cache: cache})
	for name, ts := range map[string]*httptest.Server{"registry": ts2, "cache only": ts3} {
		code, got, held := getJob(t, ts, st.ID, "?wait=30s")
		if code != http.StatusOK || got.State != StateDone || !got.CacheHit || held > prompt {
			t.Errorf("%s: read = %d %+v after %v, want 200 done cache_hit at once", name, code, got, held)
		}
	}
}

// postWait submits tinySpec with the given raw query and reports how long
// the server held the answer.
func postWait(t *testing.T, ts *httptest.Server, query string) (int, JobStatus, time.Duration) {
	t.Helper()
	body, err := json.Marshal(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
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
	return resp.StatusCode, st, time.Since(start)
}

// TestSubmitWait checks a submit that asks to wait is held like a status
// read: until the job is done, or for the wait when the job cannot finish
// (no worker runs it), with a malformed or negative wait a 400.
func TestSubmitWait(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, st, _ := postWait(t, ts, "?wait=30s")
	if code != http.StatusOK || st.State != StateDone || st.Result == nil {
		t.Fatalf("POST ?wait=30s = %d %+v, want 200 with the done job", code, st)
	}

	idle := New(Options{Workers: 1}) // never started: a submit stays queued
	its := httptest.NewServer(idle.Handler())
	t.Cleanup(func() {
		its.Close()
		idle.Close()
	})
	code, st, held := postWait(t, its, "?wait=40ms")
	if code != http.StatusAccepted || st.State != StateQueued {
		t.Fatalf("expired POST wait = %d %+v, want 202 queued", code, st)
	}
	if held < 40*time.Millisecond || held > prompt {
		t.Fatalf("answer held %v, want the 40ms asked for", held)
	}
	for _, q := range []string{"?wait=bogus", "?wait=-1s"} {
		if code, _, _ := postWait(t, its, q); code != http.StatusBadRequest {
			t.Errorf("POST /v1/jobs%s = %d, want 400", q, code)
		}
	}
}
