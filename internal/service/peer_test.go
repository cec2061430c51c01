package service_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pinnedloads/internal/service"
	"pinnedloads/internal/simcache"
	"pinnedloads/internal/simrun"
)

// quickSpec is a small deterministic job used across the peering tests.
func quickSpec() service.JobSpec {
	return service.JobSpec{Benchmark: "gcc_r", Scheme: "fence", Variant: "ep",
		Warmup: 200, Measure: 1000}
}

// runToDone submits a spec and waits for its terminal status.
func runToDone(t *testing.T, s *service.Server, spec service.JobSpec) service.JobStatus {
	t.Helper()
	st, err := s.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err = s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	return st
}

// TestCacheEndpoint locks the peering endpoint's HTTP contract: a cached
// key serves a checksum-verifiable envelope on GET and its size on HEAD
// (no body), an unknown key is 404 for both.
func TestCacheEndpoint(t *testing.T) {
	s := service.New(service.Options{Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	st := runToDone(t, s, quickSpec())

	resp, err := http.Get(ts.URL + "/v1/cache/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET cached key = %d", resp.StatusCode)
	}
	out, err := simcache.DecodeEnvelope(body)
	if err != nil {
		t.Fatalf("served envelope does not verify: %v", err)
	}
	if out.CPI != st.Result.CPI || out.Cycles != st.Result.Cycles {
		t.Fatalf("served result differs: %+v vs %+v", out, st.Result)
	}

	hresp, err := http.Head(ts.URL + "/v1/cache/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD cached key = %d", hresp.StatusCode)
	}
	if len(hbody) != 0 {
		t.Fatalf("HEAD returned %d body bytes", len(hbody))
	}
	if hresp.ContentLength != int64(len(body)) {
		t.Fatalf("HEAD Content-Length = %d, GET body = %d", hresp.ContentLength, len(body))
	}

	for _, method := range []string{http.MethodGet, http.MethodHead} {
		req, _ := http.NewRequest(method, ts.URL+"/v1/cache/nosuchkey", nil)
		mresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		mresp.Body.Close()
		if mresp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s unknown key = %d, want 404", method, mresp.StatusCode)
		}
	}
}

// TestPeerServingEndToEnd is the tentpole's core property at the service
// level: a job warm on a sibling backend is served over the peering tier
// — zero executions on the probing backend — and promoted into its local
// cache, by the time Drain returns, so the endpoint can serve it onward.
func TestPeerServingEndToEnd(t *testing.T) {
	up := service.New(service.Options{Workers: 1})
	up.Start()
	upTS := httptest.NewServer(up.Handler())
	defer func() {
		upTS.Close()
		up.Close()
	}()
	warm := runToDone(t, up, quickSpec())

	local := simcache.NewMemory(0)
	s := service.New(service.Options{Workers: 1, Cache: local, Peers: []string{upTS.URL}})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	st := runToDone(t, s, quickSpec())
	if !st.CacheHit {
		t.Fatal("peer-served job not reported as a cache hit")
	}
	if st.Result.CPI != warm.Result.CPI || st.Result.Cycles != warm.Result.Cycles {
		t.Fatalf("peer-served result differs from the origin: %+v vs %+v",
			st.Result, warm.Result)
	}
	m := s.Metrics()
	for _, want := range []string{"svc.peer_probes=1", "svc.peer_hits=1", "svc.cache_hits=1"} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m)
		}
	}
	if strings.Contains(m, "svc.executed=") {
		t.Fatalf("probing backend executed a job a peer already had:\n%s", m)
	}
	if !strings.Contains(up.Metrics(), "svc.peer_served=1") {
		t.Fatalf("origin backend did not count the serve:\n%s", up.Metrics())
	}
	// The hit was promoted once Drain returns: this backend now serves it
	// locally too.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := local.Get(st.ID); !ok {
		t.Fatal("peer hit was not promoted into the local cache")
	}
}

// TestPeerCorruptFailsOpen points a backend at a peer that serves, for
// every key, the envelope of another result with its checksum broken: the
// job must fall back to local compute, succeed, and count the rejected
// probes — never fail, and never let the peer's bytes reach the local cache,
// which holds only what the job computed once Drain returns.
func TestPeerCorruptFailsOpen(t *testing.T) {
	env, err := simcache.EncodeEnvelope(&simrun.Output{CPI: 99, Cycles: 1, Insts: 1})
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(env), `"sha256":"`) + len(`"sha256":"`)
	env[i] ^= 1 // one hex digit of the digest
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(env)
	}))
	defer evil.Close()

	local := simcache.NewMemory(0)
	s := service.New(service.Options{Workers: 1, Cache: local, Peers: []string{evil.URL}})
	s.Start()
	defer s.Close()

	st := runToDone(t, s, quickSpec())
	if st.CacheHit {
		t.Fatal("corrupt peer response served as a cache hit")
	}
	m := s.Metrics()
	if !strings.Contains(m, "svc.executed=1") {
		t.Fatalf("job did not fall back to local compute:\n%s", m)
	}
	if !strings.Contains(m, "svc.peer_errors=") {
		t.Fatalf("rejected probes not counted:\n%s", m)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := local.Get(st.ID); local.Len() != 1 || !ok || !reflect.DeepEqual(got, st.Result) {
		t.Fatalf("local cache holds %d entries, the job's %v (%+v); want only the computed result %+v",
			local.Len(), ok, got, st.Result)
	}
}

// TestPeerDownFailsOpenService submits against a backend whose only peer
// is unreachable: same result as no peering, just slower by the probe.
func TestPeerDownFailsOpenService(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	s := service.New(service.Options{Workers: 1, Peers: []string{dead.URL}})
	s.Start()
	defer s.Close()

	st := runToDone(t, s, quickSpec())
	if st.CacheHit {
		t.Fatal("dead peer produced a cache hit")
	}
	if !strings.Contains(s.Metrics(), "svc.executed=1") {
		t.Fatal("job did not execute locally with the peer down")
	}
}
