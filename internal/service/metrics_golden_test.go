package service_test

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"pinnedloads/internal/service"
)

var updateMetricsGolden = flag.Bool("update-metrics", false,
	"rewrite testdata/metrics.golden from the current /metrics output")

// TestMetricsGolden locks down the /metrics wire format: a fixed job
// sequence against a fixed-size server must render byte-identical,
// stably ordered name=value lines. Fleet aggregation and the CI scripts
// parse this output, so accidental renames or reordering are breakage.
// The server under test peers with an upstream sibling so the golden also
// pins the svc.peer_* counter family (probes, hits, served).
func TestMetricsGolden(t *testing.T) {
	// Upstream sibling: warm for job A, so the golden server's first
	// submit is a peer hit instead of an execution.
	up := service.New(service.Options{Workers: 1})
	up.Start()
	upTS := httptest.NewServer(up.Handler())
	defer func() {
		upTS.Close()
		up.Close()
	}()
	warmSpec := service.JobSpec{Benchmark: "gcc_r", Scheme: "fence", Variant: "ep",
		Warmup: 200, Measure: 1000}
	if st, err := up.Submit(&warmSpec); err != nil {
		t.Fatal(err)
	} else if _, err := up.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}

	s := service.New(service.Options{Workers: 2, QueueDepth: 8,
		Peers: []string{upTS.URL}})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	submit := func(spec service.JobSpec) service.JobStatus {
		t.Helper()
		st, err := s.Submit(&spec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Job A is warm on the peer (probe + hit + cache hit), job B is cold
	// everywhere (one probe round, at submit; then one execution), then a
	// duplicate of A exercises dedup.
	a := submit(service.JobSpec{Benchmark: "gcc_r", Scheme: "fence", Variant: "ep",
		Warmup: 200, Measure: 1000})
	b := submit(service.JobSpec{Benchmark: "gcc_r", Warmup: 200, Measure: 1000})
	for _, st := range []service.JobStatus{a, b} {
		if _, err := s.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	submit(service.JobSpec{Benchmark: "gcc_r", Scheme: "fence", Variant: "ep",
		Warmup: 200, Measure: 1000})
	// One served peer probe (B is cached locally by now) and one clean
	// miss, which must not count.
	for _, key := range []string{b.ID, "nosuchkey"} {
		resp, err := http.Get(ts.URL + "/v1/cache/" + key)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateMetricsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-metrics to create it)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("/metrics drifted from %s (re-run with -update-metrics if intended)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestDrainEndpoint checks POST /v1/drain takes the server out of
// rotation: healthz flips to 503 draining, new submissions are refused,
// and the call is idempotent.
func TestDrainEndpoint(t *testing.T) {
	s := service.New(service.Options{Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	for i := 0; i < 2; i++ { // second call exercises idempotence
		resp, err := http.Post(ts.URL+"/v1/drain", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drain #%d returned %d", i, resp.StatusCode)
		}
	}
	if !s.Draining() {
		t.Fatal("server is not draining after POST /v1/drain")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d while draining, want 503", resp.StatusCode)
	}
	if _, err := s.Submit(&service.JobSpec{Benchmark: "gcc_r"}); err == nil {
		t.Fatal("submit succeeded on a draining server")
	}
}
