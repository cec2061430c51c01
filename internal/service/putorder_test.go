package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"pinnedloads/internal/simcache"
	"pinnedloads/internal/simrun"
)

// gatedCache holds every Put until open is called; putting closes when the
// first Put is entered.
type gatedCache struct {
	simcache.Cache
	entered, opened sync.Once
	putting         chan struct{}
	release         chan struct{}
}

func newGatedCache(inner simcache.Cache) *gatedCache {
	return &gatedCache{Cache: inner, putting: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedCache) Put(key string, out *simrun.Output) error {
	g.entered.Do(func() { close(g.putting) })
	<-g.release
	return g.Cache.Put(key, out)
}

// open releases every held and future Put.
func (g *gatedCache) open() { g.opened.Do(func() { close(g.release) }) }

// waitPrompt waits for a job with the prompt bound, failing if it is not
// done by then.
func waitPrompt(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), prompt)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil || st.State != StateDone {
		t.Fatalf("job %s: state %q, %v; want done while its put is held", id, st.State, err)
	}
	return st
}

// TestReplyBeforePut holds a job's result write and checks that the
// waiter already has the result, and that a peered sibling submitting the
// same spec meanwhile gets a peer hit from the registry instead of
// executing the job a second time.
func TestReplyBeforePut(t *testing.T) {
	gate := newGatedCache(simcache.NewMemory(0))
	defer gate.open()
	a, tsA := newTestServer(t, Options{Workers: 1, Cache: gate})

	spec := tinySpec()
	st, err := a.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitPrompt(t, a, st.ID)
	<-gate.putting
	if _, ok, _ := gate.Cache.Get(st.ID); ok {
		t.Fatal("the result reached the cache while its put was held")
	}

	b, _ := newTestServer(t, Options{Workers: 1, Peers: []string{tsA.URL}})
	spec = tinySpec()
	hit, err := b.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != StateDone || !hit.CacheHit || hit.Result.CPI != done.Result.CPI {
		t.Fatalf("sibling submit = %+v, want a done peer hit with the same result", hit)
	}
	ma, mb := metricsMap(t, a), metricsMap(t, b)
	if n := ma["svc.executed"] + mb["svc.executed"]; n != 1 {
		t.Fatalf("the two servers executed the job %d times, want 1", n)
	}
	if mb["svc.peer_hits"] != 1 {
		t.Fatalf("sibling counted %d peer hits, want 1", mb["svc.peer_hits"])
	}
}

// TestDrainWaitsForPut holds a finished job's disk write and checks Drain
// returns only after it is released, after which a server restarted on the
// same directory answers the job from disk.
func TestDrainWaitsForPut(t *testing.T) {
	dir := t.TempDir()
	gate := newGatedCache(mustDisk(t, dir))
	s := New(Options{Workers: 1, Cache: gate})
	s.Start()
	defer s.Close()
	defer gate.open()

	spec := tinySpec()
	st, err := s.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	waitPrompt(t, s, st.ID)
	<-gate.putting

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a result was still unwritten", err)
	case <-time.After(50 * time.Millisecond):
	}
	gate.open()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(prompt):
		t.Fatal("Drain did not return after the put was released")
	}

	r, ts := newTestServer(t, Options{Workers: 1, Cache: mustDisk(t, dir)})
	code, again, _ := postJob(t, ts, tinySpec())
	if code != http.StatusOK || again.State != StateDone || !again.CacheHit {
		t.Fatalf("restarted submit = %d %+v, want a done cache hit", code, again)
	}
	if n := metricsMap(t, r)["svc.executed"]; n != 0 {
		t.Fatalf("restarted server executed %d jobs, want 0", n)
	}
}

// promptly runs fn and fails unless it returns within the prompt bound.
func promptly(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(prompt):
		t.Fatalf("%s did not return while the local put was held", what)
	}
}

// TestPeerHitReplyBeforePut holds the local writes of peer hits and checks
// that a submit, an HTTP submit and an HTTP status read are each answered
// while they are held, and that Drain returns only once every write is
// released — one that starts while Drain already waits included.
func TestPeerHitReplyBeforePut(t *testing.T) {
	up, upTS := newTestServer(t, Options{Workers: 1})
	specs := make([]JobSpec, 3)
	for i := range specs {
		specs[i] = tinySpec()
		specs[i].Seed = uint64(i + 1)
		st, err := up.Submit(&specs[i])
		if err != nil {
			t.Fatal(err)
		}
		waitPrompt(t, up, st.ID)
	}
	gate := newGatedCache(simcache.NewMemory(0))
	defer gate.open()
	s, ts := newTestServer(t, Options{Workers: 1, Cache: gate, Peers: []string{upTS.URL}})

	var hit JobStatus
	var err error
	promptly(t, "Server.Submit of a peer hit", func() { hit, err = s.Submit(&specs[0]) })
	if err != nil || hit.State != StateDone || !hit.CacheHit {
		t.Fatalf("Submit = %+v, %v; want a done cache hit", hit, err)
	}
	<-gate.putting

	var resp *http.Response
	promptly(t, "POST /v1/jobs of a peer hit", func() {
		body, _ := json.Marshal(specs[1])
		resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/jobs of a peer hit = %d, want 200", resp.StatusCode)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a peer hit was still unwritten", err)
	case <-time.After(50 * time.Millisecond):
	}
	id := specs[2].Key()
	promptly(t, "GET /v1/jobs/{id} of a peer hit during Drain", func() {
		resp, err = http.Get(ts.URL + "/v1/jobs/" + id)
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/{id} of a peer hit = %d, want 200", resp.StatusCode)
	}

	gate.open()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(prompt):
		t.Fatal("Drain did not return after the puts were released")
	}
	for _, spec := range specs {
		if _, ok, _ := gate.Cache.Get(spec.Key()); !ok {
			t.Fatalf("peer hit %s was not in the local cache when Drain returned", spec.Key())
		}
	}
	if m := metricsMap(t, s); m["svc.peer_hits"] != 3 || m["svc.executed"] != 0 {
		t.Fatalf("peer_hits = %d, executed = %d; want 3 and 0", m["svc.peer_hits"], m["svc.executed"])
	}
}
