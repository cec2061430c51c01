package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pinnedloads/internal/simrun"
)

// TestDoneReplyMatchesEncoder holds a done job's hand-written reply to what
// json.NewEncoder(w).Encode writes for its JobStatus, on a submit and on a
// status read, for a job computed here, born done from a disk entry, served
// by a peer, and known only from the disk after a restart (no spec).
func TestDoneReplyMatchesEncoder(t *testing.T) {
	dir := t.TempDir()
	computed, _ := newTestServer(t, Options{Workers: 1, Cache: mustDisk(t, dir)})
	spec := tinySpec()
	st, err := computed.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = computed.Wait(context.Background(), st.ID); err != nil || st.State != StateDone {
		t.Fatalf("job state %q, %v", st.State, err)
	}
	id := st.ID
	body, _ := json.Marshal(tinySpec())
	get := func() *http.Request { return httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil) }
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=30s", bytes.NewReader(body))
	}
	// The status a request leaves is the one it answered with: a read of a
	// job known only from the cache registers nothing, a submit registers it.
	serve := func(name string, s *Server, req *http.Request) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		st, ok := s.Job(id)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(st); err != nil || !ok || st.State != StateDone {
			t.Fatalf("%s: job %q, %v", name, st.State, err)
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%s: %s %s answered %d\n%s\njson.Encoder writes\n%s",
				name, req.Method, req.URL, rec.Code, rec.Body, want.Bytes())
		}
	}

	serve("computed, read", computed, get())
	serve("computed, resubmitted", computed, post())
	if err := computed.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	restarted, origin := newTestServer(t, Options{Workers: 1, Cache: mustDisk(t, dir)})
	serve("after a restart, read", restarted, get())
	serve("born done from disk", restarted, post())

	peered, _ := newTestServer(t, Options{Workers: 1, Peers: []string{origin.URL}})
	serve("a peer hit", peered, post())
	if !strings.Contains(peered.Metrics(), "svc.peer_hits=1\n") {
		t.Fatalf("the job was not a peer hit:\n%s", peered.Metrics())
	}
	serve("a peer hit, read", peered, get())
}

// nanCache holds one result that does not encode: its CPI is NaN.
type nanCache struct{}

func (nanCache) Get(string) (*simrun.Output, bool, error) {
	return &simrun.Output{CPI: math.NaN(), Counters: simrun.Counts{}}, true, nil
}
func (nanCache) Put(string, *simrun.Output) error { return nil }

// TestUnencodableReplyIs500 checks that a reply that does not encode is a
// 500 carrying the encoder's message, counted, and not an empty 200 the
// client can only call a bad body.
func TestUnencodableReplyIs500(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, Cache: nanCache{}})
	body, _ := json.Marshal(tinySpec())
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError ||
		!strings.Contains(e.Error, "json: unsupported value: NaN") {
		t.Fatalf("a NaN result answered %d %q (%v), want 500 with the encoder's message", rec.Code, rec.Body, err)
	}
	if !strings.Contains(s.Metrics(), "svc.encode_errors=1\n") {
		t.Fatalf("the failed encode was not counted:\n%s", s.Metrics())
	}
}

// TestDecodeRunReplyMatchesUnmarshal holds DecodeRunReply to json.Unmarshal
// into a JobStatus, but for the spec it skips: done replies as the server
// writes them, computed and cache hits, and replies it must hand to
// encoding/json (queued, failed, escaped, spaced, reordered, truncated).
func TestDecodeRunReplyMatchesUnmarshal(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	spec := tinySpec()
	st, err := s.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = s.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(tinySpec())
	var replies [][]byte
	for range 2 { // computed, then a registry hit
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		replies = append(replies, rec.Body.Bytes())
	}
	st.Spec.Benchmark = `}{"[\"` // brackets and escapes inside a string
	st.CacheHit = true
	for _, v := range []any{st, JobStatus{ID: st.ID, State: StateQueued, Spec: st.Spec},
		JobStatus{ID: st.ID, State: StateFailed, Error: "boom"},
		JobStatus{ID: `a"b`, State: StateDone, Result: st.Result}} {
		data, _ := json.Marshal(v)
		indented, _ := json.MarshalIndent(v, "", " ")
		replies = append(replies, data, indented)
	}
	done := string(replies[0])
	for _, r := range []string{
		strings.TrimSuffix(done, "\n"),
		done[:len(done)/2],
		strings.Replace(done, `,"result":`, `,"cache_hit":false,"result":`, 1),
		strings.Replace(done, `{"id":`, `{"error":"x","id":`, 1),
		strings.TrimSuffix(done, "}\n") + `,"error":"late"}`,
		strings.Replace(done, `,"result":{`, `,"result":null,"x":{`, 1),
		strings.Replace(done, `"result":{`, `"result": {`, 1),
		strings.Replace(done, `"result":{`, `"result":[`, 1),
		`{"id":"x","state":"done","spec":{},"result":{"cpi":1}}`,
		`{"id":"x","state":"done","spec":{]},"result":{}}`,
		`{}`, `null`, ``,
	} {
		replies = append(replies, []byte(r))
	}
	for _, data := range replies {
		got, gotErr := DecodeRunReply(data)
		var want JobStatus
		wantErr := json.Unmarshal(data, &want)
		got.Spec, want.Spec = JobSpec{}, JobSpec{}
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeRunReply(%s) = %+v (%v); json.Unmarshal: %+v (%v)", data, got, gotErr, want, wantErr)
		}
	}
}
