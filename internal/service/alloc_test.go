package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pinnedloads/internal/simcache"
	"pinnedloads/internal/trace"
)

// TestHitPathAllocs pins the allocations of a warm hit, layer by layer: the
// proxy lookup every resolve makes, naming a job (Normalize + Key), a
// registry hit through Submit, the same hit through the HTTP handler, the
// client's decodes of its reply, and the decode of a disk or peer entry.
// A hit repeats these for every job of every warm sweep, so a moved count
// means each hit does different work; re-record it with the reason.
//
// The handler rows fell from 95 to 38 when a done reply stopped going
// through encoding/json's reflection over the result. What is left of a
// decode is what the result holds: its map and the Output, which
// encoding/json allocates too. The counter names are not among them: a
// decode reuses the names earlier decodes read (simrun.interned), which
// took the three decodes of a result from 58, 38 and 35 to 29, 9 and 6.
func TestHitPathAllocs(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation budgets do not hold under the race detector or -coverpkg")
	}
	s, _ := newTestServer(t, Options{Workers: 1})
	first := tinySpec()
	st, err := s.Submit(&first)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = s.Wait(context.Background(), st.ID); err != nil || st.State != StateDone {
		t.Fatalf("warm-up job: state %q, %v", st.State, err)
	}
	body, err := json.Marshal(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	post := func(target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
		return rec
	}
	rec := post("/v1/jobs")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/jobs of a done job: %d %s", rec.Code, rec.Body)
	}
	reply := rec.Body.Bytes()
	entry, err := simcache.EncodeEnvelope(st.Result)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name   string
		budget float64
		fn     func()
	}{
		{"trace.ByName", 0, func() { trace.ByName("water_spatial") }},
		{"JobSpec.Normalize+Key", 5, func() {
			spec := tinySpec()
			if spec.Normalize() != nil || spec.Key() != st.ID {
				t.Fatal("tinySpec does not name the warm-up job")
			}
		}},
		{"Server.Submit hit", 5, func() {
			spec := tinySpec()
			if _, err := s.Submit(&spec); err != nil {
				t.Fatal(err)
			}
		}},
		{"POST /v1/jobs hit", 38, func() { post("/v1/jobs") }},
		// What client.Run sends: a hit answers without reading the wait.
		{"POST /v1/jobs?wait=30s hit", 38, func() { post("/v1/jobs?wait=30s") }},
		// What the client's Submit, Get and Wait do with the reply.
		{"client decode of a hit reply", 29, func() {
			var got JobStatus
			if err := json.Unmarshal(reply, &got); err != nil || got.ID != st.ID {
				t.Fatalf("decoding the hit reply: %v", err)
			}
		}},
		// What client.Run does with it (46 through encoding/json, spec
		// left undecoded).
		{"client.Run decode of a hit reply", 9, func() {
			if got, err := DecodeRunReply(reply); err != nil || got.ID != st.ID {
				t.Fatalf("decoding the hit reply: %v", err)
			}
		}},
		// Every disk hit, and every peer hit on the fetching side (53
		// through encoding/json).
		{"DecodeEnvelope of a disk entry", 6, func() {
			if _, err := simcache.DecodeEnvelope(entry); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(20, c.fn); got > c.budget {
			t.Errorf("%s allocates %v times, want at most %v", c.name, got, c.budget)
		}
	}
}
