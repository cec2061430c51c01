package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pinnedloads/internal/trace"
)

// TestHitPathAllocs pins the allocations of a warm hit, layer by layer: the
// proxy lookup every resolve makes, naming a job (Normalize + Key), a
// registry hit through Submit, and the same hit through the HTTP handler.
// A hit repeats these for every job of every warm sweep, so a moved count
// means each hit does different work; re-record it with the reason.
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
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/jobs of a done job: %d %s", rec.Code, rec.Body)
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
		{"POST /v1/jobs hit", 95, func() { post() }},
	} {
		if got := testing.AllocsPerRun(20, c.fn); got > c.budget {
			t.Errorf("%s allocates %v times, want at most %v", c.name, got, c.budget)
		}
	}
}
