package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pinnedloads/internal/obs"
	"pinnedloads/internal/simcache"
)

// apiError is the JSON body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs            submit a JobSpec; 202 queued, 200 cached/known,
//	                         400 bad spec, 429+Retry-After queue full,
//	                         503 draining; ?wait=<duration> holds a job that
//	                         is not terminal as GET ?wait= does
//	GET  /v1/jobs/{id}       job status (404 unknown); ?wait=<duration> holds
//	                         the answer until the job is terminal or the
//	                         duration (capped at MaxWait) has passed, 400 if
//	                         malformed or negative
//	GET  /v1/jobs/{id}/trace Chrome trace of a done job's event stream
//	GET  /v1/cache/{key}     local cached result as a checksummed envelope
//	                         (404 not cached here); HEAD probes existence
//	                         and size without the body
//	POST /v1/drain           stop accepting jobs, finish what is queued
//	GET  /healthz            liveness (503 once draining)
//	GET  /metrics            service counters as name=value lines
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCache)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// handleCache is the peering endpoint: it serves a done job from the
// registry, else this backend's local cache (memory+disk tiers only —
// never its own peers, so probes cannot recurse across the fleet), in
// the same checksummed envelope encoding the disk backend stores. The
// registry comes first because a result reaches the local tiers only after
// its waiter has it, whether a worker computed it or a peer served it. The
// prober verifies the checksum before trusting the bytes, so a torn
// response is a miss, not a poison.
// Registering GET also serves HEAD, which answers with the entry's size
// and no body — what `plctl cache probe` uses.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	out, ok := s.result(key)
	if !ok {
		var err error
		if out, ok, err = s.local.Get(key); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("service: cache read: %w", err))
			return
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no cached result for %q", key))
		return
	}
	data, err := simcache.EncodeEnvelope(out)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	if r.Method == http.MethodHead {
		return
	}
	s.count("svc.peer_served")
	w.Write(data)
}

// handleDrain takes the server out of rotation: it stops accepting new
// jobs but keeps serving status reads while queued work finishes.
// Idempotent; /healthz flips to 503 "draining" so probers notice.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.BeginDrain()
	queued, _ := s.QueueDepth()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":      "draining",
		"queue_depth": queued,
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad job spec: %w", err))
		return
	}
	st, err := s.Submit(&spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After",
			strconv.Itoa(int(s.opt.RetryAfter.Seconds())))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Only a submit that is not terminal reads the wait, so a hit answers
	// without parsing the query.
	if !st.State.Terminal() {
		wait, err := parseWait(r.URL.Query().Get("wait"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if wait > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), wait)
			st, _ = s.Wait(ctx, st.ID)
			cancel()
		}
	}
	// A job still queued is 202 Accepted; anything else (deduped, cache
	// hit, finished earlier or during the wait) is 200.
	code := http.StatusOK
	if st.State == StateQueued {
		code = http.StatusAccepted
	}
	s.writeStatus(w, code, st)
}

// MaxWait caps the ?wait= of a status read or a submit, so a parked
// request is bounded whatever the client asked for. Clients wanting to
// wait longer read again.
const MaxWait = 30 * time.Second

// parseWait reads the wait query parameter: absent is zero (answer at
// once), anything above MaxWait is MaxWait.
func parseWait(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("service: bad wait %q: want a non-negative duration such as 30s", v)
	}
	return min(d, MaxWait), nil
}

// handleJob answers with the job's status once it is terminal, the wait
// has passed or the client has gone away, whichever is first.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r.URL.Query().Get("wait"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	st, err := s.Wait(ctx, r.PathValue("id"))
	if errors.Is(err, ErrUnknownJob) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeStatus(w, http.StatusOK, st)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", ErrUnknownJob, id))
		return
	}
	if st.State != StateDone {
		writeError(w, http.StatusConflict,
			fmt.Errorf("service: job %s is %s, trace needs a done job", id, st.State))
		return
	}
	if st.Result == nil || len(st.Result.Events) == 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: job %s recorded no events; submit with trace_buffer > 0", id))
		return
	}
	short := id
	if len(short) > 12 {
		short = short[:12]
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", short+".trace.json"))
	if err := obs.WriteChromeTrace(w, st.Result.Events, len(st.Result.HW)); err != nil {
		// Headers are gone; nothing to do but log via a counter.
		s.count("svc.trace_write_errors")
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, capacity := s.QueueDepth()
	body := map[string]any{
		"status":         "ok",
		"draining":       s.Draining(),
		"queue_depth":    queued,
		"queue_capacity": capacity,
		"workers":        s.opt.Workers,
	}
	code := http.StatusOK
	if s.Draining() {
		body["status"] = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.Metrics())
}

// writeJSON writes v as compact JSON, the bytes json.Encoder writes:
// replies are for programs, and plctl (or jq) indents them for people.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.encodeFailed(w, err)
		return
	}
	writeBody(w, code, append(body, '\n'))
}

// encodeFailed answers a reply that did not encode, a NaN among a result's
// floats say, with a 500 that says why rather than an empty 200.
func (s *Server) encodeFailed(w http.ResponseWriter, err error) {
	s.count("svc.encode_errors")
	writeError(w, http.StatusInternalServerError, fmt.Errorf("service: encoding the reply: %w", err))
}

func writeError(w http.ResponseWriter, code int, err error) {
	// A struct of one string always encodes.
	body, _ := json.Marshal(apiError{Error: err.Error()})
	writeBody(w, code, append(body, '\n'))
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}
