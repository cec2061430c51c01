// Package client is the typed SDK for the plserved simulation service.
// It speaks the service's HTTP API with retry/backoff around transient
// failures (network errors, 5xx, and 429 backpressure honoring the
// server's Retry-After hint). Submission is idempotent — job IDs are
// content-addressed — so resubmitting after an ambiguous failure is
// always safe, which is what makes the retries sound.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"pinnedloads/internal/service"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/vclock"
)

// Clock is the injectable time source retry/backoff waits run on; tests
// drive a vclock.Fake instead of sleeping real time.
type Clock = vclock.Clock

// Client talks to one plserved instance. The zero retry/backoff fields
// get sensible defaults from New.
type Client struct {
	// Base is the server's root URL, e.g. "http://127.0.0.1:8321".
	Base string
	// HTTP is the underlying transport (default http.DefaultClient).
	HTTP *http.Client
	// Retries is how many times a transient failure is retried (default 4).
	Retries int
	// Backoff is the first retry delay; it doubles per attempt (default
	// 250ms). A 429's Retry-After header overrides it.
	Backoff time.Duration
	// Clock supplies Now/After for every backoff wait (default: the wall
	// clock).
	Clock Clock
}

// New returns a client for the server at base.
func New(base string) *Client {
	return &Client{
		Base:    strings.TrimRight(base, "/"),
		HTTP:    http.DefaultClient,
		Retries: 4,
		Backoff: 250 * time.Millisecond,
	}
}

// StatusError is a non-2xx API response.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Message)
}

// JobError reports a job that reached the failed state — the simulation
// itself errored, as opposed to the backend being unreachable. Callers
// federating over several backends use errors.As to tell the two apart:
// a JobError is deterministic and will fail identically anywhere, so it
// must not trigger failover.
type JobError struct {
	// Backend is the base URL of the server that reported the failure.
	Backend string
	// ID is the failed job's content-addressed ID.
	ID string
	// Message is the server's failure description.
	Message string
}

func (e *JobError) Error() string {
	return fmt.Sprintf("job %s failed on %s: %s", e.ID, e.Backend, e.Message)
}

// JobLostError reports a job that vanished mid-wait: the backend answered
// the status read but no longer knows the ID, which happens when it
// restarted and lost its in-memory registry (and no result cache holds the
// ID). Waiting
// longer cannot help — the caller must resubmit the job (submission is
// content-addressed, so a resubmit is always safe and, on a backend with a
// checkpoint directory, resumes from the job's last persisted checkpoint).
type JobLostError struct {
	// Backend is the base URL of the server that lost the job.
	Backend string
	// ID is the job that went missing.
	ID string
}

func (e *JobLostError) Error() string {
	return fmt.Sprintf("job %s lost on %s (backend restarted?): resubmit to continue", e.ID, e.Backend)
}

// wrap prefixes an error with the client package and the backend's
// address, keeping the cause reachable for errors.Is/As. Multi-backend
// callers depend on the address to attribute failures.
func (c *Client) wrap(err error) error {
	return fmt.Errorf("client: backend %s: %w", c.Base, err)
}

// clock returns the injected clock or the wall clock.
func (c *Client) clock() Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return vclock.Real{}
}

// retryable reports whether a response code is worth retrying: explicit
// backpressure, a draining server (another replica or a restart may
// accept), or a transient 5xx.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// send makes one request to path and reads the whole reply. A non-2xx reply
// comes back with its body and a *StatusError carrying the server's message:
// the JSON error field when there is one, else the body, else the status.
func (c *Client) send(ctx context.Context, method, path string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, c.wrap(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, nil, c.wrap(err)
	}
	// Sized from Content-Length when the reply has one, so a body is read
	// into one allocation rather than a growing series.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), 1<<20)+bytes.MinRead))
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, c.wrap(err)
	}
	data := buf.Bytes()
	if resp.StatusCode < 300 {
		return resp, data, nil
	}
	var ae struct {
		Error string `json:"error"`
	}
	json.Unmarshal(data, &ae)
	if ae.Error == "" {
		ae.Error = strings.TrimSpace(string(data))
	}
	if ae.Error == "" {
		ae.Error = resp.Status
	}
	return resp, data, c.wrap(&StatusError{Code: resp.StatusCode, Message: ae.Error})
}

// do issues one API request with the retry/backoff policy and decodes a
// 2xx JSON body into out (when non-nil; a *[]byte gets the body as it is).
// A failed request is tried again, up to Retries times, unless the server
// answered with a status retryable rejects.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		resp, data, err := c.send(ctx, method, path, body)
		if err == nil {
			if raw, ok := out.(*[]byte); ok || out == nil {
				if ok {
					*raw = data
				}
				return nil
			}
			if err := json.Unmarshal(data, out); err != nil {
				return c.wrap(fmt.Errorf("bad response body: %w", err))
			}
			return nil
		}
		wait := backoff
		if resp != nil {
			if !retryable(resp.StatusCode) {
				return err
			}
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs >= 0 {
				wait = time.Duration(secs) * time.Second
			}
		}
		if attempt >= c.Retries {
			return err
		}
		backoff *= 2
		select {
		case <-c.clock().After(wait):
		case <-ctx.Done():
			return c.wrap(ctx.Err())
		}
	}
}

// Submit registers the job and returns its status (which may already be
// terminal on a cache or dedup hit).
func (c *Client) Submit(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	var st service.JobStatus
	if err := c.submit(ctx, "/v1/jobs", spec, &st); err != nil {
		return service.JobStatus{}, err
	}
	return st, nil
}

// runPath submits and waits in one request: the server holds the reply
// until the job is terminal or service.MaxWait has passed.
var runPath = "/v1/jobs?wait=" + service.MaxWait.String()

// submit posts the spec to path and decodes the reply into out.
func (c *Client) submit(ctx context.Context, path string, spec service.JobSpec, out any) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	return c.do(ctx, http.MethodPost, path, body, out)
}

// Get fetches a job's current status.
func (c *Client) Get(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return service.JobStatus{}, err
	}
	return st, nil
}

// waitFloor separates two non-terminal status reads. A server holds each
// read for up to service.MaxWait, so the floor only paces a server that
// ignores the wait parameter.
const waitFloor = 25 * time.Millisecond

// Wait follows the job until it is terminal (or ctx ends) with blocking
// status reads: the server answers each the moment the job finishes, or
// with the current status once service.MaxWait has passed.
func (c *Client) Wait(ctx context.Context, id string) (service.JobStatus, error) {
	path := "/v1/jobs/" + id + "?wait=" + service.MaxWait.String()
	for {
		var st service.JobStatus
		if err := c.do(ctx, http.MethodGet, path, nil, &st); err != nil {
			// A 404 mid-wait means the backend restarted and lost the job:
			// it will never reach a terminal state, so reading on would
			// spin forever. Surface the dedicated error instead.
			var serr *StatusError
			if errors.As(err, &serr) && serr.Code == http.StatusNotFound {
				return service.JobStatus{}, c.wrap(&JobLostError{Backend: c.Base, ID: id})
			}
			return service.JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-c.clock().After(waitFloor):
		case <-ctx.Done():
			return service.JobStatus{}, c.wrap(ctx.Err())
		}
	}
}

// Run submits the job and waits for its result — the round trip the
// experiment runner's Remote hook needs. One request does both unless the
// job outlasts service.MaxWait; then Run follows it with Wait. A failed job
// becomes an error.
func (c *Client) Run(ctx context.Context, spec service.JobSpec) (*simrun.Output, error) {
	var reply []byte
	if err := c.submit(ctx, runPath, spec, &reply); err != nil {
		return nil, err
	}
	st, err := service.DecodeRunReply(reply)
	if err != nil {
		return nil, c.wrap(fmt.Errorf("bad response body: %w", err))
	}
	if !st.State.Terminal() {
		if st, err = c.Wait(ctx, st.ID); err != nil {
			return nil, err
		}
	}
	if st.State != service.StateDone {
		return nil, c.wrap(&JobError{Backend: c.Base, ID: st.ID, Message: st.Error})
	}
	return st.Result, nil
}

// CacheProbe asks whether the backend's local result cache holds key
// (HEAD /v1/cache/{key}) without transferring the entry; size is the
// entry's encoded byte count on a hit. One round trip, no retries — this
// is an operator's debugging probe, not a data path.
func (c *Client) CacheProbe(ctx context.Context, key string) (hit bool, size int64, err error) {
	resp, _, err := c.send(ctx, http.MethodHead, "/v1/cache/"+url.PathEscape(key), nil)
	switch {
	case err == nil:
		return true, resp.ContentLength, nil
	case resp != nil && resp.StatusCode == http.StatusNotFound:
		return false, 0, nil
	}
	return false, 0, err
}

// Trace downloads a done job's Chrome trace JSON.
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Health is the typed /healthz body.
type Health struct {
	Status        string `json:"status"`
	Draining      bool   `json:"draining"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Workers       int    `json:"workers"`
}

// Healthz probes the liveness endpoint with a single request — no
// retries, because the caller is typically a health prober that wants the
// raw verdict immediately. A draining server decodes into h but still
// returns an error (it is not accepting work).
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	_, data, err := c.send(ctx, http.MethodGet, "/healthz", nil)
	var h Health
	json.Unmarshal(data, &h)
	return h, err
}

// Drain asks the server to stop accepting jobs and finish what it has
// (POST /v1/drain). Draining an already-draining server is a no-op.
func (c *Client) Drain(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/drain", nil, nil)
}

// Metrics fetches the server's counters as a name -> value map.
func (c *Client) Metrics(ctx context.Context) (map[string]uint64, error) {
	_, data, err := c.send(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64)
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, "=")
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, c.wrap(fmt.Errorf("bad metrics line %q", line))
		}
		m[name] = v
	}
	return m, nil
}
