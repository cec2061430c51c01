package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"pinnedloads/internal/checkpoint"
	"pinnedloads/internal/simcache"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/stats"
)

// State is a job's lifecycle position. Jobs move strictly
// queued -> running -> done | failed; a cache-served job is born done.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Options configures a Server.
type Options struct {
	// Workers is the simulation worker-pool size (default: all CPUs).
	Workers int
	// QueueDepth bounds how many jobs may wait for a worker (default 64).
	// A submit beyond the bound is rejected with ErrQueueFull — the HTTP
	// layer maps it to 429 + Retry-After.
	QueueDepth int
	// JobTimeout bounds one job's simulation time via context deadline
	// (0 = unbounded).
	JobTimeout time.Duration
	// RetryAfter is the backoff hint returned with queue-full rejections
	// (default 2s).
	RetryAfter time.Duration
	// Cache stores results by job ID (default: unbounded in-memory). This
	// is the server's *local* cache: the /v1/cache peering endpoint serves
	// it directly, and it is read before Peers. A peer hit is answered
	// first and written to it afterwards, before Drain returns.
	Cache simcache.Cache
	// Peers lists sibling plserved base URLs whose /v1/cache endpoints are
	// probed once, at submit, on a local miss. A warm result anywhere in
	// the fleet then serves as a network hit here — fleet-wide exactly-once
	// execution. Probes fail open: a dead, slow or corrupt peer is a miss,
	// and the job computes locally.
	Peers []string
	// PeerTimeout bounds each individual peer probe (default 500ms).
	PeerTimeout time.Duration
	// PeerRank orders the peers probed for a key — owner-first when built
	// from the fleet's consistent-hash ring (see fleet.NewRing), so the
	// backend most likely to hold the key is asked first. Defaults to the
	// configured Peers order.
	PeerRank func(key string) []string
	// CheckpointDir, when set, persists a periodic checkpoint per running
	// job to <dir>/<jobID>.ckpt (written atomically, deleted on success).
	// A resubmitted job whose checkpoint survives — e.g. after the backend
	// was SIGKILLed mid-run — resumes from it instead of starting over; a
	// file there that does not restore into the job is removed and the job
	// runs cold.
	CheckpointDir string
	// CheckpointEvery is the cycle interval between persisted checkpoints
	// (default 500k cycles when CheckpointDir is set).
	CheckpointEvery int64
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submit when every queue slot is taken.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrDraining rejects submits after Drain began.
	ErrDraining = errors.New("service: server is draining")
	// ErrUnknownJob answers a read of an ID neither the registry nor the
	// result cache holds.
	ErrUnknownJob = errors.New("service: unknown job")
)

// Server owns the job registry, the bounded queue and the worker pool.
// Create with New, start with Start, serve its API via Handler, stop with
// Drain (graceful) and/or Close (abandon in-flight work).
type Server struct {
	opt Options
	// local is what a read tries first, a job writes and /v1/cache serves
	// (so one backend's probe can never recurse into another probe); peer
	// is what a local miss asks next, a miss at once without Peers.
	local simcache.Cache
	peer  *simcache.Peer

	mu       sync.Mutex
	jobs     map[string]*job
	queue    chan *job
	draining bool
	// fetching counts peer hits not yet written to local; fetched wakes
	// Drain at zero (no WaitGroup: a write may start while Drain waits).
	fetching int
	fetched  sync.Cond

	workers sync.WaitGroup
	baseCtx context.Context
	cancel  context.CancelFunc

	cmu      sync.Mutex
	counters stats.Counters
}

// job is one tracked simulation. Its fields are guarded by the server
// mutex; done closes when the job reaches a terminal state.
type job struct {
	id       string
	spec     JobSpec
	state    State
	err      string
	out      *simrun.Output
	cacheHit bool
	done     chan struct{}
}

// JobStatus is the wire snapshot of a job.
type JobStatus struct {
	ID       string  `json:"id"`
	State    State   `json:"state"`
	Spec     JobSpec `json:"spec"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	Error    string  `json:"error,omitempty"`
	// Result is set once State is "done".
	Result *simrun.Output `json:"result,omitempty"`
}

// New builds a server; call Start to launch its workers.
func New(opt Options) *Server {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 64
	}
	if opt.RetryAfter <= 0 {
		opt.RetryAfter = 2 * time.Second
	}
	if opt.CheckpointDir != "" && opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = 500_000
	}
	local := opt.Cache
	if local == nil {
		local = simcache.NewMemory(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:     opt,
		local:   local,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, opt.QueueDepth),
		baseCtx: ctx,
		cancel:  cancel,
	}
	s.fetched.L = &s.mu
	s.peer = simcache.NewPeer(opt.Peers)
	s.peer.Timeout = opt.PeerTimeout
	s.peer.Rank = opt.PeerRank
	s.peer.Counter = func(name string) { s.count("svc." + name) }
	return s
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.opt.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
}

// Submit registers the spec as a job and returns its status. Submission
// is idempotent by content: an identical spec maps to the same job ID,
// and a resubmit attaches to the existing job (or its cached result)
// instead of simulating again. ErrQueueFull and ErrDraining report
// backpressure; the spec is normalized in place.
func (s *Server) Submit(spec *JobSpec) (JobStatus, error) {
	if err := spec.Normalize(); err != nil {
		return JobStatus{}, err
	}
	id := spec.Key()

	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		st := s.snapshotLocked(j)
		s.mu.Unlock()
		s.count("svc.dedup_hits")
		return st, nil
	}
	s.mu.Unlock()

	// Cache probe happens outside the lock (it may touch disk or peers).
	if out, fetched, ok := s.get(id); ok {
		s.mu.Lock()
		if _, exists := s.jobs[id]; !exists {
			s.jobs[id] = &job{id: id, spec: *spec, state: StateDone, out: out,
				cacheHit: true, done: closedChan()}
		}
		st := s.snapshotLocked(s.jobs[id])
		s.mu.Unlock()
		if fetched {
			s.keep(id, out)
		}
		s.count("svc.cache_hits")
		return st, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok { // lost a race with an identical submit
		s.count("svc.dedup_hits")
		return s.snapshotLocked(j), nil
	}
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	j := &job{id: id, spec: *spec, state: StateQueued, done: make(chan struct{})}
	select {
	case s.queue <- j:
		s.jobs[id] = j
		s.count("svc.submitted")
		return s.snapshotLocked(j), nil
	default:
		s.count("svc.rejected")
		return JobStatus{}, ErrQueueFull
	}
}

// Job returns the status of a job by ID. Unknown IDs fall back to the
// result cache, so completed work survives a registry restart.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		st := s.snapshotLocked(j)
		s.mu.Unlock()
		return st, true
	}
	s.mu.Unlock()
	out, fetched, ok := s.get(id)
	if !ok {
		return JobStatus{}, false
	}
	if fetched {
		s.keep(id, out)
	}
	// The cache has the result but not the spec (the registry entry is
	// gone); report what is known.
	return JobStatus{ID: id, State: StateDone, CacheHit: true, Result: out}, true
}

// get reads the local tiers, then the peers; fetched reports a peer hit.
func (s *Server) get(id string) (out *simrun.Output, fetched, ok bool) {
	out, ok, err := s.local.Get(id)
	if err != nil || ok {
		return out, false, ok
	}
	out, ok = s.peer.Get(id)
	return out, ok, ok
}

// keep writes a peer hit to local off the request; Drain waits for it.
func (s *Server) keep(id string, out *simrun.Output) {
	s.mu.Lock()
	s.fetching++
	s.mu.Unlock()
	go func() {
		if err := s.local.Put(id, out); err != nil {
			s.count("svc.cache_write_errors")
		}
		s.mu.Lock()
		s.fetching--
		s.fetched.Broadcast()
		s.mu.Unlock()
	}()
}

// result returns a done job's output from the registry.
func (s *Server) result(id string) (*simrun.Output, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok && j.state == StateDone {
		return j.out, true
	}
	return nil, false
}

// Wait blocks until the job reaches a terminal state or ctx is done and
// returns the job's status at that moment: a non-terminal status comes
// with ctx's error. An ID neither the registry nor the cache holds is
// ErrUnknownJob.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		if st, found := s.Job(id); found {
			return st, nil
		}
		return JobStatus{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	s.mu.Lock()
	st := s.snapshotLocked(j)
	s.mu.Unlock()
	if !st.State.Terminal() {
		return st, ctx.Err()
	}
	return st, nil
}

// runJob executes one queued job on a worker.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	j.state = StateRunning
	s.mu.Unlock()

	// A result may have landed in the local tiers between submit and
	// execution (e.g. a shared disk cache filled by another daemon). The
	// peers were asked at submit; asking them again here would only repeat
	// that round.
	if out, ok, err := s.local.Get(j.id); err == nil && ok {
		s.count("svc.cache_hits")
		s.finish(j, out, true, nil)
		return
	}

	ctx := s.baseCtx
	if s.opt.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.JobTimeout)
		defer cancel()
	}
	run, err := j.spec.resolve()
	if err != nil {
		s.finish(j, nil, false, err)
		return
	}
	ckptPath := ""
	if s.opt.CheckpointDir != "" {
		ckptPath = filepath.Join(s.opt.CheckpointDir, j.id+".ckpt")
		run.CheckpointEvery = s.opt.CheckpointEvery
		run.CheckpointSink = func(b []byte) error {
			if err := checkpoint.WriteFile(ckptPath, b); err != nil {
				s.count("svc.checkpoint_write_errors")
				// A checkpoint that fails to persist must not kill the
				// job; it only narrows the resume window.
				return nil
			}
			s.count("svc.checkpoints")
			return nil
		}
		run.OnResume = func(m checkpoint.Meta) {
			s.count("svc.resumed_jobs")
			s.countN("svc.resumed_cycles", uint64(m.Cycle))
		}
		// What a killed predecessor left; the run decides whether it is
		// this job's.
		run.Resume, _ = os.ReadFile(ckptPath)
	}
	out, err := run.ExecuteOrCold(ctx, func(err error) {
		// A checkpoint that does not restore is removed and the job runs
		// cold rather than failing. One this binary cannot restore (an
		// older format, another machine or policy: there is no migration)
		// is a resume fallback; anything else — another run's checkpoint,
		// a corrupted write — is invalid.
		var old *checkpoint.VersionError
		var other *checkpoint.MismatchError
		if errors.As(err, &old) || errors.As(err, &other) {
			s.count("svc.resume_fallbacks")
		} else {
			s.count("svc.checkpoint_invalid")
		}
		os.Remove(ckptPath)
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.count("svc.timeouts")
		}
		s.finish(j, nil, false, err)
		return
	}
	s.count("svc.executed")
	// The checkpoint goes before the waiter wakes, so nothing that follows
	// the reply finds a finished job's checkpoint. The result is
	// acknowledged before it is durable: while the put runs, the registry
	// answers for the job (submits, reads and /v1/cache alike), and Drain
	// waits for the put because it stays on this worker.
	if ckptPath != "" {
		os.Remove(ckptPath)
	}
	s.finish(j, out, false, nil)
	if err := s.local.Put(j.id, out); err != nil {
		s.count("svc.cache_write_errors")
	}
}

// finish moves a job to its terminal state and wakes waiters.
func (s *Server) finish(j *job, out *simrun.Output, cacheHit bool, err error) {
	s.mu.Lock()
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
		s.count("svc.failed")
	} else {
		j.state = StateDone
		j.out = out
		j.cacheHit = cacheHit
		s.count("svc.completed")
	}
	s.mu.Unlock()
	close(j.done)
}

// BeginDrain stops accepting jobs without waiting for the workers to
// finish — the non-blocking half of Drain, used by the HTTP drain
// endpoint so a fleet controller can take a backend out of rotation and
// poll /healthz for completion. Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // all sends hold s.mu and check draining first
	}
	s.mu.Unlock()
}

// Drain stops accepting jobs, lets the workers finish everything already
// queued or running, and returns when the pool is idle and every result is
// written locally (or ctx expires: in-flight jobs then run until Close).
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()

	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		s.mu.Lock()
		for s.fetching > 0 {
			s.fetched.Wait()
		}
		s.mu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// Close cancels in-flight simulations (their jobs fail with a context
// error) and releases the server. Use Drain first for a graceful stop.
func (s *Server) Close() {
	s.cancel()
	s.Drain(context.Background())
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth returns (queued, capacity).
func (s *Server) QueueDepth() (int, int) { return len(s.queue), cap(s.queue) }

// snapshotLocked copies a job into its wire form; callers hold s.mu.
func (s *Server) snapshotLocked(j *job) JobStatus {
	st := JobStatus{ID: j.id, State: j.state, Spec: j.spec,
		CacheHit: j.cacheHit, Error: j.err}
	if j.state == StateDone {
		st.Result = j.out
	}
	return st
}

// count bumps a service counter (stats.Counters is not concurrency-safe,
// so all increments funnel through one mutex).
func (s *Server) count(name string) {
	s.cmu.Lock()
	s.counters.Inc(name)
	s.cmu.Unlock()
}

// countN adds n to a service counter.
func (s *Server) countN(name string, n uint64) {
	s.cmu.Lock()
	s.counters.Add(name, n)
	s.cmu.Unlock()
}

// Metrics renders every service counter plus live gauges as sorted
// name=value lines — the /metrics wire format.
func (s *Server) Metrics() string {
	s.cmu.Lock()
	snap := s.counters.Snapshot()
	s.cmu.Unlock()
	s.mu.Lock()
	snap["svc.jobs"] = uint64(len(s.jobs))
	s.mu.Unlock()
	snap["svc.queue_depth"] = uint64(len(s.queue))
	snap["svc.queue_capacity"] = uint64(cap(s.queue))
	snap["svc.workers"] = uint64(s.opt.Workers)
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, snap[n])
	}
	return b.String()
}

// closedChan returns an already-closed channel for cache-born jobs.
func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}
