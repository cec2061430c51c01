package main

import (
	"bytes"
	"context"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"pinnedloads/internal/experiments"
	"pinnedloads/internal/fleet"
	"pinnedloads/internal/service"
	"pinnedloads/internal/service/client"
	"pinnedloads/internal/simrun"
)

// fig7_fleet3: the Figure 7 sweep through Runner{Remote} → fleet.Fleet →
// three peered in-process backends. After the cold pass the simulator does
// nothing; service, service/client, all four simcache tiers, fleet and
// HTTP do the work. It is the workload a change to where jobs are placed
// must hold still on.
//
//	A  one cold pass: every job simulates once, results land in memory+disk
//	B  fleetRegistryPasses passes: registry (dedup) hits
//	C  fleetDiskPasses × {restart all three servers, one pass}: disk hits
//	D  restart, then one sweep through a plain client against each backend
//	   in turn: a third of each are disk hits, the rest owner-first peer hits
const (
	fleetBackends       = 3
	fleetWarmup         = 3_000
	fleetMeasure        = 8_000
	fleetRegistryPasses = 32
	fleetDiskPasses     = 10
)

type fleetState struct {
	jobs    []simJob
	cluster *cluster
	// transport carries every client-side request, so that idle
	// connections to a stopped server can be dropped between phases.
	transport *http.Transport
	requests  atomic.Int64
	ref       *requestRef
	cold      []*simrun.Output // phase A's results, in job order
	coldMS    []float64        // and their client-observed latencies
}

// RoundTrip counts client-side requests.
func (st *fleetState) RoundTrip(r *http.Request) (*http.Response, error) {
	st.requests.Add(1)
	return st.transport.RoundTrip(r)
}

// timedRemote wraps a RemoteRunner and records what its caller observes.
type timedRemote struct {
	e     *env
	name  string // span name
	inner experiments.RemoteRunner
	lat   []float64 // per job, ms
	outs  []*simrun.Output
}

func (t *timedRemote) Run(ctx context.Context, spec service.JobSpec) (*simrun.Output, error) {
	sp := t.e.tr.begin(t.name, len(t.lat))
	t0 := time.Now()
	out, err := t.inner.Run(ctx, spec)
	dt := time.Since(t0)
	t.e.tr.end(sp)
	if t.e.op(err) {
		t.lat = append(t.lat, ms(dt))
		t.outs = append(t.outs, out)
	}
	return out, err
}

func fleetWorkload() workload {
	return workload{
		name: "fig7_fleet3",
		setup: func(e *env) (any, func(), error) {
			if err := primeFig7(); err != nil {
				return nil, nil, err
			}
			dir := filepath.Join(e.workdir, "fleet")
			c, err := startCluster(dir, fleetBackends)
			if err != nil {
				return nil, nil, err
			}
			ref, err := newRequestRef()
			if err != nil {
				c.stop()
				return nil, nil, err
			}
			st := &fleetState{
				ref:       ref,
				jobs:      fig7Jobs(scaled(fleetWarmup, e.scale, 500), scaled(fleetMeasure, e.scale, 500)),
				cluster:   c,
				transport: &http.Transport{MaxIdleConnsPerHost: 4},
			}
			teardown := func() {
				st.transport.CloseIdleConnections()
				ref.close()
				c.stop()
			}
			return st, teardown, nil
		},
		run: func(e *env, state any) (int, error) {
			return runFleet(e, state.(*fleetState))
		},
		verify: func(e *env, state any) { verifyFleet(e, state.(*fleetState), nil) },
	}
}

// restartCluster restarts the trio between phases and reports how long it
// took.
func restartCluster(e *env, st *fleetState) (float64, error) {
	sp := e.tr.begin("service.restart", -1)
	defer e.tr.end(sp)
	t0 := time.Now()
	st.transport.CloseIdleConnections()
	err := st.cluster.restart()
	return ms(time.Since(t0)), err
}

func runFleet(e *env, st *fleetState) (int, error) {
	p := experiments.Params{Warmup: st.jobs[0].warmup, Measure: st.jobs[0].measure, Seed: simSeed}
	n := len(st.jobs)
	fl, err := fleet.New(fleet.Options{Backends: st.cluster.urls(), Transport: st})
	if err != nil {
		return 0, err
	}
	// pass runs one sweep through remote and returns it with the latencies
	// its jobs' caller saw.
	pass := func(name, span string, remote experiments.RemoteRunner) (*sweep, *timedRemote, error) {
		tr := &timedRemote{e: e, name: span, inner: remote}
		s, err := runSweep(e, name, p, func(r *experiments.Runner) { r.Remote = tr })
		if err == nil {
			e.check(s.runner.RemoteRuns() == int64(n) && s.runner.Simulations() == 0,
				"%s: %d remote runs, %d local simulations", name, s.runner.RemoteRuns(), s.runner.Simulations())
		}
		return s, tr, err
	}

	// A: cold.
	e.cal.begin("A")
	a, cold, err := pass("phase A", "fleet.Run", fl)
	if err != nil {
		return 0, err
	}
	st.cold, st.coldMS = cold.outs, cold.lat
	coldRequests := st.requests.Load()
	executed := st.cluster.counter("svc.executed")
	e.check(executed == uint64(n), "phase A executed %d jobs fleet-wide, want %d", executed, n)
	var most uint64
	for _, b := range st.cluster.backends {
		if v := b.counter("svc.executed"); v > most {
			most = v
		}
	}
	stats := newSimStats()
	for _, out := range cold.outs {
		stats.add(out)
	}

	var (
		passMS     = make(map[string][]float64) // phase -> wall of each of its passes
		hits       []float64                    // their per-job latencies, all tiers pooled
		registry   []float64
		diskHits   []float64
		peerHits   []float64
		restartMS  []float64
		remoteRuns = a.runner.RemoteRuns()
	)
	warmPass := func(phase, name, span string, remote experiments.RemoteRunner) ([]float64, error) {
		s, tr, err := pass(name, span, remote)
		if err != nil {
			return nil, err
		}
		e.check(bytes.Equal(s.csv, a.csv), "%s renders different CSV bytes than phase A", name)
		passMS[phase] = append(passMS[phase], s.wallMS)
		e.op(st.ref.run(phase, refTripsPerPass))
		hits = append(hits, tr.lat...)
		remoteRuns += s.runner.RemoteRuns()
		return tr.lat, nil
	}

	// B: registry hits.
	e.cal.begin("B")
	for i := int64(0); i < scaled(fleetRegistryPasses, e.scale, 1); i++ {
		lat, err := warmPass("B", "phase B", "fleet.Run", fl)
		if err != nil {
			return 0, err
		}
		registry = append(registry, lat...)
	}

	// C: disk hits after a restart.
	e.cal.begin("C")
	for i := int64(0); i < scaled(fleetDiskPasses, e.scale, 1); i++ {
		d, err := restartCluster(e, st)
		if err != nil {
			return 0, err
		}
		restartMS = append(restartMS, d)
		lat, err := warmPass("C", "phase C", "fleet.Run", fl)
		if err != nil {
			return 0, err
		}
		diskHits = append(diskHits, lat...)
	}

	// D: every job through each backend in turn, so two thirds of each
	// sweep are keys the backend does not own and must fetch from a peer.
	e.cal.begin("D")
	d, err := restartCluster(e, st)
	if err != nil {
		return 0, err
	}
	restartMS = append(restartMS, d)
	ring := fleet.NewRing(st.cluster.urls(), 0)
	owner := make([]string, n)
	for i, j := range st.jobs {
		spec := jobSpec(j)
		if e.op(spec.Normalize()) {
			owner[i] = ring.Order(spec.Key())[0]
		}
	}
	var single *client.Client
	for _, b := range st.cluster.backends {
		single = client.New(b.url())
		single.HTTP = &http.Client{Transport: st}
		lat, err := warmPass("D", "phase D "+b.addr, "client.Run", single)
		if err != nil {
			return 0, err
		}
		for i := range lat {
			if owner[i] != b.url() {
				peerHits = append(peerHits, lat[i])
			}
		}
	}

	after := st.cluster.counter("svc.executed")
	e.check(after == uint64(n), "fleet executed %d jobs after the warm phases, want %d", after, n)
	wantPeer := uint64((fleetBackends - 1) * n)
	e.check(st.cluster.counter("svc.peer_hits") == wantPeer, "fleet served %d peer hits, want %d", st.cluster.counter("svc.peer_hits"), wantPeer)

	coldWall := a.wallMS * e.cal.factor("A")
	// A warm phase costs its number of passes times its median pass: the
	// host's bursts land on a few passes of many. Hits are request work,
	// so it is the reference round trip that says how fast the host was.
	var warmMS, warmRawMS float64
	for phase, walls := range passMS {
		warmRawMS += sum(walls)
		warmMS += float64(len(walls)) * percentile(walls, 50) * st.ref.factor(phase)
	}
	e.led.set("cold_jobs_per_s", float64(n)*1000/coldWall)
	a.reportSpeed(e, st.jobs, e.cal.factor("A"))
	e.led.set("warm_jobs_per_s", float64(len(hits))*1000/warmMS)
	e.led.setN("hit_p50_ms", percentile(hits, 50)*st.ref.factor("B", "C", "D"), len(hits))
	// The same rate over the passes' summed wall time, bursts included.
	e.led.set("fleet.warm_wall_jobs_per_s", float64(len(hits))*1000/(warmRawMS*e.cal.factor("B", "C", "D")))

	stats.report(e.led)
	e.led.set("experiments.simulations", 0)
	e.led.set("experiments.forks", 0)
	e.led.set("experiments.remote_runs", float64(remoteRuns))
	e.led.set("fleet.executed_total", float64(after))
	e.led.set("fleet.shard_imbalance", float64(most)*fleetBackends/float64(executed))
	e.led.set("service.executed", float64(after))
	e.led.set("service.cache_hits", float64(st.cluster.counter("svc.cache_hits")))
	e.led.set("service.dedup_hits", float64(st.cluster.counter("svc.dedup_hits")))
	e.led.set("service.peer_hits", float64(st.cluster.counter("svc.peer_hits")))
	e.led.set("service.peer_probes", float64(st.cluster.counter("svc.peer_probes")))
	if m, err := fl.Metrics(context.Background()); e.op(err) {
		e.led.set("fleet.submits", float64(m.Fleet["fleet.submits"]))
		e.led.set("fleet.failovers", float64(m.Fleet["fleet.failovers"]))
		e.led.set("fleet.spills", float64(m.Fleet["fleet.spills"]))
	}

	if e.traced {
		e.led.set("host.ref_trip_ms", st.ref.tripMS("B", "C", "D"))
		e.led.set("service.restart_ms", mean(restartMS))
		e.led.setN("service.registry_hit_p50_ms", percentile(registry, 50), len(registry))
		e.led.setN("simcache.disk_hit_p50_ms", percentile(diskHits, 50), len(diskHits))
		e.led.setN("simcache.peer_hit_p50_ms", percentile(peerHits, 50), len(peerHits))
		e.led.setN("client.hit_p90_ms", percentile(hits, 90), len(hits))
		e.led.setN("client.hit_p99_ms", percentile(hits, 99), len(hits))
		e.led.setN("client.cold_job_p50_ms", percentile(cold.lat, 50), len(cold.lat))
		e.led.set("client.requests_per_cold_job", float64(coldRequests)/float64(n))
		e.led.set("experiments.render_ms", a.renderMS)
		e.led.set("experiments.runner_overhead_ms_per_job", a.overheadMSPerJob())

		// The last backend swept now holds every job in its registry: the
		// same sweep through the plain client again is a registry hit
		// without the fleet router in front.
		_, direct, err := pass("direct registry sweep", "client.Run", single)
		if err != nil {
			return 0, err
		}
		e.led.set("fleet.route_overhead_us", (percentile(registry, 50)-percentile(direct.lat, 50))*1000)

		// service.Submit on a finished job, with no HTTP in front.
		srv := st.cluster.backends[fleetBackends-1].srv
		var submitT time.Duration
		for i, j := range st.jobs {
			spec := jobSpec(j)
			sp := e.tr.begin("service.Submit", i)
			t0 := time.Now()
			status, err := srv.Submit(&spec)
			submitT += time.Since(t0)
			e.tr.end(sp)
			e.check(err == nil && status.State == service.StateDone, "%s: direct submit: state %q, %v", j, status.State, err)
		}
		e.led.set("service.submit_hit_us", us(submitT)/float64(n))

		steps := newStepStats()
		verifyFleet(e, st, steps)
		steps.report(e.led)
		probeLayers(e, st.jobs)
		e.led.set("bench.trace_overhead_frac", spanOverheadFrac(e.tr, a.wallMS+warmRawMS))
	}
	return n + len(hits), nil
}

// verifyFleet holds a seeded sample of the fleet's cold results against a
// fresh in-process simrun.Execute of the same spec. The same sample says
// how much of the client-observed cold latency the simulation accounts
// for; the rest is queueing, HTTP and the wait between polls.
func verifyFleet(e *env, st *fleetState, steps *stepStats) {
	fr := verifySample(e, st.jobs, steps)
	h := e.cal.factor("A")
	var execMS, clientMS float64
	for k, i := range fr.idx {
		out := fr.outs[k]
		if out == nil || i >= len(st.cold) {
			continue
		}
		e.check(bytes.Equal(out.MarshalCSV(), st.cold[i].MarshalCSV()), "%s: fleet result differs from a fresh simrun.Execute", st.jobs[i])
		execMS += fr.ms[k]
		clientMS += st.coldMS[i] * h
	}
	if e.traced && clientMS > 0 {
		e.led.set("client.poll_wait_frac", 1-execMS/clientMS)
	}
}
