package main

import (
	"path/filepath"
	"runtime"
	"time"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/checkpoint"
	"pinnedloads/internal/core"
	"pinnedloads/internal/service"
	"pinnedloads/internal/simcache"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/speckey"
)

// Layer probes: short timed calls into the layers a sweep or a daemon
// reaches only from inside, on inputs taken from the workload's own job
// list. They run in the traced run, after the workload's passes.
const (
	probeJobs      = 8       // jobs whose specs and outputs the probes use
	probeCkptJobs  = 3       // of those, how many are checkpointed
	probeGenInsts  = 200_000 // instructions generated for trace.gen_ns_per_inst
	probeCacheReps = 200     // repeats of a sub-microsecond call per timing
)

// timeEach returns the mean duration of fn over reps calls.
func timeEach(reps int, fn func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(t0) / time.Duration(reps)
}

// jobSpec is the wire form of a job, as experiments.Runner builds it for a
// remote backend.
func jobSpec(j simJob) service.JobSpec {
	return service.JobSpec{
		Benchmark:   j.bench,
		Scheme:      j.pol.Scheme.String(),
		Variant:     j.pol.Variant.String(),
		Consistency: j.pol.Consistency.String(),
		Seed:        simSeed,
		Warmup:      j.warmup,
		Measure:     j.measure,
	}
}

// probeLayers times the layers below the workload on its first few jobs.
func probeLayers(e *env, jobs []simJob) {
	sp := e.tr.begin("bench.probes", -1)
	defer e.tr.end(sp)
	if stride := len(jobs) / probeJobs; stride > 1 {
		// Spread over the list: a sweep's neighbours are one proxy's policies.
		picked := make([]simJob, probeJobs)
		for i := range picked {
			picked[i] = jobs[i*stride]
		}
		jobs = picked
	}

	// trace: instruction generation alone.
	gen := jobs[0].source().Generator(0, simSeed)
	g := e.tr.begin("trace.Generator", -1)
	t0 := time.Now()
	for i := 0; i < probeGenInsts; i++ {
		gen.Next()
	}
	e.led.set("trace.gen_ns_per_inst", float64(time.Since(t0))/probeGenInsts)
	e.tr.end(g)

	// speckey and service: run identity.
	var keyT, normT time.Duration
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		cfg := arch.PaperConfig(j.source().Cores())
		k := e.tr.begin("speckey.Key", i)
		keyT += timeEach(probeCacheReps, func() {
			keys[i] = speckey.Spec{
				Benchmark: j.bench, Scheme: j.pol.Scheme.String(), Variant: j.pol.Variant.String(),
				Conds: uint8(j.pol.VPConds()), Consistency: j.pol.Consistency.String(),
				Seed: simSeed, Warmup: j.warmup, Measure: j.measure, Config: &cfg,
			}.Key()
		})
		e.tr.end(k)
		k = e.tr.begin("service.Normalize", i)
		normT += timeEach(probeCacheReps, func() {
			spec := jobSpec(j)
			if err := spec.Normalize(); err == nil {
				_ = spec.Key()
			}
		})
		e.tr.end(k)
	}
	e.led.set("speckey.key_us", us(keyT)/float64(len(jobs)))
	e.led.set("service.normalize_key_us", us(normT)/float64(len(jobs)))

	// simcache: the envelope and the memory and disk tiers, on the outputs
	// of the same jobs at a tenth of their length.
	outs := make([]*simrun.Output, len(jobs))
	for i, j := range jobs {
		j.warmup, j.measure = j.warmup/10, j.measure/10+1
		out, err := j.execute()
		if !e.op(err) {
			return
		}
		outs[i] = out
	}
	disk, err := simcache.NewDisk(filepath.Join(e.workdir, "probe-cache"))
	if !e.op(err) {
		return
	}
	mem := simcache.NewMemory(1024)
	var encT, decT, memPutT, memGetT, diskPutT, diskGetT time.Duration
	var envBytes int
	for i, out := range outs {
		var data []byte
		c := e.tr.begin("simcache.Envelope", i)
		encT += timeEach(10, func() { data, _ = simcache.EncodeEnvelope(out) })
		decT += timeEach(10, func() { _, err = simcache.DecodeEnvelope(data) })
		e.tr.end(c)
		e.check(err == nil && len(data) > 0, "envelope of %s does not round-trip: %v", jobs[i], err)
		envBytes += len(data)

		c = e.tr.begin("simcache.Memory", i)
		memPutT += timeEach(probeCacheReps, func() { mem.Put(keys[i], out) })
		memGetT += timeEach(probeCacheReps, func() { mem.Get(keys[i]) })
		e.tr.end(c)

		c = e.tr.begin("simcache.Disk", i)
		diskPutT += timeEach(3, func() { err = disk.Put(keys[i], out) })
		e.op(err)
		var ok bool
		diskGetT += timeEach(3, func() { _, ok, err = disk.Get(keys[i]) })
		e.tr.end(c)
		e.check(ok && err == nil, "disk tier lost %s: %v", jobs[i], err)
	}
	n := float64(len(outs))
	e.led.set("simcache.envelope_encode_us", us(encT)/n)
	e.led.set("simcache.envelope_decode_us", us(decT)/n)
	e.led.set("simcache.envelope_kb", float64(envBytes)/1024/n)
	e.led.set("simcache.mem_put_us", us(memPutT)/n)
	e.led.set("simcache.mem_get_us", us(memGetT)/n)
	e.led.set("simcache.disk_put_ms", ms(diskPutT)/n)
	e.led.set("simcache.disk_get_ms", ms(diskGetT)/n)

	probeCheckpoint(e, jobs)
}

// probeCheckpoint captures a warmed system and restores it into a fresh
// one, timing each side and the memory it allocates.
func probeCheckpoint(e *env, jobs []simJob) {
	if len(jobs) > probeCkptJobs {
		jobs = jobs[:probeCkptJobs]
	}
	const mb = 1 << 20
	var capT, resT time.Duration
	var capAlloc, resAlloc, blobBytes float64
	var m0, m1 runtime.MemStats
	for i, j := range jobs {
		cfg := arch.PaperConfig(j.source().Cores())
		sys, err := core.New(cfg, j.pol, j.source(), simSeed)
		if err == nil {
			_, err = sys.Run(0, j.warmup)
		}
		if !e.op(err) {
			return
		}
		fresh, err := core.New(cfg, j.pol, j.source(), simSeed)
		if !e.op(err) {
			return
		}

		runtime.ReadMemStats(&m0)
		c := e.tr.begin("checkpoint.Capture", i)
		t0 := time.Now()
		blob, err := checkpoint.Capture(sys, "probe")
		capT += time.Since(t0)
		e.tr.end(c)
		runtime.ReadMemStats(&m1)
		if !e.op(err) {
			return
		}
		capAlloc += float64(m1.TotalAlloc - m0.TotalAlloc)
		blobBytes += float64(len(blob))

		runtime.ReadMemStats(&m0)
		c = e.tr.begin("checkpoint.Restore", i)
		t0 = time.Now()
		_, err = checkpoint.Restore(blob, fresh)
		resT += time.Since(t0)
		e.tr.end(c)
		runtime.ReadMemStats(&m1)
		if !e.op(err) {
			return
		}
		resAlloc += float64(m1.TotalAlloc - m0.TotalAlloc)

		// The restored system must be the captured one: capturing it again
		// yields the same bytes.
		again, err := checkpoint.Capture(fresh, "probe")
		e.check(err == nil && string(again) == string(blob), "%s: restored checkpoint differs: %v", j, err)
	}
	n := float64(len(jobs))
	e.led.set("checkpoint.capture_ms", ms(capT)/n)
	e.led.set("checkpoint.restore_ms", ms(resT)/n)
	e.led.set("checkpoint.blob_mb", blobBytes/mb/n)
	e.led.set("checkpoint.capture_alloc_mb", capAlloc/mb/n)
	e.led.set("checkpoint.restore_alloc_mb", resAlloc/mb/n)
}
