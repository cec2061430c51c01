package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"syscall"
	"time"
	"unsafe"
)

// Host calibration. On a shared host the dominant noise in a host-time
// metric is the host's own speed: it drifts between runs and, within one,
// drops by a third for seconds at a time when a neighbour contends for the
// memory system, while process CPU time tracks wall time throughout. A
// fixed reference kernel is therefore interleaved with the timed work —
// never concurrently with it — and every reported duration is multiplied by
// nominal/observed kernel time, which states it as if it had been measured
// on a host where one slice takes exactly refNominalMS.
const (
	refIters     = 3 << 17 // iterations per slice
	refSmallLen  = 1 << 15 // 32768 × 8 B = 256 KiB: L2-resident, misses L1
	refBigLen    = 1 << 23 // 8 Mi × 8 B = 64 MiB: misses a core's own caches
	refBigEvery  = 8       // one access in eight goes to the big table
	refNominalMS = 12.5
	refShare     = 0.05 // reference time owed per unit of timed work
)

// refKernel is the reference workload: an xorshift generator whose output
// indexes a 256 KiB table and, every eighth iteration, a 64 MiB one, so a
// slice is a chain of dependent ALU operations, cache hits and memory
// accesses. A kernel that stays inside the L2 left a fifth more spread in
// calibrated job times in A/A probes on the reference host (README.md).
// The big table is mapped outside the Go heap, so that it neither counts
// as live heap nor moves the collector's pacing for the program under test.
type refKernel struct {
	small []uint64
	big   []uint64
	x     uint64
}

func newRefKernel() (*refKernel, error) {
	raw, err := syscall.Mmap(-1, 0, refBigLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: mmap: %w", err)
	}
	k := &refKernel{
		small: make([]uint64, refSmallLen),
		big:   unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), refBigLen),
		x:     0x9E3779B97F4A7C15,
	}
	for _, table := range [][]uint64{k.small, k.big} {
		for i := range table {
			k.x ^= k.x << 13
			k.x ^= k.x >> 7
			k.x ^= k.x << 17
			table[i] = k.x
		}
	}
	return k, nil
}

// slice runs exactly refIters iterations and returns that count with the
// generator state, so the work can neither be skipped by the compiler nor
// vary between calls.
func (k *refKernel) slice() (iters int, state uint64) {
	x := k.x
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if i%refBigEvery == 0 {
			x += k.big[x&(refBigLen-1)]
		} else {
			x += k.small[x&(refSmallLen-1)]
		}
		iters++
	}
	k.x = x
	return iters, x
}

// calibrator interleaves reference slices with timed work and keeps their
// durations per phase.
type calibrator struct {
	k      *refKernel
	owed   time.Duration
	spent  time.Duration        // total time inside slices
	phase  string               // current phase
	slices map[string][]float64 // phase -> slice durations, ms
}

func newCalibrator() (*calibrator, error) {
	k, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	return &calibrator{k: k, slices: make(map[string][]float64)}, nil
}

// minPhaseSlices is how many slices a phase starts with, so that even a
// short phase has a median to speak of.
const minPhaseSlices = 3

// begin names the phase the following slices are booked to.
func (c *calibrator) begin(phase string) {
	c.phase = phase
	for i := 0; i < minPhaseSlices; i++ {
		c.runSlice()
	}
}

// after books elapsed timed work and runs the reference slices it has
// earned. Call it between jobs, never while one is being timed.
func (c *calibrator) after(elapsed time.Duration) {
	c.owed += time.Duration(float64(elapsed) * refShare)
	for c.owed >= time.Duration(refNominalMS*float64(time.Millisecond)) {
		c.owed -= c.runSlice()
	}
}

func (c *calibrator) runSlice() time.Duration {
	t0 := time.Now()
	c.k.slice()
	d := time.Since(t0)
	c.spent += d
	c.slices[c.phase] = append(c.slices[c.phase], float64(d)/float64(time.Millisecond))
	return d
}

// sliceMS is the median slice time over the named phases (all phases when
// none is named). The median, because the slowdowns come in bursts: it
// reads the level the host ran at for most of the phase, which is also
// what the best-of and median statistics of the timed work read.
func (c *calibrator) sliceMS(phases ...string) float64 {
	var all []float64
	if len(phases) == 0 {
		for _, s := range c.slices {
			all = append(all, s...)
		}
	}
	for _, p := range phases {
		all = append(all, c.slices[p]...)
	}
	return percentile(all, 50)
}

// factor is the host speed factor of the named phases: a duration measured
// there, times factor, is the duration on the nominal host.
func (c *calibrator) factor(phases ...string) float64 {
	return hostFactor(c.sliceMS(phases...))
}

func hostFactor(sliceMS float64) float64 {
	if sliceMS <= 0 {
		return 1
	}
	return refNominalMS / sliceMS
}

// requestRef is the reference for request/response work, as refKernel is
// for computation: a plain net/http server on loopback that reads a 1 KiB
// body and answers with 1 KiB, and a client that times round trips to it.
// A cache hit served over HTTP spends its time in the same places — system
// calls, the loopback stack, waking the goroutine on the other side — and
// in A/A runs the fleet's warm rate spread by 4-7 % scaled by the reference
// round trip and by 10-25 % scaled by the compute kernel (README.md).
type requestRef struct {
	srv    *http.Server
	served chan struct{} // closes when the accept loop has returned
	client *http.Client
	url    string
	body   []byte
	trips  map[string][]float64 // phase -> round-trip times, ms
}

const (
	refTripBytes     = 1 << 10
	refTripNominalMS = 0.04
	refTripsPerPass  = 128
)

func newRequestRef() (*requestRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("request reference: %w", err)
	}
	reply := bytes.Repeat([]byte{'r'}, refTripBytes)
	r := &requestRef{
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			io.Copy(io.Discard, req.Body)
			w.Write(reply)
		})},
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{}},
		url:    "http://" + ln.Addr().String() + "/",
		body:   bytes.Repeat([]byte{'q'}, refTripBytes),
		trips:  make(map[string][]float64),
	}
	go func() {
		r.srv.Serve(ln) // returns once close shuts the server down
		close(r.served)
	}()
	return r, nil
}

// run times n round trips and books them to phase.
func (r *requestRef) run(phase string, n int) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := r.client.Post(r.url, "application/octet-stream", bytes.NewReader(r.body))
		if err != nil {
			return fmt.Errorf("request reference: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("request reference: %w", err)
		}
		r.trips[phase] = append(r.trips[phase], ms(time.Since(t0)))
	}
	return nil
}

// tripMS is the mean round trip over the named phases. The mean, because
// that is what tracked best: a burst stretches the tail of the hits and of
// the reference trips alike.
func (r *requestRef) tripMS(phases ...string) float64 {
	var all []float64
	for _, p := range phases {
		all = append(all, r.trips[p]...)
	}
	return mean(all)
}

// factor is the host's request speed factor over the named phases.
func (r *requestRef) factor(phases ...string) float64 {
	if t := r.tripMS(phases...); t > 0 {
		return refTripNominalMS / t
	}
	return 1
}

func (r *requestRef) close() {
	r.client.CloseIdleConnections()
	r.srv.Close()
	<-r.served
}

// hostUsage is the process's resource use so far.
type hostUsage struct {
	cpuS       float64
	peakRSSMB  float64
	involCtxSw float64
}

func readHostUsage() hostUsage {
	var u hostUsage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpuS = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
		u.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		u.involCtxSw = float64(ru.Nivcsw)
	}
	return u
}
