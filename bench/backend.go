package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pinnedloads/internal/fleet"
	"pinnedloads/internal/service"
	"pinnedloads/internal/simcache"
)

// backend is one in-process plserved: a service.Server behind a loopback
// listener, with a memory tier over a disk tier over a peer tier ranked by
// the fleet's consistent-hash ring — what cmd/plserved wires from its
// flags. It can be stopped and started again on the same port and cache
// directory, so its identity on the ring survives the restart.
type backend struct {
	addr string // host:port, fixed by the first bind
	dir  string // disk-tier directory
	srv  *service.Server
	http *http.Server
	// served closes when the HTTP server's accept loop has returned.
	served chan struct{}
	// stopped sums the counters of this backend's earlier incarnations; a
	// restart resets the server's own.
	stopped map[string]uint64
}

func (b *backend) url() string { return "http://" + b.addr }

// cluster is the peered trio of a fleet workload.
type cluster struct {
	backends []*backend
}

const (
	bindRetries   = 100
	bindRetryWait = 20 * time.Millisecond
	stopTimeout   = 10 * time.Second
)

// listenRetry binds addr, retrying while the port a stopped incarnation
// has just released is still busy.
func listenRetry(addr string) (net.Listener, error) {
	var err error
	for i := 0; i < bindRetries; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
		time.Sleep(bindRetryWait)
	}
	return nil, fmt.Errorf("bind %s: %w", addr, err)
}

// startCluster binds n loopback ports, then starts a backend on each with
// the other n-1 as its peers. Cache directories are created under dir.
func startCluster(dir string, n int) (*cluster, error) {
	c := &cluster{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := listenRetry("127.0.0.1:0")
		if err != nil {
			for _, open := range lns[:i] {
				open.Close()
			}
			return nil, err
		}
		lns[i] = ln
		c.backends = append(c.backends, &backend{
			addr:    ln.Addr().String(),
			dir:     filepath.Join(dir, "cache"+strconv.Itoa(i)),
			stopped: make(map[string]uint64),
		})
	}
	for i, b := range c.backends {
		if err := c.start(b, lns[i]); err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) urls() []string {
	out := make([]string, len(c.backends))
	for i, b := range c.backends {
		out[i] = b.url()
	}
	return out
}

// start serves a fresh service.Server for b on ln.
func (c *cluster) start(b *backend, ln net.Listener) error {
	disk, err := simcache.NewDisk(b.dir)
	if err != nil {
		ln.Close()
		return err
	}
	self := b.url()
	var siblings []string
	for _, u := range c.urls() {
		if u != self {
			siblings = append(siblings, u)
		}
	}
	// Owner-first probe order along the ring the client fleet routes by;
	// self is on the ring for ownership but is never probed.
	ring := fleet.NewRing(c.urls(), 0)
	b.srv = service.New(service.Options{
		Workers: 1,
		Cache:   simcache.NewTiered(simcache.NewMemory(1024), disk),
		Peers:   siblings,
		PeerRank: func(key string) []string {
			order := ring.Order(key)
			out := make([]string, 0, len(order))
			for _, a := range order {
				if a != self {
					out = append(out, a)
				}
			}
			return out
		},
	})
	b.srv.Start()
	b.http = &http.Server{Handler: b.srv.Handler()}
	served := make(chan struct{})
	b.served = served
	go func(srv *http.Server) {
		srv.Serve(ln) // returns once stopBackend shuts the server down
		close(served)
	}(b.http)
	return nil
}

// stopBackend drains b and folds its counters into b.stopped.
func stopBackend(b *backend) error {
	if b.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	err := b.http.Shutdown(ctx)
	<-b.served
	if derr := b.srv.Drain(ctx); err == nil {
		err = derr
	}
	for name, v := range parseCounters(b.srv.Metrics()) {
		b.stopped[name] += v
	}
	b.srv, b.http = nil, nil
	return err
}

// stop shuts every backend down and waits for it.
func (c *cluster) stop() error {
	var first error
	for _, b := range c.backends {
		if err := stopBackend(b); err != nil && first == nil {
			first = err
		}
	}
	// Servers probe their peers through the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return first
}

// restart stops all backends and starts them again on the same ports over
// the same cache directories: registries and memory tiers are gone, disk
// tiers remain.
func (c *cluster) restart() error {
	if err := c.stop(); err != nil {
		return err
	}
	for _, b := range c.backends {
		ln, err := listenRetry(b.addr)
		if err != nil {
			return err
		}
		if err := c.start(b, ln); err != nil {
			return err
		}
	}
	return nil
}

// counter sums a service counter over every backend and incarnation.
func (c *cluster) counter(name string) uint64 {
	var sum uint64
	for _, b := range c.backends {
		sum += b.counter(name)
	}
	return sum
}

func (b *backend) counter(name string) uint64 {
	v := b.stopped[name]
	if b.srv != nil {
		v += parseCounters(b.srv.Metrics())[name]
	}
	return v
}

// parseCounters reads the service's name=value metrics lines.
func parseCounters(text string) map[string]uint64 {
	out := make(map[string]uint64)
	for _, line := range strings.Split(text, "\n") {
		if name, val, ok := strings.Cut(line, "="); ok {
			if v, err := strconv.ParseUint(val, 10, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out
}
