package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// ring is a consistent-hash ring over backend addresses. Each backend
// owns replicas virtual points; a key is routed to the backend owning
// the first point clockwise of the key's hash. Because points derive
// from backend addresses (not list positions), adding or removing one
// backend only moves the keys that backend owned — the property that
// keeps warm per-backend result caches warm across fleet reconfigures.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // number of distinct backends
}

type ringPoint struct {
	hash uint64
	idx  int // backend index
}

// hash64 is the ring's hash: FNV-1a over the input bytes, finished with
// a splitmix64-style mix. Bare FNV clusters badly on the short, similar
// strings virtual nodes are named with, which skews shard ownership; the
// finalizer restores avalanche. Speed does not matter here (one hash per
// job submission); stability across processes does, which rules out Go's
// randomized map hash.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newRing builds the ring for the given backend addresses.
func newRing(addrs []string, replicas int) *ring {
	if replicas <= 0 {
		replicas = 64
	}
	r := &ring{n: len(addrs)}
	for i, addr := range addrs {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s|%d", addr, v)),
				idx:  i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].idx < r.points[b].idx // stable on (unlikely) collisions
	})
	return r
}

// Ring is the exported consistent-hash ring: the same hashing, virtual
// nodes and walk order the fleet router uses, for components outside this
// package that must agree with its placement. plserved builds one over
// the whole fleet membership (its peers plus itself) to order cache-peer
// probes owner-first — the backend the client router would have sent a
// key to is the one most likely to hold its result.
type Ring struct {
	r     *ring
	addrs []string
}

// NewRing builds a ring over backend base URLs. Addresses are normalized
// the way fleet.New normalizes its Backends (trimmed, no trailing slash)
// so a plserved-side ring and a client-side ring built from the same list
// agree point for point. replicas <= 0 uses the router's default (64).
func NewRing(addrs []string, replicas int) *Ring {
	clean := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if a = strings.TrimRight(strings.TrimSpace(a), "/"); a != "" {
			clean = append(clean, a)
		}
	}
	return &Ring{r: newRing(clean, replicas), addrs: clean}
}

// Order returns the addresses in ring walk order for the key: the owner
// first, then each distinct successor — the same candidate sequence the
// fleet router routes and fails over along.
func (r *Ring) Order(key string) []string {
	idxs := r.r.candidates(key)
	out := make([]string, len(idxs))
	for i, idx := range idxs {
		out[i] = r.addrs[idx]
	}
	return out
}

// candidates returns every backend index in ring walk order for the key:
// the owner first, then each distinct successor. The caller applies
// health; the full order is the failover sequence.
func (r *ring) candidates(key string) []int {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			out = append(out, p.idx)
		}
	}
	return out
}
