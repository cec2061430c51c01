package coherence

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ringq"
	"pinnedloads/internal/stats"
)

// busyKind is the transient state of a directory line.
type busyKind uint8

const (
	busyNone busyKind = iota
	// busyFetch: the line's data is being fetched from DRAM.
	busyFetch
	// busyWrite: a write transaction (Figure 3/5) is in flight.
	busyWrite
	// busyFwdS: a FwdGetS downgrade is in flight to the owner.
	busyFwdS
	// busyRecall: the slice is recalling L1 copies to evict the line.
	busyRecall
)

// dirLine is one LLC way with its embedded directory state. The LLC is
// inclusive: any line cached in an L1 is present here. A way is valid when
// its filter tag is non-zero (Dir.home). The fields are ordered widest first
// so a way is 32 bytes (stored ways are most of a used machine's memory);
// TestDirLineSize pins it.
type dirLine struct {
	addr        uint64
	lru         uint64
	sharers     uint32 // bitmask of L1s with (possibly stale) shared copies
	prevSharers uint32 // sharer snapshot for Clear after a GetX* success
	pendAcks    int8   // outstanding recall responses (at most one per sharer bit)
	owner       int8   // owning L1 for E/M lines, -1 if none
	busy        busyKind
	busyReq     int8 // requestor of the in-flight write transaction
	busyStar    bool // transaction uses GetX*/Inv*
	deferred    bool // a recall response was RecallDefer
	fetchKind   Kind // original request kind for a busyFetch line
	specBorn    bool // line allocated by a speculative fill (RCP); removed
	// again by SpecUndo if every speculative reference is squashed
}

// dirCounters holds pre-bound handles for the directory's cycle-path
// counters (see stats.Counters.Handle).
type dirCounters struct {
	throttled     *uint64
	nacks         *uint64
	invisibleDRAM *uint64
	dramFetches   *uint64
	llcEvictions  *uint64
	retriedEv     *uint64
	specStateless *uint64
	specFills     *uint64
}

func bindDirCounters(ct *stats.Counters) dirCounters {
	return dirCounters{
		throttled:     ct.Handle("coh.dir_throttled"),
		nacks:         ct.Handle("coh.nacks"),
		invisibleDRAM: ct.Handle("coh.invisible_dram"),
		dramFetches:   ct.Handle("coh.dram_fetches"),
		llcEvictions:  ct.Handle("coh.llc_evictions"),
		retriedEv:     ct.Handle("coh.retried_evictions"),
		specStateless: ct.Handle("coh.spec_stateless"),
		specFills:     ct.Handle("coh.spec_fills"),
	}
}

// llcSet is one LLC set's bookkeeping: where its storage is and how many ways
// it has valid. A set with storage (cap > 0) is stored: its valid ways are
// the valid ways of its first cap, every later way is invalid, and its run
// ways are stale. A set without is lazy: its valid ways are its run ways. A
// free block is named the same way, with occ 0.
type llcSet struct {
	at  uint32 // the set's first stored way in the slabs
	cap uint16 // stored ways
	occ uint16 // valid ways
}

// slab is a block of stored ways, carved into the sets that need them. Both
// arrays are pointer-free and never move, so a *dirLine stays good until its
// set grows; after that it may point into another set.
type slab struct {
	lines []dirLine
	tags  []uint16
}

// Dir is one directory/LLC slice. It owns the homes of all lines mapping to
// it and runs the (Pinned Loads-extended) MESI protocol for them.
type Dir struct {
	idx   int
	cfg   *arch.Config
	fab   *fabric
	count *stats.Counters
	cnt   dirCounters
	stamp uint64

	// A set is lazy or stored (DESIGN.md §9). runs holds default-state ways
	// as sorted, disjoint runs in plane-major order — way w of set s has
	// index w*LLCSets+s, the order the checkpoint writes (§10) — which Prewarm
	// and a restore record instead of installing. The first protocol access
	// to a lazy set (open) installs its run ways; readers install nothing.
	runs []dirRec
	sets []llcSet

	// A set's stored ways are cap consecutive ways of one slab from at on,
	// with a filter tag beside each: zero for an invalid way, else the tag
	// of its addr (home). lookup and the free-way searches scan the set's
	// tags and touch a way only on a match. A set holds a block of exactly
	// the ways it needs, carved at next; one it outgrows is cleared and
	// listed in free by size (free[k] holds blocks of k+1 ways) for the next
	// set that needs that many. held lists the sets that have storage.
	slabs    []slab
	free     [][]llcSet
	held     []int32
	resident int    // valid ways of the slice: the sum of every set's occ
	next     uint32 // the carving cursor: every way below it is a set's or free
	setBits  uint8  // log2(cfg.LLCSets)
	slabBits uint8  // log2 of the ways a slab holds: 256, or the slice's if fewer

	// demandUsed counts the demand requests accepted this cycle; when
	// cfg.DirPortsPerCycle is non-zero, excess demand requests wait in the
	// backlog, a FIFO served ahead of fresh arrivals (directory-port
	// contention).
	demandUsed int
	backlog    ringq.Q[Msg]
}

func newDir(idx int, cfg *arch.Config, fab *fabric, count *stats.Counters) *Dir {
	return &Dir{
		idx:      idx,
		cfg:      cfg,
		fab:      fab,
		count:    count,
		cnt:      bindDirCounters(count),
		sets:     make([]llcSet, cfg.LLCSets),
		setBits:  uint8(bits.TrailingZeros(uint(cfg.LLCSets))),
		slabBits: uint8(max(bits.Len(uint(cfg.LLCWays-1)), min(8, bits.Len(uint(cfg.LLCSets*cfg.LLCWays-1))))),
	}
}

func (d *Dir) addr() Addr { return Addr{Dir: true, Idx: d.idx} }

// tagValid marks a filter tag as naming a valid way; the other 15 bits are
// the low bits of the line's address above its slice and set index. The
// proxies' address layout keeps the kernel index and the core number in bits
// 8-14 of that, so a narrower tag would alias on every probe.
const tagValid = 1 << 15

// home returns the set of the line and the filter tag a way holding it has.
func (d *Dir) home(line uint64) (set int, tag uint16) {
	q := line / uint64(d.cfg.LLCSlices)
	return int(q) & (d.cfg.LLCSets - 1), tagValid | uint16(q>>d.setBits)
}

// stored returns the set's stored ways and their filter tags.
func (d *Dir) stored(set int) ([]dirLine, []uint16) { return d.block(d.sets[set]) }

// block returns the ways and filter tags of a carved block.
func (d *Dir) block(b llcSet) ([]dirLine, []uint16) {
	if b.cap == 0 {
		return nil, nil
	}
	sl := &d.slabs[b.at>>d.slabBits]
	off := int(b.at) & (1<<d.slabBits - 1)
	end := off + int(b.cap)
	return sl.lines[off:end:end], sl.tags[off:end:end]
}

// way returns stored way w of the set.
func (d *Dir) way(set, w int) *dirLine {
	lines, _ := d.stored(set)
	return &lines[w]
}

// open is how the protocol reaches a set: it stores a lazy set's ways and
// returns the set's stored ways.
func (d *Dir) open(set int) ([]dirLine, []uint16) {
	if st := d.sets[set]; st.cap == 0 && st.occ > 0 {
		for w, ln := range d.lines(set) {
			d.fill(set, w, ln)
		}
	}
	return d.stored(set)
}

// fill writes ln into way w of the set's storage, with room for the ways the
// set counts: a lazy set's run ways when it opens, those of a set a restore
// stores, or a line being installed.
func (d *Dir) fill(set, w int, ln dirLine) {
	d.reserve(set, max(w+1, int(d.sets[set].occ)))
	lines, tags := d.stored(set)
	lines[w] = ln
	_, tags[w] = d.home(ln.addr)
}

// find returns the set of the line and the way holding it, or -1.
func (d *Dir) find(line uint64) (set, way int) {
	set, tag := d.home(line)
	lines, tags := d.open(set)
	for w, t := range tags {
		if t == tag && lines[w].addr == line {
			return set, w
		}
	}
	return set, -1
}

func (d *Dir) lookup(line uint64) *dirLine {
	if s, w := d.find(line); w >= 0 {
		return d.way(s, w)
	}
	return nil
}

// runAt returns the run holding plane-major index at, if any.
func (d *Dir) runAt(at int) (dirRec, bool) {
	lo, hi := 0, len(d.runs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); int(d.runs[m].at) <= at {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo > 0 && at <= d.runs[lo-1].last() {
		return d.runs[lo-1], true
	}
	return dirRec{}, false
}

// lines yields the set's valid ways in way order, each with its line: from
// storage if the set is stored, else from the runs (one search a way),
// installing nothing.
func (d *Dir) lines(set int) iter.Seq2[int, dirLine] {
	return func(yield func(int, dirLine) bool) {
		st := d.sets[set]
		if st.cap > 0 {
			lines, tags := d.stored(set)
			for w, t := range tags {
				if t != 0 && !yield(w, lines[w]) {
					return
				}
			}
			return
		}
		for w, left := 0, int(st.occ); left > 0 && w < d.cfg.LLCWays; w++ {
			at := w<<d.setBits | set
			if r, ok := d.runAt(at); ok {
				left--
				if !yield(w, r.line(at, uint64(d.cfg.LLCSlices))) {
					return
				}
			}
		}
	}
}

// StoredSets reports how many sets of the slice have storage: the sets the
// protocol has touched and those a restore gave a long-form line. It is
// host-memory accounting for tests and tools, not simulated state.
func (d *Dir) StoredSets() int { return len(d.held) }

// Carving reports, like StoredSets, the slice's host memory: the ways it has
// carved from its slabs, those its stored sets hold valid, and those in free
// blocks.
func (d *Dir) Carving() (carved, valid, free int) {
	for _, set := range d.held {
		valid += int(d.sets[set].occ)
	}
	for k, blocks := range d.free {
		free += (k + 1) * len(blocks)
	}
	return int(d.next), valid, free
}

// reserve gives the set storage for n ways if it has fewer: a block of
// exactly n, into which its stored ways move. The block they leave is
// cleared and listed free under its size.
func (d *Dir) reserve(set, n int) {
	st := &d.sets[set]
	if n <= int(st.cap) {
		return
	}
	b := d.carve(n)
	lines, tags := d.stored(set)
	nl, nt := d.block(b)
	copy(nl, lines)
	copy(nt, tags)
	if st.cap == 0 {
		d.held = append(d.held, int32(set))
	} else {
		clear(lines)
		clear(tags)
		d.release(llcSet{at: st.at, cap: st.cap})
	}
	st.at, st.cap = b.at, b.cap
}

// carve returns a zeroed block of n ways: a free one of that size, else a
// new one at next. When the slab's last ways are too few, they are freed and
// the block starts the next slab.
func (d *Dir) carve(n int) llcSet {
	if n <= len(d.free) {
		if free := d.free[n-1]; len(free) > 0 {
			d.free[n-1] = free[:len(free)-1]
			return free[len(free)-1]
		}
	}
	size := uint32(1) << d.slabBits
	if left := size - d.next%size; left < uint32(n) {
		d.release(llcSet{at: d.next, cap: uint16(left)})
		d.next += left
	}
	if int(d.next>>d.slabBits) == len(d.slabs) {
		d.slabs = append(d.slabs, slab{make([]dirLine, size), make([]uint16, size)})
	}
	b := llcSet{at: d.next, cap: uint16(n)}
	d.next += uint32(n)
	return b
}

// release lists the zeroed block b as free.
func (d *Dir) release(b llcSet) {
	if d.free == nil {
		d.free = make([][]llcSet, d.cfg.LLCWays)
	}
	d.free[b.cap-1] = append(d.free[b.cap-1], b)
}

// freeWay returns the first invalid way of the set, or -1.
func (d *Dir) freeWay(set int) int {
	_, tags := d.open(set)
	for w, t := range tags {
		if t == 0 {
			return w
		}
	}
	if len(tags) < d.cfg.LLCWays {
		return len(tags)
	}
	return -1
}

func (d *Dir) touch(e *dirLine) {
	d.stamp++
	e.lru = d.stamp
}

// install validates the invalid way w of an opened set with the whole of ln,
// and drop invalidates a stored way again by zeroing it: a way carries no
// state from one life into the next, and an invalid way carries none at all,
// which is what lets the checkpoint leave invalid ways out.
func (d *Dir) install(set, w int, ln dirLine) *dirLine {
	d.fill(set, w, ln)
	d.sets[set].occ++
	d.resident++
	return d.way(set, w)
}

func (d *Dir) drop(set, w int) {
	lines, tags := d.stored(set)
	lines[w], tags[w] = dirLine{}, 0
	d.sets[set].occ--
	d.resident--
}

// prewarm is Prewarm for one slice: it takes the slice's own lines of every
// range, in order, and records them as runs.
func (d *Dir) prewarm(ranges []arch.LineRange) {
	if len(d.held) > 0 {
		panic("coherence: Prewarm on a directory slice the protocol has used")
	}
	n, idx := uint64(d.cfg.LLCSlices), uint64(d.idx)
	for _, r := range ranges {
		first, end := r.First+(idx+n-r.First%n)%n, r.First+r.N
		if first < end {
			d.warm(d.runs, first/n, (end-1-idx)/n+1)
		}
	}
	slices.SortFunc(d.runs, func(a, b dirRec) int { return cmp.Compare(a.at, b.at) })
}

// warm records the slice's lines whose quotient by the slice count is in
// [q, end), in order, leaving out those a run of known holds: a line whose
// set is full is skipped, and any other becomes a run way in way occ of its
// set with the next stamp.
func (d *Dir) warm(known []dirRec, q, end uint64) {
	stride := uint64(d.cfg.LLCSlices)
	for i, r := range known {
		if lo, hi := max(q, r.addr/stride), min(end, r.addr/stride+uint64(r.n)); lo < hi {
			d.warm(known[i+1:], q, lo)
			d.warm(known[i+1:], hi, end)
			return
		}
	}
	// The lines of a stretch of sets that hold the same number of ways, k,
	// go to way k of each: one run.
	for q < end {
		set := int(q) & (d.cfg.LLCSets - 1)
		stretch := d.sets[set : set+int(min(end-q, uint64(d.cfg.LLCSets-set)))]
		k, n := stretch[0].occ, 1
		for n < len(stretch) && stretch[n].occ == k {
			n++
		}
		if int(k) < d.cfg.LLCWays {
			d.addRun(dirRec{at: int32(int(k)<<d.setBits | set), n: int32(n), addr: q*stride + uint64(d.idx), lru: d.stamp + 1})
			d.stamp += uint64(n)
		}
		q += uint64(n)
	}
}

// addRun records run r's ways as valid, extending the last run if r goes on
// with it: it counts each way in its set's occupancy, across plane boundaries
// too, and in the slice's.
func (d *Dir) addRun(r dirRec) {
	if last := len(d.runs) - 1; last >= 0 && d.runs[last].goesOn(int(r.at), r.addr, r.lru, uint64(d.cfg.LLCSlices)) {
		d.runs[last].n += r.n
	} else {
		d.runs = append(d.runs, r)
	}
	for at, end := int(r.at), r.last()+1; at < end; {
		set := at & (d.cfg.LLCSets - 1)
		stretch := d.sets[set:min(d.cfg.LLCSets, set+end-at)] // up to the plane's end
		for i := range stretch {
			stretch[i].occ++
		}
		at += len(stretch)
	}
	d.resident += int(r.n)
}

// DirSnap is one valid directory/LLC line in a Snapshot: its home set, the
// line address, sharer/owner bookkeeping, any transient state, and the
// recency rank within its set (0 = most recently used). Like
// cache.LineSnap it abstracts raw LRU stamps into ranks.
type DirSnap struct {
	Set     int
	Addr    uint64
	Sharers uint32
	Owner   int8
	Busy    uint8
	Rank    int
}

// Snapshot returns every valid line of the slice ordered by set and,
// within a set, by recency (most recent first). The security oracle diffs
// it between runs: a line installed, evicted, re-ordered, or left in a
// different sharer state by a transient access is a directory-state leak.
func (d *Dir) Snapshot() []DirSnap {
	out := make([]DirSnap, 0, d.resident)
	set := make([]dirLine, 0, d.cfg.LLCWays)
	for s := range d.sets {
		if d.sets[s].occ == 0 {
			continue
		}
		set = set[:0]
		for _, ln := range d.lines(s) {
			set = append(set, ln)
		}
		for a := range set {
			for b := a + 1; b < len(set); b++ {
				if set[b].lru > set[a].lru {
					set[a], set[b] = set[b], set[a]
				}
			}
		}
		for r, ln := range set {
			out = append(out, DirSnap{Set: s, Addr: ln.addr, Sharers: ln.sharers,
				Owner: ln.owner, Busy: uint8(ln.busy), Rank: r})
		}
	}
	return out
}

// newCycle resets the per-cycle demand-request budget and serves queued
// demand requests. The backlog drains ahead of the cycle's fresh arrivals —
// a request that has been waiting arbitrates before one that just landed,
// like the FIFO request queue in front of a real directory controller — so
// a burst of requests saturating one slice delays every later requestor,
// the contention the interference-attack kernel measures.
func (d *Dir) newCycle() {
	d.demandUsed = 0
	for d.backlog.Len() > 0 && d.demandUsed < d.cfg.DirPortsPerCycle {
		m := d.backlog.Pop()
		d.demandUsed++
		d.dispatch(m)
	}
}

// admitDemand charges a demand request against the per-cycle port budget.
// When the budget is exhausted the request joins the backlog and is served
// by a later cycle's newCycle. Responses and internal completions are never
// throttled, so transactions always drain.
func (d *Dir) admitDemand(m Msg) bool {
	if d.cfg.DirPortsPerCycle <= 0 {
		return true
	}
	if d.demandUsed >= d.cfg.DirPortsPerCycle {
		*d.cnt.throttled++
		d.backlog.Push(m)
		return false
	}
	d.demandUsed++
	return true
}

func (d *Dir) handle(m Msg) {
	switch m.Kind {
	case GetS, GetSInv, GetX, GetXStar:
		if !d.admitDemand(m) {
			return
		}
	}
	d.dispatch(m)
}

// dispatch processes an (already admitted) message.
func (d *Dir) dispatch(m Msg) {
	switch m.Kind {
	case GetS:
		d.handleGetS(m)
	case GetSInv:
		d.handleGetSInv(m)
	case GetSSpec:
		// Spec requests bypass admitDemand by design: the reversible
		// protocol reserves a virtual network for them, so a burst of
		// speculative accesses cannot delay demand requests — the
		// directory-port interference channel stays closed.
		d.handleGetSSpec(m)
	case SpecUndo:
		d.handleSpecUndo(m)
	case SpecCommit:
		d.handleSpecCommit(m)
	case MemRespSpec:
		d.fab.send(Msg{Kind: DataSpecInv, Line: m.Line, Src: d.addr(),
			Dst: Addr{Idx: m.Requestor}}, 0)
	case GetX, GetXStar:
		d.handleGetX(m)
	case MemResp:
		d.handleMemResp(m)
	case MemRespInv:
		d.fab.send(Msg{Kind: DataInv, Line: m.Line, Src: d.addr(),
			Dst: Addr{Idx: m.Requestor}, Token: m.Token}, 0)
	case Unblock:
		d.handleUnblock(m)
	case Abort:
		d.handleAbort(m)
	case PutM:
		d.handlePutM(m)
	case WBShared:
		d.handleWBShared(m)
	case RecallAck, RecallDefer:
		d.handleRecallResp(m)
	default:
		panic("coherence: directory received " + m.Kind.String())
	}
}

func (d *Dir) nack(m Msg) {
	*d.cnt.nacks++
	d.fab.send(Msg{Kind: Nack, Line: m.Line, Src: d.addr(), Dst: m.Src,
		Star: m.Kind == GetXStar, Requestor: int(m.Kind)}, 0)
}

func (d *Dir) handleGetS(m Msg) {
	r := m.Src.Idx
	e := d.lookup(m.Line)
	if e == nil {
		d.miss(m)
		return
	}
	if e.busy != busyNone {
		d.nack(m)
		return
	}
	d.touch(e)
	if e.owner >= 0 {
		// Owned elsewhere: forward to the owner, who sends data to the
		// requestor and writes back to us, downgrading to Shared.
		e.busy = busyFwdS
		e.busyReq = int8(r)
		d.fab.send(Msg{Kind: FwdGetS, Line: m.Line, Src: d.addr(),
			Dst: Addr{Idx: int(e.owner)}, Requestor: r}, d.cfg.LLCHitCycles)
		return
	}
	if e.sharers == 0 {
		// First reader: grant exclusive-clean.
		e.owner = int8(r)
		d.fab.send(Msg{Kind: DataE, Line: m.Line, Src: d.addr(), Dst: m.Src},
			d.cfg.LLCHitCycles)
		return
	}
	e.sharers |= 1 << uint(r)
	d.fab.send(Msg{Kind: DataS, Line: m.Line, Src: d.addr(), Dst: m.Src},
		d.cfg.LLCHitCycles)
}

func (d *Dir) handleGetX(m Msg) {
	r := m.Src.Idx
	star := m.Kind == GetXStar
	e := d.lookup(m.Line)
	if e == nil {
		d.miss(m)
		return
	}
	if e.busy != busyNone {
		d.nack(m)
		return
	}
	d.touch(e)
	if e.owner == int8(r) {
		// The requestor already owns the line (it may have lost track
		// across an aborted transaction); regrant immediately.
		d.fab.send(Msg{Kind: DataX, Line: m.Line, Src: d.addr(), Dst: m.Src,
			Acks: 0, Star: star}, d.cfg.LLCHitCycles)
		return
	}
	if e.owner >= 0 {
		// Owned by another core: the owner must surrender the line (or
		// Defer if it is pinned). One sharer response is expected.
		e.busy = busyWrite
		e.busyReq = int8(r)
		e.busyStar = star
		e.prevSharers = 1 << uint(e.owner)
		fwd := FwdGetX
		if star {
			fwd = FwdGetXStar
		}
		d.fab.send(Msg{Kind: DataX, Line: m.Line, Src: d.addr(), Dst: m.Src,
			Acks: 1, Star: star}, d.cfg.LLCHitCycles)
		d.fab.send(Msg{Kind: fwd, Line: m.Line, Src: d.addr(),
			Dst: Addr{Idx: int(e.owner)}, Requestor: r, Star: star},
			d.cfg.LLCHitCycles)
		return
	}
	others := e.sharers &^ (1 << uint(r))
	if others == 0 {
		// No other copies: grant immediately, no Unblock required.
		e.sharers = 0
		e.owner = int8(r)
		d.fab.send(Msg{Kind: DataX, Line: m.Line, Src: d.addr(), Dst: m.Src,
			Acks: 0, Star: star}, d.cfg.LLCHitCycles)
		return
	}
	// Invalidate the sharers; they answer the requestor directly with
	// InvAck or Defer (paper Figure 3).
	e.busy = busyWrite
	e.busyReq = int8(r)
	e.busyStar = star
	e.prevSharers = others
	inv := Inv
	if star {
		inv = InvStar
	}
	d.fab.send(Msg{Kind: DataX, Line: m.Line, Src: d.addr(), Dst: m.Src,
		Acks: bits.OnesCount32(others), Star: star}, d.cfg.LLCHitCycles)
	for c := 0; c < d.cfg.Cores; c++ {
		if others&(1<<uint(c)) != 0 {
			d.fab.send(Msg{Kind: inv, Line: m.Line, Src: d.addr(),
				Dst: Addr{Idx: c}, Requestor: r, Star: star},
				d.cfg.LLCHitCycles)
		}
	}
}

// handleGetSInv serves an invisible (InvisiSpec-style) read: return the
// data without recording a sharer, allocating an LLC way, or disturbing
// any transient state — the access leaves no microarchitectural footprint.
// Misses pay the DRAM latency on every access, since nothing is installed.
func (d *Dir) handleGetSInv(m Msg) {
	if d.lookup(m.Line) != nil {
		d.fab.send(Msg{Kind: DataInv, Line: m.Line, Src: d.addr(), Dst: m.Src,
			Token: m.Token}, d.cfg.LLCHitCycles)
		return
	}
	*d.cnt.invisibleDRAM++
	d.fab.self(Msg{Kind: MemRespInv, Line: m.Line, Src: d.addr(), Dst: d.addr(),
		Requestor: m.Src.Idx, Token: m.Token}, d.cfg.DRAMCycles)
}

// handleGetSSpec serves a reversible speculative read (RCP scheme). The
// directory registers the requestor as a sharer only when the registration
// is reversible: an LLC hit with no owner sets (at most) one sharer bit,
// and an LLC miss allocates only an invalid way — evicting or recalling a
// victim on behalf of speculation would be an irreversible, observable
// side effect. In every other case the data is served statelessly, like an
// invisible access. Replacement-state updates are deferred to SpecCommit.
func (d *Dir) handleGetSSpec(m Msg) {
	r := m.Src.Idx
	set, w := d.find(m.Line)
	if w < 0 {
		free := d.freeWay(set)
		if free < 0 {
			*d.cnt.specStateless++
			d.fab.self(Msg{Kind: MemRespSpec, Line: m.Line, Src: d.addr(),
				Dst: d.addr(), Requestor: r}, d.cfg.DRAMCycles)
			return
		}
		*d.cnt.specFills++
		// lru stays 0: the line ranks below every architecturally-touched one.
		d.install(set, free, dirLine{addr: m.Line, owner: -1, busy: busyFetch,
			busyReq: int8(r), fetchKind: GetSSpec, specBorn: true})
		d.fab.self(Msg{Kind: MemResp, Line: m.Line, Src: d.addr(), Dst: d.addr(),
			Requestor: r}, d.cfg.DRAMCycles)
		return
	}
	e := d.way(set, w)
	if e.busy != busyNone {
		d.nack(m)
		return
	}
	if e.owner >= 0 {
		// Owned elsewhere: a forward would disturb the owner, so serve the
		// LLC copy statelessly — nothing to reverse on a squash.
		*d.cnt.specStateless++
		d.fab.send(Msg{Kind: DataSpecInv, Line: m.Line, Src: d.addr(),
			Dst: m.Src}, d.cfg.LLCHitCycles)
		return
	}
	fresh := 0
	if e.sharers&(1<<uint(r)) == 0 {
		e.sharers |= 1 << uint(r)
		fresh = 1
	}
	d.fab.send(Msg{Kind: DataSpecS, Line: m.Line, Src: d.addr(), Dst: m.Src,
		Acks: fresh}, d.cfg.LLCHitCycles)
}

// handleSpecUndo reverses one core's speculative sharer registration after
// a squash. Races with demand traffic resolve conservatively: a busy or
// absent line is left alone (stale sharer bits are already tolerated by
// the protocol), and a spec-born line is removed only once no reference —
// speculative or demand — remains.
func (d *Dir) handleSpecUndo(m Msg) {
	set, w := d.find(m.Line)
	if w < 0 {
		return
	}
	e := d.way(set, w)
	if e.busy != busyNone {
		return
	}
	e.sharers &^= 1 << uint(m.Src.Idx)
	if e.specBorn && e.sharers == 0 && e.owner < 0 {
		d.drop(set, w)
	}
}

// handleSpecCommit finalizes a speculative registration: the line becomes
// an ordinary LLC resident and receives the replacement-state update that
// was deferred at access time.
func (d *Dir) handleSpecCommit(m Msg) {
	e := d.lookup(m.Line)
	if e == nil || e.busy != busyNone {
		return
	}
	e.specBorn = false
	d.touch(e)
}

// miss handles a request for a line absent from the LLC: allocate a way
// (possibly recalling a victim's L1 copies first) and fetch from DRAM.
func (d *Dir) miss(m Msg) {
	set, w := d.allocWay(m.Line)
	if w < 0 {
		// Allocation blocked (a recall is in progress or every way is
		// busy); the requestor retries.
		d.nack(m)
		return
	}
	*d.cnt.dramFetches++
	d.touch(d.install(set, w, dirLine{addr: m.Line, owner: -1, busy: busyFetch,
		busyReq: int8(m.Src.Idx), fetchKind: m.Kind}))
	d.fab.self(Msg{Kind: MemResp, Line: m.Line, Src: d.addr(), Dst: d.addr(),
		Requestor: m.Src.Idx}, d.cfg.DRAMCycles)
}

func (d *Dir) handleMemResp(m Msg) {
	e := d.lookup(m.Line)
	if e == nil || e.busy != busyFetch {
		panic("coherence: MemResp for unexpected line state")
	}
	e.busy = busyNone
	r := int(e.busyReq)
	switch e.fetchKind {
	case GetS:
		e.owner = int8(r)
		d.fab.send(Msg{Kind: DataE, Line: m.Line, Src: d.addr(),
			Dst: Addr{Idx: r}}, 0)
	case GetX, GetXStar:
		e.owner = int8(r)
		d.fab.send(Msg{Kind: DataX, Line: m.Line, Src: d.addr(),
			Dst: Addr{Idx: r}, Acks: 0, Star: e.fetchKind == GetXStar}, 0)
	case GetSSpec:
		// The spec-born line grants only a reversible shared copy; the
		// line stays unowned and keeps its spec mark until SpecCommit.
		e.sharers = 1 << uint(r)
		d.fab.send(Msg{Kind: DataSpecS, Line: m.Line, Src: d.addr(),
			Dst: Addr{Idx: r}, Acks: 1}, 0)
	default:
		panic("coherence: bad fetch kind")
	}
}

// allocWay returns the home set of line and a free way in it, evicting an
// unshared victim or starting a recall of a shared/owned one. The way is -1
// when none can be freed this cycle.
func (d *Dir) allocWay(line uint64) (set, way int) {
	set, _ = d.home(line)
	if w := d.freeWay(set); w >= 0 {
		return set, w
	}
	lines, _ := d.stored(set)
	idle, held := -1, -1
	var idleLRU, heldLRU uint64
	for w := range lines {
		e := &lines[w]
		if e.busy != busyNone {
			continue
		}
		if e.sharers == 0 && e.owner < 0 {
			if idle < 0 || e.lru < idleLRU {
				idle, idleLRU = w, e.lru
			}
		} else if held < 0 || e.lru < heldLRU {
			held, heldLRU = w, e.lru
		}
	}
	if idle >= 0 {
		// LLC-only line: evict silently (writeback to memory implied).
		*d.cnt.llcEvictions++
		d.drop(set, idle)
		return set, idle
	}
	if held >= 0 {
		d.startRecall(&lines[held])
	}
	return set, -1
}

// startRecall asks every L1 holding the victim to drop its copy. Any L1
// with the line pinned answers RecallDefer, which denies the eviction
// (paper Section 5.1.3).
func (d *Dir) startRecall(e *dirLine) {
	e.busy = busyRecall
	e.deferred = false
	e.pendAcks = 0
	targets := e.sharers
	if e.owner >= 0 {
		targets |= 1 << uint(e.owner)
	}
	for c := 0; c < d.cfg.Cores; c++ {
		if targets&(1<<uint(c)) != 0 {
			e.pendAcks++
			d.fab.send(Msg{Kind: Recall, Line: e.addr, Src: d.addr(),
				Dst: Addr{Idx: c}}, d.cfg.LLCHitCycles)
		}
	}
	if e.pendAcks == 0 {
		// Conservative sharer bits named no actual holder.
		e.busy = busyNone
		e.sharers = 0
		e.owner = -1
	}
}

func (d *Dir) handleRecallResp(m Msg) {
	set, w := d.find(m.Line)
	if w < 0 || d.way(set, w).busy != busyRecall {
		// The recall was already resolved (e.g. a racing PutM completed
		// it); ignore the straggler.
		return
	}
	e := d.way(set, w)
	e.pendAcks--
	if m.Kind == RecallDefer {
		e.deferred = true
	}
	if e.pendAcks > 0 {
		return
	}
	e.busy = busyNone
	if e.deferred {
		// Eviction denied: refresh replacement state so the line is not
		// immediately re-selected, and let the requestor retry.
		*d.cnt.retriedEv++
		d.touch(e)
		return
	}
	*d.cnt.llcEvictions++
	d.drop(set, w)
}

func (d *Dir) handlePutM(m Msg) {
	o := m.Src.Idx
	e := d.lookup(m.Line)
	if e == nil {
		// The line was recalled and evicted while the PutM was in
		// flight; just acknowledge.
		d.fab.send(Msg{Kind: PutMAck, Line: m.Line, Src: d.addr(), Dst: m.Src}, 0)
		return
	}
	switch e.busy {
	case busyRecall:
		// The owner's writeback doubles as its recall response.
		d.fab.send(Msg{Kind: PutMAck, Line: m.Line, Src: d.addr(), Dst: m.Src}, 0)
		d.handleRecallResp(Msg{Kind: RecallAck, Line: m.Line, Src: m.Src})
		return
	case busyWrite:
		// A FwdGetX crossed the PutM; the owner served the requestor
		// from its evict buffer and the transaction will Unblock.
		d.fab.send(Msg{Kind: PutMAck, Line: m.Line, Src: d.addr(), Dst: m.Src}, 0)
		return
	case busyFwdS:
		// A FwdGetS crossed the PutM; the owner sent data to the
		// requestor from its evict buffer; complete the downgrade here.
		e.busy = busyNone
		e.owner = -1
		e.sharers = 1 << uint(e.busyReq)
		d.fab.send(Msg{Kind: PutMAck, Line: m.Line, Src: d.addr(), Dst: m.Src}, 0)
		return
	}
	if e.owner == int8(o) {
		e.owner = -1
		e.sharers = 0
	}
	d.touch(e)
	d.fab.send(Msg{Kind: PutMAck, Line: m.Line, Src: d.addr(), Dst: m.Src}, 0)
}

func (d *Dir) handleWBShared(m Msg) {
	e := d.lookup(m.Line)
	if e == nil || e.busy != busyFwdS {
		return
	}
	owner := e.owner
	e.busy = busyNone
	e.owner = -1
	e.sharers = (1 << uint(owner)) | (1 << uint(e.busyReq))
	d.touch(e)
}

func (d *Dir) handleUnblock(m Msg) {
	e := d.lookup(m.Line)
	if e == nil || e.busy != busyWrite {
		panic("coherence: Unblock for line not in a write transaction")
	}
	star := e.busyStar
	prev := e.prevSharers
	e.busy = busyNone
	e.owner = e.busyReq
	e.sharers = 0
	e.prevSharers = 0
	d.touch(e)
	if star {
		// The starved write finally succeeded: tell the former sharers
		// to drop the line from their Cannot-Pin Tables (Figure 5b).
		for c := 0; c < d.cfg.Cores; c++ {
			if prev&(1<<uint(c)) != 0 {
				d.fab.send(Msg{Kind: Clear, Line: m.Line, Src: d.addr(),
					Dst: Addr{Idx: c}}, 0)
			}
		}
	}
}

func (d *Dir) handleAbort(m Msg) {
	e := d.lookup(m.Line)
	if e == nil || e.busy != busyWrite {
		panic("coherence: Abort for line not in a write transaction")
	}
	// Exit the transient state without changing sharer bits (Figure 3b).
	e.busy = busyNone
	e.prevSharers = 0
}
