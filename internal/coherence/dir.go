package coherence

import (
	"iter"
	"math/bits"

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
// inclusive: any line cached in an L1 is present here. The fields are ordered
// widest first so a way is 40 bytes (the LLC planes are most of a machine's
// memory); TestDirLineSize pins it.
type dirLine struct {
	addr        uint64
	lru         uint64
	sharers     uint32 // bitmask of L1s with (possibly stale) shared copies
	prevSharers uint32 // sharer snapshot for Clear after a GetX* success
	pendAcks    int32  // outstanding recall responses (at most one per sharer bit)
	valid       bool
	owner       int8 // owning L1 for E/M lines, -1 if none
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

// Dir is one directory/LLC slice. It owns the homes of all lines mapping to
// it and runs the (Pinned Loads-extended) MESI protocol for them.
type Dir struct {
	idx     int
	cfg     *arch.Config
	setBits uint // log2(cfg.LLCSets)
	fab     *fabric
	count   *stats.Counters
	cnt     dirCounters

	// planes[w][s] is way w of set s. A plane (way w of every set of the
	// slice) is allocated the first time any set needs way w and never moved,
	// so a *dirLine stays good for the machine's life and a slice holds
	// memory for the ways of its fullest set, not for the ways there could
	// be. A way whose plane does not exist is an invalid way.
	planes [][]dirLine
	stamp  uint64

	// ptag[s*ways+w] is the filter tag of way w of set s: zero for an
	// invalid way, else the tag of its addr (home). lookup and the free-way
	// searches scan a set's row of it (32 bytes) and touch a plane only on a
	// match; the planes are page-aligned, so the ways of one set share a
	// page offset and walking them would take as many lines of one host
	// cache set.
	//
	// occ[s] counts the valid ways of set s and resident is their sum.
	// warmOnly says only InstallWarm has filled the slice so far, which
	// makes the valid ways of every set its first occ[s].
	//
	// All four are derived state (DESIGN.md §9): they move only where a
	// way's valid bit flips (install, installRun, drop), LoadState rebuilds
	// them and nothing serializes them. They let every walk visit the ways
	// that exist instead of the ways there could be.
	ptag     []uint16
	occ      []int32
	resident int
	warmOnly bool

	// recs is SaveState's record list, kept from one save to the next so a
	// machine that is checkpointed often collects into the same array.
	recs []dirRec

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
		planes:   make([][]dirLine, cfg.LLCWays),
		ptag:     make([]uint16, cfg.LLCSets*cfg.LLCWays),
		occ:      make([]int32, cfg.LLCSets),
		warmOnly: true,
		setBits:  uint(bits.TrailingZeros(uint(cfg.LLCSets))),
	}
}

func (d *Dir) addr() Addr { return Addr{Dir: true, Idx: d.idx} }

// tagValid marks a filter tag as naming a valid way; the other 15 bits are
// the low bits of the line's address above its slice and set index. The
// proxies' address layout keeps the kernel index and the core number in bits
// 8-14 of that, so a narrower tag would alias on every probe.
const tagValid = 1 << 15

// home returns the set of the line and the filter tag a way holding it has;
// homeOf takes the line's quotient by the slice count instead, for a caller
// that carries it along a run of lines.
func (d *Dir) home(line uint64) (set int, tag uint16) {
	return d.homeOf(line / uint64(d.cfg.LLCSlices))
}

func (d *Dir) homeOf(q uint64) (set int, tag uint16) {
	return int(q) & (d.cfg.LLCSets - 1), tagValid | uint16(q>>d.setBits)
}

// row returns the filter tags of the set, one per way.
func (d *Dir) row(set int) []uint16 {
	return d.ptag[set*d.cfg.LLCWays : (set+1)*d.cfg.LLCWays]
}

// find returns the set of the line and the way holding it, or -1.
func (d *Dir) find(line uint64) (set, way int) {
	set, tag := d.home(line)
	for w, t := range d.row(set) {
		if t == tag && d.planes[w][set].addr == line {
			return set, w
		}
	}
	return set, -1
}

func (d *Dir) lookup(line uint64) *dirLine {
	if s, w := d.find(line); w >= 0 {
		return &d.planes[w][s]
	}
	return nil
}

// valid yields every valid way of the slice in ascending set and way order:
// its index set*ways+way and the way itself. It visits occupied sets only.
func (d *Dir) valid() iter.Seq2[int, *dirLine] {
	return func(yield func(int, *dirLine) bool) {
		ways := d.cfg.LLCWays
		for s, n := range d.occ {
			if n == 0 {
				continue
			}
			for w, t := range d.row(s) {
				if t != 0 && !yield(s*ways+w, &d.planes[w][s]) {
					return
				}
			}
		}
	}
}

// Planes reports how many way planes the slice has allocated and how many
// its resident lines need: the highest valid way of any set, plus one. It is
// host-memory accounting for tests and tools, not simulated state.
func (d *Dir) Planes() (held, needed int) {
	for _, p := range d.planes {
		if p != nil {
			held++
		}
	}
	for i := range d.valid() {
		needed = max(needed, i%d.cfg.LLCWays+1)
	}
	return held, needed
}

// freeWay returns the first invalid way of the set, or -1.
func (d *Dir) freeWay(set int) int {
	for w, t := range d.row(set) {
		if t == 0 {
			return w
		}
	}
	return -1
}

func (d *Dir) touch(e *dirLine) {
	d.stamp++
	e.lru = d.stamp
}

// install validates the invalid way w of the set with the whole of ln, and
// drop invalidates a way again by zeroing it: a way carries no state from one
// life into the next, and an invalid way carries none at all, which is what
// lets the checkpoint leave invalid ways out. fill is install by anything but
// a warm install.
func (d *Dir) install(set, w int, ln dirLine) *dirLine {
	_, tag := d.home(ln.addr)
	return d.installTagged(set, w, tag, ln)
}

// plane returns way w of every set, allocating it on first use.
func (d *Dir) plane(w int) []dirLine {
	if d.planes[w] == nil {
		d.planes[w] = make([]dirLine, d.cfg.LLCSets)
	}
	return d.planes[w]
}

// installTagged is install for a caller that has the line's filter tag.
func (d *Dir) installTagged(set, w int, tag uint16, ln dirLine) *dirLine {
	p := d.plane(w)
	p[set] = ln
	d.ptag[set*d.cfg.LLCWays+w] = tag
	d.occ[set]++
	d.resident++
	return &p[set]
}

// installRun validates the n invalid ways from plane-major index at on
// (way at/LLCSets of set at%LLCSets, then the next set of that plane, then
// the first set of the next plane) with default-state lines: the first holds
// addr and lru, and each one after it the address LLCSlices further on and the
// next stamp. addr must be at home in the first way, which puts every later
// line at home in its own: the quotient by the slice count steps by one with
// the set, so within a plane the filter tag is one value, and it is computed
// once per plane. The caller has checked that the run ends inside the slice
// and that neither the address nor the stamp wraps.
func (d *Dir) installRun(at, n int, addr, lru uint64) {
	sets, ways, slices := d.cfg.LLCSets, d.cfg.LLCWays, uint64(d.cfg.LLCSlices)
	d.resident += n
	q := addr / slices
	for w, set := at>>d.setBits, at&(sets-1); n > 0; w, set = w+1, 0 {
		p := d.plane(w)
		end := min(sets, set+n)
		n -= end - set
		_, tag := d.homeOf(q)
		q += uint64(end - set)
		for ; set < end; set++ {
			p[set] = defaultLine(addr, lru)
			d.ptag[set*ways+w] = tag
			d.occ[set]++
			addr += slices
			lru++
		}
	}
}

func (d *Dir) fill(set, w int, ln dirLine) *dirLine {
	d.warmOnly = false
	return d.install(set, w, ln)
}

func (d *Dir) drop(set, w int) {
	d.warmOnly = false
	d.planes[w][set] = dirLine{}
	d.ptag[set*d.cfg.LLCWays+w] = 0
	d.occ[set]--
	d.resident--
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
	ways := make([]int, 0, d.cfg.LLCWays)
	for s, n := range d.occ {
		if n == 0 {
			continue
		}
		ways = ways[:0]
		for w, t := range d.row(s) {
			if t != 0 {
				ways = append(ways, w)
			}
		}
		for a := range ways {
			for b := a + 1; b < len(ways); b++ {
				if d.planes[ways[b]][s].lru > d.planes[ways[a]][s].lru {
					ways[a], ways[b] = ways[b], ways[a]
				}
			}
		}
		for r, w := range ways {
			ln := &d.planes[w][s]
			out = append(out, DirSnap{Set: s, Addr: ln.addr, Sharers: ln.sharers,
				Owner: ln.owner, Busy: uint8(ln.busy), Rank: r})
		}
	}
	return out
}

// InstallWarm pre-populates the LLC with a line (present, no L1 copies),
// modeling the warm cache state a checkpointed simulation starts from. It
// does nothing if the line is present or its set has no free way. In a slice
// that only warm installs have filled, the valid ways of a set are its first
// occ[s]: the probe stops there and the next way is the free one.
func (d *Dir) InstallWarm(line uint64) {
	set, tag := d.home(line)
	d.installWarm(line, set, tag)
}

// installWarm is InstallWarm for a caller that knows the line's home.
func (d *Dir) installWarm(line uint64, set int, tag uint16) {
	row := d.row(set)
	if int(d.occ[set]) == len(row) {
		return // present or not, a full set takes nothing
	}
	if d.warmOnly {
		row = row[:d.occ[set]]
	}
	free := len(row)
	for w, t := range row {
		if t == tag && d.planes[w][set].addr == line {
			return
		}
		if t == 0 && free == len(row) {
			free = w
		}
	}
	d.stamp++
	d.installTagged(set, free, tag, dirLine{valid: true, addr: line, owner: -1, lru: d.stamp})
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
		d.fill(set, free, dirLine{valid: true, addr: m.Line, owner: -1, busy: busyFetch,
			busyReq: int8(r), fetchKind: GetSSpec, specBorn: true})
		d.fab.self(Msg{Kind: MemResp, Line: m.Line, Src: d.addr(), Dst: d.addr(),
			Requestor: r}, d.cfg.DRAMCycles)
		return
	}
	e := &d.planes[w][set]
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
	e := &d.planes[w][set]
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
	d.touch(d.fill(set, w, dirLine{valid: true, addr: m.Line, owner: -1, busy: busyFetch,
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
	idle, held := -1, -1
	var idleLRU, heldLRU uint64
	for w, t := range d.row(set) {
		if t == 0 {
			return set, w
		}
		e := &d.planes[w][set]
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
		d.startRecall(&d.planes[held][set])
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
	if w < 0 || d.planes[w][set].busy != busyRecall {
		// The recall was already resolved (e.g. a racing PutM completed
		// it); ignore the straggler.
		return
	}
	e := &d.planes[w][set]
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
