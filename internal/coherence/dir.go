package coherence

import (
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
// widest first so a way is 40 bytes (lookup scans a whole set per probe, and
// the LLC arrays are most of a machine's memory); TestDirLineSize pins it.
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
	idx   int
	cfg   *arch.Config
	fab   *fabric
	count *stats.Counters
	cnt   dirCounters

	lines []dirLine // sets*ways, way-major within a set
	stamp uint64

	// occ[s] counts the valid ways of set s and resident is their sum.
	// Both are derived state (DESIGN.md §9): they move only where a way's
	// valid bit flips (fill, drop), LoadState rebuilds them and nothing
	// serializes them. They let SaveState, LoadState and Prewarm visit the
	// ways that exist instead of the ways there could be.
	occ      []int32
	resident int

	// demandUsed counts the demand requests accepted this cycle; when
	// cfg.DirPortsPerCycle is non-zero, excess demand requests wait in the
	// backlog, a FIFO served ahead of fresh arrivals (directory-port
	// contention).
	demandUsed int
	backlog    ringq.Q[Msg]
}

func newDir(idx int, cfg *arch.Config, fab *fabric, count *stats.Counters) *Dir {
	return &Dir{
		idx:   idx,
		cfg:   cfg,
		fab:   fab,
		count: count,
		cnt:   bindDirCounters(count),
		lines: make([]dirLine, cfg.LLCSets*cfg.LLCWays),
		occ:   make([]int32, cfg.LLCSets),
	}
}

func (d *Dir) addr() Addr { return Addr{Dir: true, Idx: d.idx} }

func (d *Dir) set(line uint64) []dirLine {
	s := d.cfg.LLCSet(line)
	return d.lines[s*d.cfg.LLCWays : (s+1)*d.cfg.LLCWays]
}

func (d *Dir) lookup(line uint64) *dirLine {
	ws := d.set(line)
	for i := range ws {
		if ws[i].valid && ws[i].addr == line {
			return &ws[i]
		}
	}
	return nil
}

func (d *Dir) touch(e *dirLine) {
	d.stamp++
	e.lru = d.stamp
}

// fill validates the invalid way e with the whole of ln, and drop
// invalidates it again by zeroing it: a way carries no state from one life
// into the next, and an invalid way carries none at all, which is what lets
// the checkpoint leave invalid ways out.
func (d *Dir) fill(e *dirLine, ln dirLine) {
	*e = ln
	d.occ[d.cfg.LLCSet(ln.addr)]++
	d.resident++
}

func (d *Dir) drop(e *dirLine) {
	d.occ[d.cfg.LLCSet(e.addr)]--
	d.resident--
	*e = dirLine{}
}

// PinnedInSet reports how many lines in the home set of the given line are
// currently pinned according to the directory's conservative knowledge.
// It is used only by tests and debugging tools; the cores' CSTs are the
// authoritative per-core accounting.
func (d *Dir) PinnedInSet(line uint64) int {
	n := 0
	for i := range d.set(line) {
		if d.set(line)[i].valid {
			n++
		}
	}
	return n
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
	var out []DirSnap
	for s := 0; s < d.cfg.LLCSets; s++ {
		ws := d.lines[s*d.cfg.LLCWays : (s+1)*d.cfg.LLCWays]
		idx := make([]int, 0, d.cfg.LLCWays)
		for i := range ws {
			if ws[i].valid {
				idx = append(idx, i)
			}
		}
		for a := 0; a < len(idx); a++ {
			for b := a + 1; b < len(idx); b++ {
				if ws[idx[b]].lru > ws[idx[a]].lru {
					idx[a], idx[b] = idx[b], idx[a]
				}
			}
		}
		for r, i := range idx {
			out = append(out, DirSnap{Set: s, Addr: ws[i].addr, Sharers: ws[i].sharers,
				Owner: ws[i].owner, Busy: uint8(ws[i].busy), Rank: r})
		}
	}
	return out
}

// InstallWarm pre-populates the LLC with a line (present, no L1 copies),
// modeling the warm cache state a checkpointed simulation starts from. It
// does nothing if the line is present or its set has no free way.
func (d *Dir) InstallWarm(line uint64) {
	if d.lookup(line) != nil {
		return
	}
	ws := d.set(line)
	for i := range ws {
		if !ws[i].valid {
			d.fill(&ws[i], dirLine{valid: true, addr: line, owner: -1})
			d.touch(&ws[i])
			return
		}
	}
}

// installWarmNew is InstallWarm for a line the caller knows is absent, in a
// slice that only warm installs have filled so far: the valid ways of a set
// are then its first occ[s], and the next free one needs no scan.
func (d *Dir) installWarmNew(line uint64) {
	s := d.cfg.LLCSet(line)
	n := int(d.occ[s])
	if n == d.cfg.LLCWays {
		return
	}
	e := &d.lines[s*d.cfg.LLCWays+n]
	d.stamp++
	*e = dirLine{valid: true, addr: line, owner: -1, lru: d.stamp}
	d.occ[s]++
	d.resident++
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
	e := d.lookup(m.Line)
	if e == nil {
		ws := d.set(m.Line)
		var free *dirLine
		for i := range ws {
			if !ws[i].valid {
				free = &ws[i]
				break
			}
		}
		if free == nil {
			*d.cnt.specStateless++
			d.fab.self(Msg{Kind: MemRespSpec, Line: m.Line, Src: d.addr(),
				Dst: d.addr(), Requestor: r}, d.cfg.DRAMCycles)
			return
		}
		*d.cnt.specFills++
		// lru stays 0: the line ranks below every architecturally-touched one.
		d.fill(free, dirLine{valid: true, addr: m.Line, owner: -1, busy: busyFetch,
			busyReq: int8(r), fetchKind: GetSSpec, specBorn: true})
		d.fab.self(Msg{Kind: MemResp, Line: m.Line, Src: d.addr(), Dst: d.addr(),
			Requestor: r}, d.cfg.DRAMCycles)
		return
	}
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
	e := d.lookup(m.Line)
	if e == nil || e.busy != busyNone {
		return
	}
	e.sharers &^= 1 << uint(m.Src.Idx)
	if e.specBorn && e.sharers == 0 && e.owner < 0 {
		d.drop(e)
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
	e := d.allocWay(m.Line)
	if e == nil {
		// Allocation blocked (a recall is in progress or every way is
		// busy); the requestor retries.
		d.nack(m)
		return
	}
	*d.cnt.dramFetches++
	d.fill(e, dirLine{valid: true, addr: m.Line, owner: -1, busy: busyFetch,
		busyReq: int8(m.Src.Idx), fetchKind: m.Kind})
	d.touch(e)
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

// allocWay returns a free way in the home set of line, evicting an
// unshared victim or starting a recall of a shared/owned one. It returns
// nil when no way can be freed this cycle.
func (d *Dir) allocWay(line uint64) *dirLine {
	ws := d.set(line)
	var idle, held *dirLine
	for i := range ws {
		e := &ws[i]
		if !e.valid {
			return e
		}
		if e.busy != busyNone {
			continue
		}
		if e.sharers == 0 && e.owner < 0 {
			if idle == nil || e.lru < idle.lru {
				idle = e
			}
		} else if held == nil || e.lru < held.lru {
			held = e
		}
	}
	if idle != nil {
		// LLC-only line: evict silently (writeback to memory implied).
		*d.cnt.llcEvictions++
		d.drop(idle)
		return idle
	}
	if held != nil {
		d.startRecall(held)
	}
	return nil
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
	e := d.lookup(m.Line)
	if e == nil || e.busy != busyRecall {
		// The recall was already resolved (e.g. a racing PutM completed
		// it); ignore the straggler.
		return
	}
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
	d.drop(e)
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
