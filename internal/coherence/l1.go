package coherence

import (
	"fmt"
	"slices"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/cache"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/stats"
)

// CoreHooks is the interface through which the memory system reaches into
// the core pipeline. It carries the Pinned Loads snooping behaviour: the
// pinned-line record lives next to the load queue (paper Section 6.1.1),
// so invalidations and evictions consult the core before acting.
type CoreHooks interface {
	// PinnedLine reports whether the core currently has the line pinned:
	// a pinned load in the LQ, Early-Pinned ones with their fill still in
	// flight included.
	PinnedLine(line uint64) bool
	// OnInvalidate tells the core its L1 lost the line (invalidation or
	// eviction). Under TSO the core squashes from the oldest performed,
	// yet-to-retire load of the line that is neither pinned nor pinSafe
	// (the oldest load, which cannot have been reordered).
	OnInvalidate(line uint64)
	// OnInvStar tells the core to insert the line into its Cannot-Pin
	// Table (an Inv* arrived, paper Section 5.1.5).
	OnInvStar(line uint64)
	// OnClear tells the core to remove the line from its Cannot-Pin
	// Table (the starved write succeeded).
	OnClear(line uint64)
	// LoadDone delivers data for the load identified by token.
	LoadDone(token int64)
	// LineOwned reports that an Acquire transaction obtained the line in
	// Modified state; the core may now merge buffered stores into it.
	LineOwned(line uint64)
	// StoreDeferred reports that a write's invalidation was deferred by
	// a pinned line elsewhere and the transaction will retry.
	StoreDeferred(line uint64)
}

// LoadResult is the immediate outcome of issuing a load at the L1.
type LoadResult uint8

const (
	// LoadHit means data will be delivered after the L1 hit latency.
	LoadHit LoadResult = iota
	// LoadMiss means a fill is (now) outstanding; LoadDone fires later.
	LoadMiss
	// LoadBlocked means every MSHR is busy, or a reversible speculative
	// fill of the line is in flight; retry next cycle.
	LoadBlocked
)

// Retry token values for SelfRetry events.
const (
	retryStore int64 = iota
	retryRequest
)

// storeTxn tracks one outstanding ownership (RFO) transaction. TSO cores
// acquire ownership for several buffered stores concurrently and merge them
// into the cache in order; only the merge must be ordered.
type storeTxn struct {
	line     uint64
	star     bool // escalate to GetX* (a previous attempt was deferred)
	need     int  // sharer responses expected (-1 = DataX not yet seen)
	got      int
	deferred bool
	inFlight bool // request sent, transaction not yet resolved
}

// specTxn journals the reversible state one speculative load (RCP scheme)
// created, so a squash can undo exactly that state and a retirement can
// finalize it. A load whose access completed statelessly journals neither
// flag: there is nothing to reverse.
type specTxn struct {
	token     int64 // the load's memory token
	line      uint64
	hit       bool // spec hit on a pre-existing line (commit touches LRU)
	installed bool // line installed into an invalid L1 way (undo removes it)
	undoDir   bool // sharer bit newly set at the directory (undo clears it)
}

// l1Counters holds pre-bound handles for the L1's cycle-path counters
// (see stats.Counters.Handle).
type l1Counters struct {
	hits            *uint64
	missCoalesced   *uint64
	misses          *uint64
	invisibleHits   *uint64
	invisibleMisses *uint64
	prefetches      *uint64
	evictions       *uint64
	retriedWrites   *uint64
	defers          *uint64
	specHits        *uint64
	specMisses      *uint64
	specInstalls    *uint64
	specCommits     *uint64
	specRollbacks   *uint64
}

func bindL1Counters(ct *stats.Counters) l1Counters {
	return l1Counters{
		hits:            ct.Handle("l1.hits"),
		missCoalesced:   ct.Handle("l1.miss_coalesced"),
		misses:          ct.Handle("l1.misses"),
		invisibleHits:   ct.Handle("l1.invisible_hits"),
		invisibleMisses: ct.Handle("l1.invisible_misses"),
		prefetches:      ct.Handle("l1.prefetches"),
		evictions:       ct.Handle("l1.evictions"),
		retriedWrites:   ct.Handle("coh.retried_writes"),
		defers:          ct.Handle("coh.defers"),
		specHits:        ct.Handle("l1.spec_hits"),
		specMisses:      ct.Handle("l1.spec_misses"),
		specInstalls:    ct.Handle("l1.spec_installs"),
		specCommits:     ct.Handle("l1.spec_commits"),
		specRollbacks:   ct.Handle("l1.spec_rollbacks"),
	}
}

// L1 is one core's private L1 data cache controller.
type L1 struct {
	id    int
	cfg   *arch.Config
	fab   *fabric
	count *stats.Counters
	cnt   l1Counters
	hooks CoreHooks

	// rec receives structured trace events (MSHR allocations, deferred
	// invalidations); tracing caches rec.Enabled(). now is the cycle the
	// memory system is currently ticking, for event timestamps.
	rec     obs.Recorder
	tracing bool
	now     int64

	tags *cache.SetAssoc
	mshr *cache.MSHR

	// The lists hold an entry per transaction in flight, in arrival order,
	// and are searched front to back: a handful of entries on the paper's
	// machine (DESIGN.md §9), which nothing in the configuration bounds.
	acq       []*storeTxn // outstanding ownership transactions, one per line
	txnFree   []*storeTxn // recycled storeTxns (bounded by peak concurrency)
	evictBuf  []uint64    // lines written back, PutM not yet acknowledged
	portsUsed int

	// spec journals completed speculative accesses (RCP scheme), one per
	// token; specAband holds the tokens squashed while their fill was still
	// in flight, so the arriving fill is reversed immediately.
	spec      []specTxn
	specAband []int64

	// touched records that the controller handled a message since the core
	// last asked (TakeTouched): every way the memory system reaches into a
	// core — a fill, an invalidation, a retry — starts in handle. Derived,
	// never serialized; a restored L1 starts touched.
	touched bool
}

func newL1(id int, cfg *arch.Config, fab *fabric, count *stats.Counters) *L1 {
	return &L1{
		id:    id,
		cfg:   cfg,
		fab:   fab,
		count: count,
		cnt:   bindL1Counters(count),
		rec:   obs.Nop,
		tags:  cache.NewSetAssoc(cfg.L1Sets, cfg.L1Ways),
		mshr:  cache.NewMSHR(cfg.L1MSHRs),
	}
}

// SetHooks attaches the owning core's pipeline callbacks.
func (l *L1) SetHooks(h CoreHooks) { l.hooks = h }

// SetRecorder attaches an event recorder (the owning core forwards its own
// recorder here so memory-side events share the core's id).
func (l *L1) SetRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Nop
	}
	l.rec = r
	l.tracing = r.Enabled()
}

func (l *L1) addr() Addr { return Addr{Idx: l.id} }

func (l *L1) home(line uint64) Addr {
	return Addr{Dir: true, Idx: l.cfg.LLCSlice(line)}
}

// newCycle resets per-cycle port accounting and records the current cycle
// for event timestamps.
func (l *L1) newCycle(now int64) {
	l.portsUsed = 0
	l.now = now
}

// AcquirePort consumes one L1 access port for this cycle, reporting whether
// one was available.
func (l *L1) AcquirePort() bool {
	if l.portsUsed >= l.cfg.L1Ports {
		return false
	}
	l.portsUsed++
	return true
}

// PortsUsed returns the number of ports consumed so far this cycle.
func (l *L1) PortsUsed() int { return l.portsUsed }

// TakeTouched reports whether the controller handled any message since the
// previous call, and clears the mark. While it stays false nothing the core
// reads through this L1 (data arrivals, Probe and HasWritable answers, the
// hooks) has changed except by the core's own requests.
func (l *L1) TakeTouched() bool {
	t := l.touched
	l.touched = false
	return t
}

// Scheduled returns the fabric's running count of queued messages and self
// events. Only the ticking core's L1 sends during that core's tick, so a
// core that sees the same value before and after sent nothing.
func (l *L1) Scheduled() uint64 { return l.fab.scheduled }

// TagSnapshot returns the observable state of the L1 tag array (valid
// lines with coherence state and per-set recency ranks) for the security
// oracle's state fingerprint.
func (l *L1) TagSnapshot() []cache.LineSnap { return l.tags.Snapshot() }

// MSHRLines returns the line addresses of the L1's outstanding fills, also
// part of the observable-state fingerprint.
func (l *L1) MSHRLines() []uint64 { return l.mshr.Lines() }

// Probe reports whether the line is present and readable, without changing
// any state. Delay-On-Miss uses it to decide whether a speculative load may
// proceed.
func (l *L1) Probe(line uint64) bool {
	e := l.tags.Lookup(l.cfg.L1Set(line), line)
	return e != nil && e.State.CanRead()
}

// TagEpoch advances whenever a line enters or leaves the tag array: while it
// is unchanged, Probe returns the same answer for every line.
func (l *L1) TagEpoch() uint64 { return l.tags.Epoch() }

// HasWritable reports whether the line is present in M or E state.
func (l *L1) HasWritable(line uint64) bool {
	e := l.tags.Lookup(l.cfg.L1Set(line), line)
	return e != nil && e.State.CanWrite()
}

// MergeStore writes a buffered store into the line if it is writable,
// upgrading Exclusive to Modified, and reports whether the merge happened.
func (l *L1) MergeStore(line uint64) bool {
	e := l.tags.Lookup(l.cfg.L1Set(line), line)
	if e == nil || !e.State.CanWrite() {
		return false
	}
	e.State = cache.Modified
	l.tags.Touch(e)
	return true
}

// Load issues a load for the line on behalf of the load identified by
// token. On LoadHit, hooks.LoadDone(token) fires after the hit latency; on
// LoadMiss it fires when the fill completes.
func (l *L1) Load(token int64, line uint64) LoadResult {
	set := l.cfg.L1Set(line)
	if e := l.tags.Lookup(set, line); e != nil && e.State.CanRead() {
		l.tags.Touch(e)
		*l.cnt.hits++
		l.fab.self(Msg{Kind: SelfDone, Line: line, Src: l.addr(), Dst: l.addr(),
			Token: token}, l.cfg.L1HitCycles)
		return LoadHit
	}
	if i := l.mshr.Lookup(line); i >= 0 {
		if l.mshr.Spec(i) {
			// A reversible speculative fill is in flight; it may complete
			// statelessly, which a demand waiter must not observe. Retry
			// once the spec fill resolves.
			return LoadBlocked
		}
		l.mshr.AddWaiter(i, token)
		*l.cnt.missCoalesced++
		return LoadMiss
	}
	if l.mshr.Free() == 0 {
		return LoadBlocked
	}
	l.mshr.Alloc(line, token)
	*l.cnt.misses++
	if l.tracing {
		l.rec.Record(obs.Event{Cycle: l.now, Core: int16(l.id), Kind: obs.KindMSHRAlloc, Line: line})
	}
	l.fab.send(Msg{Kind: GetS, Line: line, Src: l.addr(), Dst: l.home(line)}, 0)
	return LoadMiss
}

// LoadInvisible issues an InvisiSpec-style speculative access: the data is
// delivered to the load without touching replacement state, allocating an
// MSHR, installing a line, or changing directory state. An L1 hit is read
// in place (no LRU update); otherwise the home slice serves the data
// statelessly.
func (l *L1) LoadInvisible(token int64, line uint64) {
	set := l.cfg.L1Set(line)
	if e := l.tags.Lookup(set, line); e != nil && e.State.CanRead() {
		// Read without Touch: the access must not perturb LRU state.
		*l.cnt.invisibleHits++
		l.fab.self(Msg{Kind: SelfDone, Line: line, Src: l.addr(), Dst: l.addr(),
			Token: token}, l.cfg.L1HitCycles)
		return
	}
	*l.cnt.invisibleMisses++
	l.fab.send(Msg{Kind: GetSInv, Line: line, Src: l.addr(), Dst: l.home(line),
		Token: token}, 0)
}

// LoadSpec issues a reversible speculative access (RCP scheme): the load
// gets its data eagerly, pre-VP, and every piece of cache or directory
// state the access creates is journaled so SpecAbandon can reverse it
// exactly on a squash. A hit is read without an LRU update (deferred to
// SpecCommit); a miss allocates a spec-marked MSHR and sends GetSSpec.
// Spec fills never coalesce with anything: one token per transaction.
func (l *L1) LoadSpec(token int64, line uint64) LoadResult {
	set := l.cfg.L1Set(line)
	if e := l.tags.Lookup(set, line); e != nil && e.State.CanRead() {
		*l.cnt.specHits++
		l.spec = append(l.spec, specTxn{token: token, line: line, hit: true})
		l.fab.self(Msg{Kind: SelfDone, Line: line, Src: l.addr(), Dst: l.addr(),
			Token: token}, l.cfg.L1HitCycles)
		return LoadHit
	}
	if l.mshr.Lookup(line) >= 0 {
		return LoadBlocked
	}
	if l.mshr.Free() == 0 {
		return LoadBlocked
	}
	i := l.mshr.Alloc(line, token)
	l.mshr.SetSpec(i, true)
	*l.cnt.specMisses++
	if l.tracing {
		l.rec.Record(obs.Event{Cycle: l.now, Core: int16(l.id), Kind: obs.KindMSHRAlloc, Line: line})
	}
	l.fab.send(Msg{Kind: GetSSpec, Line: line, Src: l.addr(), Dst: l.home(line)}, 0)
	return LoadMiss
}

// SpecCommit finalizes a speculative access whose load retired: the
// deferred replacement-state updates happen now (Touch locally, a
// SpecCommit message to the home slice if a sharer bit was registered).
// Commit messages ride the reserved virtual network and consume no L1
// port: they carry no data and are off the load's critical path.
func (l *L1) SpecCommit(token int64) {
	txn, ok := l.takeSpec(token)
	if !ok {
		return
	}
	*l.cnt.specCommits++
	if e := l.tags.Lookup(l.cfg.L1Set(txn.line), txn.line); e != nil {
		l.tags.Touch(e)
	}
	if txn.undoDir {
		l.fab.send(Msg{Kind: SpecCommit, Line: txn.line, Src: l.addr(),
			Dst: l.home(txn.line)}, 0)
	}
}

// SpecAbandon reverses a speculative access whose load was squashed. If
// the fill is still in flight the token is marked abandoned and the
// arriving fill is reversed on the spot; otherwise the journaled state is
// undone immediately.
func (l *L1) SpecAbandon(token int64) {
	txn, ok := l.takeSpec(token)
	if !ok {
		l.specAband = append(l.specAband, token)
		return
	}
	l.undoSpec(txn)
}

// specAt returns the index of token's journal record, or -1.
func (l *L1) specAt(token int64) int {
	return slices.IndexFunc(l.spec, func(t specTxn) bool { return t.token == token })
}

// takeSpec removes token's journal record and returns it, and whether there
// was one.
func (l *L1) takeSpec(token int64) (specTxn, bool) {
	i := l.specAt(token)
	if i < 0 {
		return specTxn{}, false
	}
	txn := l.spec[i]
	l.spec = slices.Delete(l.spec, i, i+1)
	return txn, true
}

// undoSpec reverses the journaled state of one speculative transaction.
// The local invalidation deliberately skips the OnInvalidate LQ snoop: the
// line leaves the cache because this core discards its own speculative
// copy, not because a remote write changed the data, so no performed load
// can have read a stale value.
func (l *L1) undoSpec(txn specTxn) {
	*l.cnt.specRollbacks++
	if txn.installed {
		// Remove the line only if it is still the speculative Shared copy;
		// an intervening architectural action (a store upgrading it to M)
		// legitimizes the line and the rollback must leave it alone.
		if e := l.tags.Lookup(l.cfg.L1Set(txn.line), txn.line); e != nil &&
			e.State == cache.Shared {
			l.tags.Invalidate(e)
		}
	}
	if txn.undoDir {
		l.fab.send(Msg{Kind: SpecUndo, Line: txn.line, Src: l.addr(),
			Dst: l.home(txn.line)}, 0)
	}
}

// handleDataSpec completes a speculative fill. DataSpecS may install into
// an invalid way (never evicting); DataSpecInv was served statelessly and
// installs nothing. A fill whose token was abandoned mid-flight is
// reversed immediately instead of being delivered.
func (l *L1) handleDataSpec(m Msg) {
	i := l.mshr.Lookup(m.Line)
	if i < 0 {
		return
	}
	registered := m.Kind == DataSpecS && m.Acks == 1
	for _, w := range l.mshr.Release(i) {
		if i := slices.Index(l.specAband, w); i >= 0 {
			l.specAband = slices.Delete(l.specAband, i, i+1)
			if registered {
				l.fab.send(Msg{Kind: SpecUndo, Line: m.Line, Src: l.addr(),
					Dst: l.home(m.Line)}, 0)
			}
			*l.cnt.specRollbacks++
			continue
		}
		txn := specTxn{token: w, line: m.Line, undoDir: registered}
		if m.Kind == DataSpecS {
			set := l.cfg.L1Set(m.Line)
			if l.tags.Lookup(set, m.Line) == nil {
				if way := l.tags.InvalidWay(set); way != nil {
					l.tags.InstallQuiet(way, m.Line, cache.Shared)
					txn.installed = true
					*l.cnt.specInstalls++
				}
			}
		}
		l.spec = append(l.spec, txn)
		l.hooks.LoadDone(w)
	}
}

// Acquire starts (or continues) an ownership transaction for the line so
// buffered stores can merge into it. It is idempotent: calls while the line
// is already writable or a transaction is outstanding are no-ops.
// hooks.LineOwned fires when ownership is obtained.
func (l *L1) Acquire(line uint64) {
	if l.acqTxn(line) != nil {
		return
	}
	set := l.cfg.L1Set(line)
	if e := l.tags.Lookup(set, line); e != nil && e.State.CanWrite() {
		return
	}
	var st *storeTxn
	if n := len(l.txnFree); n > 0 {
		st = l.txnFree[n-1]
		l.txnFree = l.txnFree[:n-1]
		*st = storeTxn{line: line}
	} else {
		st = &storeTxn{line: line}
	}
	l.acq = append(l.acq, st)
	l.tryAcquire(st)
}

// acqTxn returns the outstanding ownership transaction for the line, or nil.
func (l *L1) acqTxn(line uint64) *storeTxn {
	for _, st := range l.acq {
		if st.line == line {
			return st
		}
	}
	return nil
}

// tryAcquire sends (or re-sends) the ownership request.
func (l *L1) tryAcquire(st *storeTxn) {
	set := l.cfg.L1Set(st.line)
	if e := l.tags.Lookup(set, st.line); e != nil && e.State.CanWrite() {
		l.ownComplete(st)
		return
	}
	kind := GetX
	if st.star {
		kind = GetXStar
	}
	st.inFlight = true
	st.need = -1
	st.got = 0
	st.deferred = false
	l.fab.send(Msg{Kind: kind, Line: st.line, Src: l.addr(), Dst: l.home(st.line)}, 0)
}

// ownComplete finishes an ownership transaction and recycles its storeTxn
// (nothing holds the pointer once the line leaves acq; later arrivals for
// the line look it up afresh and see nil).
func (l *L1) ownComplete(st *storeTxn) {
	i := slices.Index(l.acq, st)
	l.acq = slices.Delete(l.acq, i, i+1)
	l.txnFree = append(l.txnFree, st)
	l.fab.self(Msg{Kind: SelfDone, Line: st.line, Src: l.addr(), Dst: l.addr(),
		Token: -2}, l.cfg.L1HitCycles)
}

// Prefetch issues a next-line prefetch if the prefetcher is enabled and
// resources allow. Prefetch fills install normally but wake no loads.
func (l *L1) prefetchAfterFill(line uint64) {
	if !l.cfg.Prefetch {
		return
	}
	next := line + 1
	if l.Probe(next) || l.mshr.Lookup(next) >= 0 || l.mshr.Free() < 3 {
		return
	}
	l.mshr.Alloc(next, -1)
	*l.cnt.prefetches++
	if l.tracing {
		l.rec.Record(obs.Event{Cycle: l.now, Core: int16(l.id), Kind: obs.KindMSHRAlloc, Line: next, Arg: 1})
	}
	l.fab.send(Msg{Kind: GetS, Line: next, Src: l.addr(), Dst: l.home(next)}, 0)
}

func (l *L1) handle(m Msg) {
	l.touched = true
	switch m.Kind {
	case SelfDone:
		if m.Token == -2 {
			l.hooks.LineOwned(m.Line)
		} else {
			l.hooks.LoadDone(m.Token)
		}
	case DataS, DataE:
		l.handleFill(m)
	case DataInv:
		// Invisible data: deliver without installing anything.
		l.hooks.LoadDone(m.Token)
	case DataSpecS, DataSpecInv:
		l.handleDataSpec(m)
	case DataX:
		l.handleDataX(m)
	case InvAck:
		l.handleInvResp(m, false)
	case Defer:
		l.handleInvResp(m, true)
	case Inv, InvStar:
		l.handleInv(m)
	case FwdGetS:
		l.handleFwdGetS(m)
	case FwdGetX, FwdGetXStar:
		l.handleFwdGetX(m)
	case Recall:
		l.handleRecall(m)
	case Clear:
		l.hooks.OnClear(m.Line)
	case Nack:
		l.handleNack(m)
	case PutMAck:
		if i := slices.Index(l.evictBuf, m.Line); i >= 0 {
			l.evictBuf = slices.Delete(l.evictBuf, i, i+1)
		}
	case SelfRetry:
		l.handleRetry(m)
	default:
		panic("coherence: L1 received " + m.Kind.String())
	}
}

// handleFill processes a granted read copy (from the directory or forwarded
// by the previous owner).
func (l *L1) handleFill(m Msg) {
	st := cache.Shared
	if m.Kind == DataE {
		st = cache.Exclusive
	}
	i := l.mshr.Lookup(m.Line)
	if i < 0 {
		// The fill raced with an invalidation that dropped the request;
		// nothing waits for it anymore.
		return
	}
	l.install(m.Line, st)
	l.finishFill(m.Line, i)
}

// install places a granted line into the cache in state st: in place if the
// line is present (an upgrade, e.g. S->M on a store grant), else into the
// set's victim way, evicting the line it held. A pinned line is never
// evicted (paper Section 5.1.3), and a core pins at most L1Ways−1 lines in
// one L1 set (pipeline's l1SetRoom), so a victim always exists; a set with
// every way pinned is a broken bound and fails the run here.
func (l *L1) install(line uint64, st cache.State) {
	set := l.cfg.L1Set(line)
	if e := l.tags.Lookup(set, line); e != nil {
		e.State = st
		l.tags.Touch(e)
		return
	}
	victim := l.tags.Victim(set, l.hooks.PinnedLine)
	if victim == nil {
		panic(fmt.Sprintf("coherence: L1 %d @%d: installing %#x, every way of set %d holds a pinned line",
			l.id, l.now, line, set))
	}
	if victim.State != cache.Invalid {
		l.evict(victim)
	}
	l.tags.Install(victim, line, st)
}

// evict removes a victim line from the L1, writing back dirty data and
// performing the conventional TSO eviction squash check at the core.
func (l *L1) evict(victim *cache.Line) {
	*l.cnt.evictions++
	if victim.State == cache.Modified || victim.State == cache.Exclusive {
		l.evictBuf = append(l.evictBuf, victim.Addr)
		l.fab.send(Msg{Kind: PutM, Line: victim.Addr, Src: l.addr(),
			Dst: l.home(victim.Addr)}, 0)
	}
	// Shared lines are evicted silently; the directory's sharer bits stay
	// conservative. Either way the core loses the line.
	l.hooks.OnInvalidate(victim.Addr)
	l.tags.Invalidate(victim)
}

func (l *L1) finishFill(line uint64, mshrIdx int) {
	// The pinned record lives in the core's LQ, so a fill Early Pinning
	// pinned before its data arrived needs no state copied into the tags.
	waiters := l.mshr.Release(mshrIdx)
	demand := false
	for _, w := range waiters {
		if w >= 0 {
			demand = true
			l.hooks.LoadDone(w)
		}
	}
	// Trigger the next-line prefetcher only after delivering the waiters:
	// its MSHR allocation may reuse the entry just released.
	if demand {
		l.prefetchAfterFill(line)
	}
}

// handleDataX processes the directory's write grant for an outstanding
// ownership transaction.
func (l *L1) handleDataX(m Msg) {
	st := l.acqTxn(m.Line)
	if st == nil {
		// A stale grant from an aborted transaction; ignore.
		return
	}
	st.need = m.Acks
	l.maybeResolveAcquire(st)
}

// handleInvResp processes a sharer's InvAck or Defer addressed to this L1
// as the write requestor.
func (l *L1) handleInvResp(m Msg, deferred bool) {
	st := l.acqTxn(m.Line)
	if st == nil {
		return
	}
	st.got++
	if deferred {
		st.deferred = true
	}
	l.maybeResolveAcquire(st)
}

// maybeResolveAcquire completes or aborts an ownership transaction once the
// grant and all sharer responses have arrived.
func (l *L1) maybeResolveAcquire(st *storeTxn) {
	if st.need < 0 || st.got < st.need {
		return
	}
	if st.deferred {
		// At least one sharer has the line pinned: abort at the
		// directory and retry with GetX* after a backoff (Figure 5a).
		*l.cnt.retriedWrites++
		l.fab.send(Msg{Kind: Abort, Line: st.line, Src: l.addr(),
			Dst: l.home(st.line)}, 0)
		st.inFlight = false
		st.star = true
		l.hooks.StoreDeferred(st.line)
		l.fab.self(Msg{Kind: SelfRetry, Line: st.line, Src: l.addr(),
			Dst: l.addr(), Token: retryStore}, l.cfg.WriteRetryBackoff)
		return
	}
	if st.need > 0 {
		l.fab.send(Msg{Kind: Unblock, Line: st.line, Src: l.addr(),
			Dst: l.home(st.line)}, 0)
	}
	// Install the line in Modified state and report completion.
	l.install(st.line, cache.Modified)
	l.ownComplete(st)
}

// handleInv processes an invalidation on behalf of a writer at another
// core. If the line is pinned, the invalidation is denied with Defer and
// the local copy is kept (paper Figure 3b).
func (l *L1) handleInv(m Msg) {
	if m.Kind == InvStar {
		l.hooks.OnInvStar(m.Line)
	}
	if l.hooks.PinnedLine(m.Line) {
		*l.cnt.defers++
		if l.tracing {
			l.rec.Record(obs.Event{Cycle: l.now, Core: int16(l.id), Kind: obs.KindDeferredInval,
				Line: m.Line, Arg: int64(m.Requestor)})
		}
		l.fab.send(Msg{Kind: Defer, Line: m.Line, Src: l.addr(),
			Dst: Addr{Idx: m.Requestor}}, 0)
		return
	}
	l.dropLine(m.Line)
	l.fab.send(Msg{Kind: InvAck, Line: m.Line, Src: l.addr(),
		Dst: Addr{Idx: m.Requestor}}, 0)
}

// dropLine removes any local copy of the line and runs the core's MCV
// squash check.
func (l *L1) dropLine(line uint64) {
	set := l.cfg.L1Set(line)
	if e := l.tags.Lookup(set, line); e != nil {
		l.tags.Invalidate(e)
	}
	l.hooks.OnInvalidate(line)
}

func (l *L1) handleFwdGetS(m Msg) {
	req := Addr{Idx: m.Requestor}
	set := l.cfg.L1Set(m.Line)
	if e := l.tags.Lookup(set, m.Line); e != nil && e.State.CanWrite() {
		e.State = cache.Shared
		l.fab.send(Msg{Kind: DataS, Line: m.Line, Src: l.addr(), Dst: req}, 0)
		l.fab.send(Msg{Kind: WBShared, Line: m.Line, Src: l.addr(),
			Dst: l.home(m.Line)}, 0)
		return
	}
	if slices.Contains(l.evictBuf, m.Line) {
		// Serve from the evict buffer; the in-flight PutM completes the
		// downgrade at the directory.
		l.fab.send(Msg{Kind: DataS, Line: m.Line, Src: l.addr(), Dst: req}, 0)
		return
	}
	// The line may have been granted E but already dropped; the PutM/
	// recall path resolves the directory state. Send data regardless
	// (the LLC copy is current for clean lines).
	l.fab.send(Msg{Kind: DataS, Line: m.Line, Src: l.addr(), Dst: req}, 0)
	l.fab.send(Msg{Kind: WBShared, Line: m.Line, Src: l.addr(),
		Dst: l.home(m.Line)}, 0)
}

func (l *L1) handleFwdGetX(m Msg) {
	if m.Kind == FwdGetXStar {
		l.hooks.OnInvStar(m.Line)
	}
	req := Addr{Idx: m.Requestor}
	if l.hooks.PinnedLine(m.Line) {
		*l.cnt.defers++
		if l.tracing {
			l.rec.Record(obs.Event{Cycle: l.now, Core: int16(l.id), Kind: obs.KindDeferredInval,
				Line: m.Line, Arg: int64(m.Requestor)})
		}
		l.fab.send(Msg{Kind: Defer, Line: m.Line, Src: l.addr(), Dst: req}, 0)
		return
	}
	l.dropLine(m.Line)
	l.fab.send(Msg{Kind: InvAck, Line: m.Line, Src: l.addr(), Dst: req}, 0)
}

// handleRecall processes the directory's request to drop the line so it can
// be evicted from the LLC. Pinned lines deny the recall.
func (l *L1) handleRecall(m Msg) {
	if l.hooks.PinnedLine(m.Line) {
		if l.tracing {
			l.rec.Record(obs.Event{Cycle: l.now, Core: int16(l.id), Kind: obs.KindDeferredInval,
				Line: m.Line, Arg: -1})
		}
		l.fab.send(Msg{Kind: RecallDefer, Line: m.Line, Src: l.addr(),
			Dst: m.Src}, 0)
		return
	}
	if slices.Contains(l.evictBuf, m.Line) {
		// Already writing the line back; the PutM acts as the response.
		l.fab.send(Msg{Kind: RecallAck, Line: m.Line, Src: l.addr(),
			Dst: m.Src}, 0)
		return
	}
	l.dropLine(m.Line)
	l.fab.send(Msg{Kind: RecallAck, Line: m.Line, Src: l.addr(), Dst: m.Src}, 0)
}

// handleNack retries a rejected request after a backoff.
func (l *L1) handleNack(m Msg) {
	orig := Kind(m.Requestor)
	switch orig {
	case GetS, GetSSpec:
		if i := l.mshr.Lookup(m.Line); i >= 0 {
			l.fab.self(Msg{Kind: SelfRetry, Line: m.Line, Src: l.addr(),
				Dst: l.addr(), Token: retryRequest}, arch.NackBackoff)
		}
	case GetX, GetXStar:
		if st := l.acqTxn(m.Line); st != nil {
			st.inFlight = false
			l.fab.self(Msg{Kind: SelfRetry, Line: m.Line, Src: l.addr(),
				Dst: l.addr(), Token: retryStore}, arch.NackBackoff)
		}
	}
}

func (l *L1) handleRetry(m Msg) {
	switch m.Token {
	case retryStore:
		if st := l.acqTxn(m.Line); st != nil && !st.inFlight {
			l.tryAcquire(st)
		}
	case retryRequest:
		if i := l.mshr.Lookup(m.Line); i >= 0 {
			kind := GetS
			if l.mshr.Spec(i) {
				kind = GetSSpec
			}
			l.fab.send(Msg{Kind: kind, Line: m.Line, Src: l.addr(),
				Dst: l.home(m.Line)}, 0)
		}
	}
}
