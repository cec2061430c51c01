package coherence

import (
	"slices"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/cache"
	"pinnedloads/internal/ckptio"
)

// Decode bounds: a fabric slot holds at most a few messages per controller,
// the L1 keeps a handful of outstanding transactions, and the directory
// backlog is bounded by the cores' outstanding requests.
const (
	maxSlotMsgs = 1 << 16
	maxTxns     = 1 << 12
	maxBacklog  = 1 << 16
)

// walk carries a participant address; loading rejects one that names no
// controller of the system, which delivery would index with.
func (a *Addr) walk(s ckptio.State, cfg *arch.Config, what string) {
	s.Bool(&a.Dir)
	s.Int(&a.Idx)
	n := cfg.Cores
	if a.Dir {
		n = cfg.LLCSlices
	}
	if s.Loading() && s.Err() == nil && (a.Idx < 0 || a.Idx >= n) {
		s.Failf("message %s %v is not one of the system's %d", what, *a, n)
	}
}

// walk carries one coherence message. Requestor is not an endpoint to check:
// fetch completions carry the request's Kind in it.
func (m *Msg) walk(s ckptio.State, cfg *arch.Config) {
	ckptio.Enum(s, &m.Kind, numKinds-1, "message kind")
	s.U64(&m.Line)
	m.Src.walk(s, cfg, "source")
	m.Dst.walk(s, cfg, "destination")
	s.Int(&m.Acks)
	s.Int(&m.Requestor)
	s.Bool(&m.Star)
	s.I64(&m.Token)
}

// State walks the fabric: the current cycle and every non-empty calendar
// slot with its in-flight messages, in slot order (deterministic). Loading
// empties the slots the checkpoint does not name.
func (f *fabric) State(s ckptio.State, cfg *arch.Config) {
	s.I64(&f.cycle)
	slots := 0
	if s.Loading() {
		for i := range f.ring {
			f.ring[i] = f.ring[i][:0]
		}
		f.occupied = [len(f.occupied)]uint64{}
	} else {
		for i := range f.ring {
			if len(f.ring[i]) > 0 {
				slots++
			}
		}
	}
	slot := -1
	for slots = s.Count(slots, maxDelay); slots > 0; slots-- {
		if !s.Loading() {
			for slot++; len(f.ring[slot]) == 0; slot++ {
			}
		}
		s.Int(&slot)
		if s.Err() != nil {
			return
		}
		if slot < 0 || slot >= maxDelay {
			s.Failf("fabric slot %d out of range", slot)
			return
		}
		msgs := &f.ring[slot]
		ckptio.Slice(s, msgs, maxSlotMsgs)
		for i := range *msgs {
			(*msgs)[i].walk(s, cfg)
		}
		if len(*msgs) > 0 {
			f.occupied[slot/64] |= 1 << uint(slot%64)
		}
	}
}

func (st *storeTxn) walk(s ckptio.State) {
	s.U64(&st.line)
	s.Bool(&st.star)
	s.Int(&st.need)
	s.Int(&st.got)
	s.Bool(&st.deferred)
	s.Bool(&st.inFlight)
}

func (p *pendingFill) walk(s ckptio.State) {
	s.U64(&p.line)
	ckptio.Enum(s, &p.state, cache.Modified, "pending-fill state")
	s.Int(&p.mshr)
}

// walk carries a journal record; its token is the key it is stored under.
func (t *specTxn) walk(s ckptio.State) {
	s.U64(&t.line)
	s.Bool(&t.hit)
	s.Bool(&t.installed)
	s.Bool(&t.undoDir)
}

// State walks an L1 controller's mutable state. The tag array and MSHR file
// carry their own geometry checks; tables go in sorted key order for
// deterministic bytes.
func (l *L1) State(s ckptio.State) {
	if s.Loading() {
		l.touched = true
		l.txnFree = l.txnFree[:0]
	}
	s.I64(&l.now)
	l.tags.State(s)
	l.mshr.State(s)

	acq := ckptio.WalkTable[uint64](s, &l.acq, maxTxns)
	for acq.Next() {
		if s.Loading() {
			acq.Val = &storeTxn{}
		}
		acq.Val.walk(s)
		acq.Key = acq.Val.line
	}
	evict := ckptio.WalkTable[uint64](s, &l.evictBuf, maxTxns)
	for evict.Next() {
		s.U64(&evict.Key)
	}

	ckptio.Slice(s, &l.pending, maxTxns)
	for i := range l.pending {
		l.pending[i].walk(s)
	}
	s.Int(&l.portsUsed)
	s.U64(&l.lastFill)

	spec := ckptio.WalkTable[int64](s, &l.spec, maxTxns)
	for spec.Next() {
		s.I64(&spec.Key)
		spec.Val.walk(s)
	}
	aband := ckptio.WalkTable[int64](s, &l.specAband, maxTxns)
	for aband.Next() {
		s.I64(&aband.Key)
	}
}

// Record forms of the directory section (DESIGN.md §10). The valid ways are
// written in plane-major order — way w of set s has index w*LLCSets+s, the
// order the slice keeps its runs in — as records: each is the distance of its
// first way from the last way of the record before it, one form byte, then
//
//	lineDefault: n >= 1, addr, lru — n consecutive ways in the default
//	    state (no sharers, no owner, no transient or residual field set),
//	    the first holding addr and lru and each one after it the address
//	    LLCSlices further on and the next stamp: what Prewarm leaves along a
//	    plane, and most of a warmed LLC still is
//	lineFull: addr, lru and every other field of one way
//
// The encoding is canonical — one byte string per slice state — so a
// default-state way must be in a run, a run must take in every way it could
// (a lineDefault record that continues the one before it is rejected), and
// LoadState rejects both a default line in the long form and a split run.
const (
	lineDefault = 0
	lineFull    = 1
)

// defaultLine returns the default-state line with the given address and
// LRU stamp: the only two fields lineDefault carries.
func defaultLine(addr, lru uint64) dirLine {
	return dirLine{valid: true, addr: addr, lru: lru, owner: -1}
}

// isDefault reports whether the valid line equals defaultLine(addr, lru),
// field by field: SaveState asks it of every stored line it walks, and the
// compiler's struct comparison is a call that costs as much as encoding the
// line. TestIsDefaultCoversEveryField holds the two to each other.
func (ln *dirLine) isDefault() bool {
	diff := ln.sharers | ln.prevSharers | uint32(ln.pendAcks) | uint32(ln.busy^busyNone) |
		uint32(ln.busyReq) | uint32(ln.fetchKind^kindNone)
	return diff == 0 && ln.owner == -1 && !ln.busyStar && !ln.deferred && !ln.specBorn
}

// dirRec is one record of a slice's section, and the form a slice keeps its
// pending ways in: the n default-state ways from plane-major index at on, the
// first holding addr and lru, or with n == 0 the way at in the long form.
type dirRec struct {
	at, n     int32
	addr, lru uint64
}

// last returns the index of the record's last way.
func (r dirRec) last() int { return int(r.at) + max(int(r.n), 1) - 1 }

// after returns where a run goes on in a directory of the given slice count.
func (r dirRec) after(slices uint64) runNext {
	k := uint64(r.n - 1)
	return runAfter(r.last(), r.addr+k*slices, r.lru+k, slices)
}

// runNext is where a run of default-state ways goes on: the index, address
// and stamp of the way that would extend it. at is -1 if nothing can — the
// address or the stamp would wrap, or the last record is not a run.
type runNext struct {
	at        int
	addr, lru uint64
}

// follows reports whether a default-state way continues the run.
func (nx runNext) follows(at int, addr, lru uint64) bool {
	return at == nx.at && addr == nx.addr && lru == nx.lru
}

// runAfter returns where a run whose last way is at, holding addr and lru,
// goes on in a directory of the given slice count. The encoder and the
// decoder both ask it, so they agree on what a maximal run is.
func runAfter(at int, addr, lru, slices uint64) runNext {
	nx := runNext{at + 1, addr + slices, lru + 1}
	if nx.addr < addr || nx.lru == 0 {
		nx.at = -1
	}
	return nx
}

// recorder turns a slice's valid ways, fed in index order, into its records —
// maximal runs of the default-state ones, a long-form record for each of the
// others — and counts them, writing them to e too unless e is nil. It holds
// the record it is building until the next one starts, so a run is written
// whole.
type recorder struct {
	d        *Dir
	e        *ckptio.Encoder
	count    int
	cur      dirRec // the record being built, if building
	building bool
	prev     int     // the last way of the record before cur
	nx       runNext // where cur goes on, if it is a run
}

// start finishes the record being built and begins r.
func (b *recorder) start(r dirRec) {
	b.finish()
	b.cur, b.building = r, true
}

// finish counts the record being built and writes it.
func (b *recorder) finish() {
	if !b.building {
		return
	}
	b.building = false
	b.count++
	e, r := b.e, b.cur
	if e == nil {
		return
	}
	e.U64(uint64(int(r.at) - b.prev))
	b.prev = r.last()
	if r.n > 0 {
		e.U8(lineDefault)
		e.U64(uint64(r.n))
		e.U64(r.addr)
		e.U64(r.lru)
		return
	}
	ln := b.d.way(int(r.at)&(b.d.cfg.LLCSets-1), int(r.at)>>b.d.setBits)
	e.U8(lineFull)
	e.U64(ln.addr)
	e.U64(ln.lru)
	e.U32(ln.sharers)
	e.I64(int64(ln.owner))
	e.U8(uint8(ln.busy))
	e.I64(int64(ln.busyReq))
	e.Bool(ln.busyStar)
	e.U32(ln.prevSharers)
	e.I32(ln.pendAcks)
	e.Bool(ln.deferred)
	e.U8(uint8(ln.fetchKind))
	e.Bool(ln.specBorn)
}

// run takes the n default-state ways of run r from index at on.
func (b *recorder) run(r dirRec, at, n int) {
	if n == 0 {
		return
	}
	k, stride := uint64(at-int(r.at)), uint64(b.d.cfg.LLCSlices)
	if addr, lru := r.addr+k*stride, r.lru+k; b.nx.follows(at, addr, lru) {
		b.cur.n += int32(n)
	} else {
		b.start(dirRec{at: int32(at), n: int32(n), addr: addr, lru: lru})
	}
	b.nx = b.cur.after(stride)
}

// way takes stored way w of the set, if it is valid.
func (b *recorder) way(set, w int) {
	if w >= int(b.d.sets[set].cap) {
		return
	}
	lines, tags := b.d.stored(set)
	if tags[w] == 0 {
		return
	}
	at, ln := w<<b.d.setBits|set, &lines[w]
	if ln.isDefault() {
		b.run(dirRec{at: int32(at), n: 1, addr: ln.addr, lru: ln.lru}, at, 1)
		return
	}
	b.start(dirRec{at: int32(at)})
	b.nx.at = -1
}

// records merges the slice's runs and stored ways into its records, one
// plane at a time: in plane w, a run's ways go in as they are except in the
// sets the protocol has opened, where the stored way stands instead, and
// every stored way outside a run goes in between. It costs the runs, plus
// the planes times the sets with storage — not the ways of the slice.
func (d *Dir) records(b *recorder) {
	slices.Sort(d.held)
	b.prev, b.nx = -1, runNext{at: -1}
	stored := 0 // the planes with a stored way
	for _, s := range d.held {
		stored = max(stored, int(d.sets[s].cap))
	}
	sets, ri := d.cfg.LLCSets, 0
	for w := 0; w < stored || ri < len(d.runs); w++ {
		base, k := w<<d.setBits, 0
		for ; ri < len(d.runs) && int(d.runs[ri].at) < base+sets; ri++ {
			r := d.runs[ri]
			lo, hi := max(int(r.at)-base, 0), min(r.last()+1-base, sets)
			for ; k < len(d.held) && int(d.held[k]) < hi; k++ {
				s := int(d.held[k])
				switch {
				case s < lo:
					b.way(s, w)
				case d.sets[s].pend() == 0:
					b.run(r, base+lo, s-lo)
					b.way(s, w)
					lo = s + 1
				}
			}
			b.run(r, base+lo, hi-lo)
			if r.last() >= base+sets {
				break // the run goes on in the next plane
			}
		}
		for ; k < len(d.held); k++ {
			b.way(int(d.held[k]), w)
		}
	}
	b.finish()
}

// SaveState serializes a directory/LLC slice: the LRU stamp clock, the
// records of its valid ways (invalid ways hold no state and are not
// written), and the demand backlog. It installs nothing and keeps nothing:
// one merge of the runs and the stored ways counts the records, a second
// writes them.
func (d *Dir) SaveState(e *ckptio.Encoder) {
	count := recorder{d: d}
	d.records(&count)
	e.U64(d.stamp)
	e.Int(len(d.sets) * d.cfg.LLCWays)
	e.U64(uint64(count.count))
	d.records(&recorder{d: d, e: e})
	e.Int(d.demandUsed)
	e.U64(uint64(d.backlog.Len()))
	for i := 0; i < d.backlog.Len(); i++ {
		m := d.backlog.At(i)
		m.walk(ckptio.SaveTo(e), d.cfg)
	}
}

// coreField reads a directory line's owner or requestor: a core index, or
// -1 for none.
func (d *Dir) coreField(dec *ckptio.Decoder, what string) int8 {
	v := dec.I64()
	if v < -1 || v >= int64(d.cfg.Cores) {
		dec.Failf("directory %s %d is not a core", what, v)
		return 0
	}
	return int8(v)
}

// atHome reports whether a way of the set is one the line can live in: the
// slice is the line's home slice and the set its home set. find looks nowhere
// else, so a line anywhere else is one the protocol can never hit.
func (d *Dir) atHome(set int, line uint64) bool {
	home, _ := d.home(line)
	return d.cfg.LLCSlice(line) == d.idx && home == set
}

// loadRun reads the rest of a lineDefault record whose first way is at and
// records the run as pending, unless it continues the run that nx is the end
// of. It returns the run's last way and where the run goes on, or fails the
// decoder.
func (d *Dir) loadRun(dec *ckptio.Decoder, at int, nx runNext) (int, runNext) {
	n, addr, lru := dec.U64(), dec.U64(), dec.U64()
	if dec.Err() != nil {
		return at, nx
	}
	total, stride := len(d.sets)*d.cfg.LLCWays, uint64(d.cfg.LLCSlices)
	switch {
	case n == 0 || n > uint64(total-at):
		dec.Failf("directory run of %d ways from way %d leaves %d ways", n, at, total)
	case !d.atHome(at&(d.cfg.LLCSets-1), addr):
		dec.Failf("directory way %d: line %#x is not at home", at, addr)
	case addr+(n-1)*stride < addr || lru+n-1 < lru:
		dec.Failf("directory run of %d ways from line %#x, stamp %d wraps", n, addr, lru)
	case nx.follows(at, addr, lru):
		dec.Failf("directory way %d: run continues the one before it", at)
	default:
		r := dirRec{at: int32(at), n: int32(n), addr: addr, lru: lru}
		d.runs = append(d.runs, r)
		for i, end := at, r.last()+1; i < end; {
			set := i & (d.cfg.LLCSets - 1)
			stretch := d.sets[set:min(d.cfg.LLCSets, set+end-i)] // up to the plane's end
			for k := range stretch {
				stretch[k].occ++
			}
			i += len(stretch)
		}
		d.resident += int(n)
		return r.last(), r.after(stride)
	}
	return at, nx
}

// loadLine reads the rest of a lineFull record and installs its way.
func (d *Dir) loadLine(dec *ckptio.Decoder, at int) {
	ln := defaultLine(dec.U64(), dec.U64())
	ln.sharers = dec.U32()
	ln.owner = d.coreField(dec, "owner")
	b := dec.U8()
	ln.busy = busyKind(b)
	ln.busyReq = d.coreField(dec, "requestor")
	ln.busyStar = dec.Bool()
	ln.prevSharers = dec.U32()
	ln.pendAcks = dec.I32()
	ln.deferred = dec.Bool()
	fk := dec.U8()
	ln.fetchKind = Kind(fk)
	ln.specBorn = dec.Bool()
	switch {
	case dec.Err() != nil:
	case ln.busy > busyRecall:
		dec.Failf("invalid directory busy state %d", b)
	case ln.fetchKind >= numKinds:
		dec.Failf("invalid fetch kind %d", fk)
	case !d.atHome(at&(d.cfg.LLCSets-1), ln.addr):
		dec.Failf("directory way %d: line %#x is not at home", at, ln.addr)
	case ln == defaultLine(ln.addr, ln.lru):
		dec.Failf("directory way %d: default-state line in the long form", at)
	default:
		d.install(at&(d.cfg.LLCSets-1), at>>d.setBits, ln)
	}
}

// LoadState restores a directory slice of the same geometry. A run becomes
// pending ways, as Prewarm leaves them, and a long-form line is stored; ways
// the checkpoint does not name end up invalid. A target that holds lines or
// storage gives them up first, keeping its slabs. A record is checked whole
// before any of it is taken — its ways lie inside the slice, its first line
// is at home in its first way (the later lines of a run follow: the address
// steps by the slice count, so the slice stays and the set steps with the
// index, across a plane boundary too), a run is maximal — so a rejected
// section leaves a consistent slice. An accepted run costs one record
// however many ways it covers, and a long-form line at most its set's
// storage: what geometry already permits.
func (d *Dir) LoadState(dec *ckptio.Decoder) {
	d.stamp = dec.U64()
	n := dec.Int()
	if dec.Err() != nil {
		return
	}
	total := len(d.sets) * d.cfg.LLCWays
	if n != total {
		dec.Failf("directory has %d ways, checkpoint has %d", total, n)
		return
	}
	if d.resident > 0 || d.next > 0 {
		clear(d.sets)
		for _, sl := range d.slabs {
			clear(sl.lines)
			clear(sl.tags)
		}
	}
	d.runs, d.held, d.next, d.resident = d.runs[:0], d.held[:0], 0, 0
	nx := runNext{at: -1}
	for count, prev := dec.Count(total), -1; count > 0; count-- {
		step, form := dec.U64(), dec.U8()
		switch {
		case dec.Err() != nil:
		case step == 0 || step > uint64(total-1-prev):
			dec.Failf("directory way step %d from way %d leaves %d ways", step, prev, total)
		case form == lineDefault:
			prev, nx = d.loadRun(dec, prev+int(step), nx)
		case form == lineFull:
			prev += int(step)
			d.loadLine(dec, prev)
			nx.at = -1
		default:
			dec.Failf("unknown directory line form %d", form)
		}
		if dec.Err() != nil {
			return
		}
	}
	d.demandUsed = dec.Int()
	for d.backlog.Len() > 0 {
		d.backlog.Pop()
	}
	nb := dec.Count(maxBacklog)
	for i := 0; i < nb; i++ {
		var m Msg
		m.walk(ckptio.LoadFrom(dec), d.cfg)
		if dec.Err() != nil {
			return
		}
		d.backlog.Push(m)
	}
}

// State joins the slice to a walk. The directory section is the one place
// the two directions share a format and no logic (a merge of runs and stored
// ways out, runs recorded in), so they stay a pair.
func (d *Dir) State(s ckptio.State) {
	if s.Loading() {
		d.LoadState(s.Decoder())
	} else {
		d.SaveState(s.Encoder())
	}
}

// State walks the whole memory hierarchy: mesh traffic counters, the fabric
// calendar, then every L1 and directory slice of a system built from the same
// configuration.
func (s *System) State(st ckptio.State) {
	s.mesh.State(st)
	s.fab.State(st, s.cfg)
	if !st.GeometryInt(len(s.l1s), "L1s") {
		return
	}
	for _, l := range s.l1s {
		l.State(st)
	}
	if !st.GeometryInt(len(s.dirs), "directory slices") {
		return
	}
	for _, d := range s.dirs {
		d.State(st)
	}
}
