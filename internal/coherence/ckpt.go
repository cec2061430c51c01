package coherence

import (
	"slices"

	"pinnedloads/internal/arch"
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
// slot with its in-flight messages. A slot is named by its arrival cycle mod
// arch.MaxFabricSlots, whatever the ring's length, and the names go in
// ascending order (deterministic). Loading empties the slots the checkpoint
// does not name and rejects one farther ahead than this machine's ring holds.
func (f *fabric) State(s ckptio.State, cfg *arch.Config) {
	s.I64(&f.cycle)
	slots := 0
	if s.Loading() {
		for i := range f.ring {
			f.ring[i] = f.ring[i][:0]
		}
		clear(f.occupied)
	} else {
		for i := range f.ring {
			if len(f.ring[i]) > 0 {
				slots++
			}
		}
	}
	slot := -1
	for slots = s.Count(slots, arch.MaxFabricSlots); slots > 0; slots-- {
		if !s.Loading() {
			for slot++; f.arrival(slot)-f.cycle > f.mask || len(f.ring[f.arrival(slot)&f.mask]) == 0; slot++ {
			}
		}
		s.Int(&slot)
		if s.Err() != nil {
			return
		}
		if slot < 0 || slot >= arch.MaxFabricSlots {
			s.Failf("fabric slot %d out of range", slot)
			return
		}
		at := f.arrival(slot)
		if at-f.cycle > f.mask {
			s.Failf("fabric slot %d arrives %d cycles ahead, past this machine's %d-slot ring", slot, at-f.cycle, len(f.ring))
			return
		}
		msgs := &f.ring[at&f.mask]
		ckptio.Slice(s, msgs, maxSlotMsgs)
		for i := range *msgs {
			(*msgs)[i].walk(s, cfg)
		}
		if len(*msgs) > 0 {
			f.occupied[at&f.mask/64] |= 1 << uint(at&63)
		}
	}
}

// arrival returns the cycle, one to arch.MaxFabricSlots after the fabric's,
// that the checkpoint names slot.
func (f *fabric) arrival(slot int) int64 {
	return f.cycle + 1 + (int64(slot)-f.cycle-1)&(arch.MaxFabricSlots-1)
}

func (st *storeTxn) walk(s ckptio.State) {
	s.U64(&st.line)
	s.Bool(&st.star)
	s.Int(&st.need)
	s.Int(&st.got)
	s.Bool(&st.deferred)
	s.Bool(&st.inFlight)
}

func (t *specTxn) walk(s ckptio.State) {
	s.I64(&t.token)
	s.U64(&t.line)
	s.Bool(&t.hit)
	s.Bool(&t.installed)
	s.Bool(&t.undoDir)
}

// State walks an L1 controller's mutable state. The tag array and MSHR file
// carry their own geometry checks; the transaction lists go in arrival
// order. The controller keeps one entry per line or token and finds the
// first, so loading rejects a line twice in acq or in evictBuf, and a token
// twice in spec and specAband together. The ports used this cycle are not
// walked: every capture lies between cycles, and the next Tick resets them
// before anything reads them.
func (l *L1) State(s ckptio.State) {
	if s.Loading() {
		l.touched = true
		l.txnFree = l.txnFree[:0]
		l.portsUsed = 0
	}
	ckptio.Ticking(s, &l.now)
	l.tags.State(s)
	l.mshr.State(s)

	ckptio.Slice(s, &l.acq, maxTxns)
	for i := range l.acq {
		if s.Loading() {
			l.acq[i] = &storeTxn{}
		}
		l.acq[i].walk(s)
		if s.Loading() && l.acqTxn(l.acq[i].line) != l.acq[i] {
			s.Failf("L1 %d: line %#x has two ownership transactions", l.id, l.acq[i].line)
		}
	}
	ckptio.Slice(s, &l.evictBuf, maxTxns)
	for i := range l.evictBuf {
		s.U64(&l.evictBuf[i])
		if s.Loading() && slices.Index(l.evictBuf, l.evictBuf[i]) != i {
			s.Failf("L1 %d: line %#x is written back twice", l.id, l.evictBuf[i])
		}
	}

	ckptio.Slice(s, &l.spec, maxTxns)
	for i := range l.spec {
		l.spec[i].walk(s)
		if t := l.spec[i].token; s.Loading() && l.specAt(t) != i {
			s.Failf("L1 %d: token %d has two journal records", l.id, t)
		}
	}
	ckptio.Slice(s, &l.specAband, maxTxns)
	for i := range l.specAband {
		s.I64(&l.specAband[i])
		if t := l.specAband[i]; s.Loading() && (slices.Index(l.specAband, t) != i || l.specAt(t) >= 0) {
			s.Failf("L1 %d: token %d is abandoned twice, or journaled too", l.id, t)
		}
	}
}

// Record forms of the directory section (DESIGN.md §10): the valid ways go in
// plane-major order — way w of set s has index w*LLCSets+s, the order of the
// runs — as records, each the distance of its first way from the last way of
// the record before it, a form byte, then for lineDefault a maximal run of
// n >= 1 default-state ways (n, the first one's addr and lru; each later one
// holds the address LLCSlices further on and the next stamp), for lineFull
// one way in full. One byte string per slice state: loading rejects a default
// line in the long form and a run that continues the record before it.
const (
	lineDefault = 0
	lineFull    = 1
)

// defaultLine returns the default-state line with the given address and
// LRU stamp: the only two fields lineDefault carries.
func defaultLine(addr, lru uint64) dirLine {
	return dirLine{addr: addr, lru: lru, owner: -1}
}

// isDefault reports whether the valid line equals defaultLine(addr, lru),
// field by field: saving asks it of every stored line it walks, and the
// compiler's struct comparison is a call that costs as much as encoding the
// line. TestIsDefaultCoversEveryField holds the two to each other.
func (ln *dirLine) isDefault() bool {
	diff := ln.sharers | ln.prevSharers | uint32(ln.pendAcks) | uint32(ln.busy^busyNone) |
		uint32(ln.busyReq) | uint32(ln.fetchKind^kindNone)
	return diff == 0 && ln.owner == -1 && !ln.busyStar && !ln.deferred && !ln.specBorn
}

// walk carries a line in the long form. pendAcks goes as an I32 through a
// local, as it did when the field was one. Loading rejects an owner or
// requestor that is neither a core of the system nor -1, a recall awaiting
// more acks than there are cores or fewer than none, and an out-of-range busy
// state or fetch kind.
func (ln *dirLine) walk(s ckptio.State, cores int) {
	s.U64(&ln.addr)
	s.U64(&ln.lru)
	s.U32(&ln.sharers)
	s.I8(&ln.owner)
	ckptio.Enum(s, &ln.busy, busyRecall, "directory busy state")
	s.I8(&ln.busyReq)
	s.Bool(&ln.busyStar)
	s.U32(&ln.prevSharers)
	acks := int32(ln.pendAcks)
	s.I32(&acks)
	s.Bool(&ln.deferred)
	ckptio.Enum(s, &ln.fetchKind, numKinds-1, "fetch kind")
	s.Bool(&ln.specBorn)
	if !s.Loading() || s.Err() != nil {
		return
	}
	switch {
	case ln.owner < -1 || int(ln.owner) >= cores || ln.busyReq < -1 || int(ln.busyReq) >= cores:
		s.Failf("directory owner %d or requestor %d is not a core", ln.owner, ln.busyReq)
	case acks < 0 || int(acks) > cores:
		s.Failf("directory line awaits %d recall acks from %d cores", acks, cores)
	default:
		ln.pendAcks = int8(acks)
	}
}

// dirRec is one record of a slice's section, and the form a slice keeps its
// runs in: the n default-state ways from plane-major index at on, the first
// holding addr and lru, or with n == 0 the way at in the long form.
type dirRec struct {
	at, n     int32
	addr, lru uint64
}

// last returns the index of the record's last way.
func (r dirRec) last() int { return int(r.at) + max(int(r.n), 1) - 1 }

// line returns the line the run holds at index at, in a directory of the
// given slice count.
func (r dirRec) line(at int, slices uint64) dirLine {
	k := uint64(at - int(r.at))
	return defaultLine(r.addr+k*slices, r.lru+k)
}

// goesOn reports whether a default-state way at index at, holding addr and
// lru, continues the run in a directory of the given slice count: it has the
// next index, address and stamp, and neither wraps. Saving and loading both
// ask it, so they agree on what a maximal run is.
func (r dirRec) goesOn(at int, addr, lru, slices uint64) bool {
	k := uint64(r.n)
	return r.n > 0 && at == r.last()+1 && addr == r.addr+k*slices && addr > r.addr+(k-1)*slices &&
		lru == r.lru+k && lru != 0
}

// atHome reports whether a way of the set is one the line can live in: the
// slice is the line's home slice and the set its home set. find looks nowhere
// else, so a line anywhere else is one the protocol can never hit.
func (d *Dir) atHome(set int, line uint64) bool {
	home, _ := d.home(line)
	return d.cfg.LLCSlice(line) == d.idx && home == set
}

// merge walks the slice in index order, one plane at a time, over the runs
// and the stored sets: it hands run each stretch of a run's ways that lies in
// lazy sets, n ways from index at on, and way the stored sets' way w, with
// the run whose stale way it stands in for, if any. It costs the runs, plus
// the planes times the stored sets — not the ways of the slice.
func (d *Dir) merge(run func(r dirRec, at, n int), way func(set, w int, r *dirRec)) {
	slices.Sort(d.held)
	planes := 0 // the planes with a stored way
	for _, s := range d.held {
		planes = max(planes, int(d.sets[s].cap))
	}
	sets, ri := d.cfg.LLCSets, 0
	for w := 0; w < planes || ri < len(d.runs); w++ {
		base, k := w<<d.setBits, 0
		for ; ri < len(d.runs) && int(d.runs[ri].at) < base+sets; ri++ {
			r := &d.runs[ri]
			lo, hi := max(int(r.at)-base, 0), min(r.last()+1-base, sets)
			for ; k < len(d.held) && int(d.held[k]) < hi; k++ {
				s := int(d.held[k])
				if s < lo {
					way(s, w, nil)
					continue
				}
				run(*r, base+lo, s-lo)
				way(s, w, r)
				lo = s + 1
			}
			run(*r, base+lo, hi-lo)
			if r.last() >= base+sets {
				break // the run goes on in the next plane
			}
		}
		for ; k < len(d.held); k++ {
			way(int(d.held[k]), w, nil)
		}
	}
}

// recorder walks a slice's records in order. Saving, merge feeds it the valid
// ways in index order, and it turns them into records — maximal runs of the
// default-state ones, a long-form record for each of the others — holding the
// one it is building until the next one starts, so a run is written whole.
type recorder struct {
	d     *Dir
	s     ckptio.State
	count int    // the records walked
	last  dirRec // the record walked last
	cur   dirRec // saving: the record being built, if its at is not -1
}

// record walks one record: its step from the last one, its form, then a run's
// length, first address and first stamp, or a line in full. Loading checks
// the record whole before it takes any of it — its ways lie inside the slice,
// its first line is at home in its first way (the later lines of a run follow:
// the address steps by the slice count, so the slice stays and the set steps
// with the index, across a plane boundary too), a run is maximal, a long-form
// line is not a default one — and then records the run or stores the line.
func (b *recorder) record(r dirRec) {
	d, s := b.d, b.s
	total, stride, prev := len(d.sets)*d.cfg.LLCWays, uint64(d.cfg.LLCSlices), b.last.last()
	step, form, n := uint64(int(r.at)-prev), uint8(lineFull), uint64(r.n)
	if n > 0 {
		form = lineDefault
	}
	s.U64(&step)
	s.U8(&form)
	if s.Loading() && s.Err() == nil && (step == 0 || step > uint64(total-1-prev)) {
		s.Failf("directory way step %d from way %d leaves %d ways", step, prev, total)
	}
	if s.Err() != nil {
		return
	}
	r.at = int32(prev + int(step))
	at, set, w := int(r.at), int(r.at)&(d.cfg.LLCSets-1), int(r.at)>>d.setBits
	switch form {
	case lineDefault:
		s.U64(&n)
		s.U64(&r.addr)
		s.U64(&r.lru)
		if s.Loading() {
			switch {
			case s.Err() != nil:
			case n == 0 || n > uint64(total-at):
				s.Failf("directory run of %d ways from way %d leaves %d ways", n, at, total)
			case !d.atHome(set, r.addr):
				s.Failf("directory way %d: line %#x is not at home", at, r.addr)
			case r.addr+(n-1)*stride < r.addr || r.lru+n-1 < r.lru:
				s.Failf("directory run of %d ways from line %#x, stamp %d wraps", n, r.addr, r.lru)
			case b.last.goesOn(at, r.addr, r.lru, stride):
				s.Failf("directory way %d: run continues the one before it", at)
			default:
				r.n = int32(n)
				d.addRun(r)
			}
		}
	case lineFull:
		ln := &dirLine{}
		if !s.Loading() {
			ln = d.way(set, w)
		}
		ln.walk(s, d.cfg.Cores)
		if s.Loading() {
			switch {
			case s.Err() != nil:
			case !d.atHome(set, ln.addr):
				s.Failf("directory way %d: line %#x is not at home", at, ln.addr)
			case *ln == defaultLine(ln.addr, ln.lru):
				s.Failf("directory way %d: default-state line in the long form", at)
			default:
				d.install(set, w, *ln)
			}
		}
	default:
		s.Failf("unknown directory line form %d", form)
	}
	b.last = r
	b.count++
}

// start walks the record being built out, if any, and begins r.
func (b *recorder) start(r dirRec) {
	if b.cur.at >= 0 {
		b.record(b.cur)
	}
	b.cur = r
}

// run takes the n default-state ways of run r from index at on.
func (b *recorder) run(r dirRec, at, n int) {
	if n == 0 {
		return
	}
	stride := uint64(b.d.cfg.LLCSlices)
	if ln := r.line(at, stride); b.cur.goesOn(at, ln.addr, ln.lru, stride) {
		b.cur.n += int32(n)
	} else {
		b.start(dirRec{at: int32(at), n: int32(n), addr: ln.addr, lru: ln.lru})
	}
}

// way takes stored way w of the set, if it is valid.
func (b *recorder) way(set, w int, _ *dirRec) {
	lines, tags := b.d.stored(set)
	if w >= len(tags) || tags[w] == 0 {
		return
	}
	at, ln := w<<b.d.setBits|set, &lines[w]
	if ln.isDefault() {
		b.run(dirRec{at: int32(at), n: 1, addr: ln.addr, lru: ln.lru}, at, 1)
	} else {
		b.start(dirRec{at: int32(at)})
	}
}

// State walks a directory/LLC slice of the same geometry: the LRU stamp
// clock, the records of its valid ways and the demand backlog; the demand
// requests accepted this cycle are not walked, as the next Tick resets the
// count before anything reads it. Saving feeds the records out of one merge
// and patches their count in front, installing nothing. Loading clears the
// target (keeping its slabs, emptying its free lists), records runs, stores
// long-form lines, then fills every set it stored with its run ways in one
// more merge. A rejected record takes nothing, so the slice stays consistent.
func (d *Dir) State(s ckptio.State) {
	s.U64(&d.stamp)
	total := len(d.sets) * d.cfg.LLCWays
	if !s.GeometryInt(total, "directory ways") {
		return
	}
	n, mark := s.Counted(total)
	b := recorder{d: d, s: s, last: dirRec{at: -1}, cur: dirRec{at: -1}}
	if s.Loading() {
		if d.resident > 0 || d.next > 0 {
			clear(d.sets)
			for _, sl := range d.slabs {
				clear(sl.lines)
				clear(sl.tags)
			}
		}
		d.runs, d.held, d.next, d.resident, d.demandUsed = d.runs[:0], d.held[:0], 0, 0, 0
		for k := range d.free {
			d.free[k] = d.free[k][:0]
		}
		for ; n > 0 && s.Err() == nil; n-- {
			b.record(dirRec{})
		}
		d.merge(func(dirRec, int, int) {}, func(set, w int, r *dirRec) {
			if r != nil {
				d.fill(set, w, r.line(w<<d.setBits|set, uint64(d.cfg.LLCSlices)))
			}
		})
	} else {
		d.merge(b.run, b.way)
		b.start(dirRec{at: -1}) // walks the last record out
		s.CountAt(mark, b.count)
	}
	ckptio.Queue(s, &d.backlog, maxBacklog, func(s ckptio.State, m *Msg) { m.walk(s, d.cfg) })
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
