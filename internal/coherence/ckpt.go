package coherence

import (
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
// carry their own geometry checks; maps go in sorted key order for
// deterministic bytes.
func (l *L1) State(s ckptio.State) {
	if s.Loading() {
		l.touched = true
		l.txnFree = l.txnFree[:0]
	}
	s.I64(&l.now)
	l.tags.State(s)
	l.mshr.State(s)

	acq := ckptio.WalkMap(s, l.acq, maxTxns)
	for acq.Next() {
		if s.Loading() {
			acq.Val = &storeTxn{}
		}
		acq.Val.walk(s)
		acq.Key = acq.Val.line
	}
	evict := ckptio.WalkMap(s, l.evictBuf, maxTxns)
	for evict.Next() {
		s.U64(&evict.Key)
		evict.Val = true
	}

	ckptio.Slice(s, &l.pending, maxTxns)
	for i := range l.pending {
		l.pending[i].walk(s)
	}
	s.Int(&l.portsUsed)
	s.U64(&l.lastFill)

	spec := ckptio.WalkMap(s, l.spec, maxTxns)
	for spec.Next() {
		s.I64(&spec.Key)
		spec.Val.walk(s)
	}
	aband := ckptio.WalkMap(s, l.specAband, maxTxns)
	for aband.Next() {
		s.I64(&aband.Key)
		aband.Val = true
	}
}

// Line forms of the directory section. A valid way is written as its index
// step, one form byte, then addr and lru; lineFull adds every other field.
// The encoding is canonical — one byte string per slice state — so a line
// in the default state (no sharers, no owner, no transient or residual
// field set: what Prewarm installs and most of a warmed LLC still is) must
// use lineDefault, and LoadState rejects it in the long form.
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
// field by field: SaveState asks it of every line it writes, and the
// compiler's struct comparison is a call that costs as much as encoding the
// line. TestIsDefaultCoversEveryField holds the two to each other.
func (ln *dirLine) isDefault() bool {
	return ln.sharers == 0 && ln.prevSharers == 0 && ln.pendAcks == 0 && ln.owner == -1 &&
		ln.busy == busyNone && ln.busyReq == 0 && !ln.busyStar && !ln.deferred &&
		ln.fetchKind == kindNone && !ln.specBorn
}

// SaveState serializes a directory/LLC slice: the LRU stamp clock, the
// valid ways in ascending way index (each as its distance from the previous
// one; invalid ways hold no state and are not written), and the demand
// backlog. A way's index is set*ways+way, whatever planes hold the ways.
func (d *Dir) SaveState(e *ckptio.Encoder) {
	e.U64(d.stamp)
	e.Int(len(d.ptag))
	e.U64(uint64(d.resident))
	ways, prev := d.cfg.LLCWays, -1
	for s, n := range d.occ {
		if n == 0 {
			continue
		}
		for w, t := range d.row(s) {
			if t == 0 {
				continue
			}
			ln, i := &d.planes[w][s], s*ways+w
			e.U64(uint64(i - prev))
			prev = i
			form := uint8(lineFull)
			if ln.isDefault() {
				form = lineDefault
			}
			e.U8(form)
			e.U64(ln.addr)
			e.U64(ln.lru)
			if form == lineDefault {
				continue
			}
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
	}
	e.Int(d.demandUsed)
	e.U64(uint64(d.backlog.Len()))
	for i := 0; i < d.backlog.Len(); i++ {
		m := d.backlog.At(i)
		m.walk(ckptio.SaveTo(e), d.cfg)
	}
}

// stateSizeHint estimates SaveState's output from above for a slice whose
// lines are mostly in the default state: a one-byte step and form, an
// address below 2^35 and an LRU stamp no larger than the clock per line.
func (d *Dir) stateSizeHint() int {
	return 64 + d.resident*(2+5+ckptio.UvarintLen(d.stamp)) + 24*d.backlog.Len()
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

// LoadState restores a directory slice of the same geometry. Ways the
// checkpoint does not name end up invalid and zero, at the cost of the lines
// the target holds: none for a blank machine. The target keeps its planes and
// gains the ones the checkpoint's lines need.
func (d *Dir) LoadState(dec *ckptio.Decoder) {
	d.stamp = dec.U64()
	n := dec.Int()
	if dec.Err() != nil {
		return
	}
	total := len(d.ptag)
	if n != total {
		dec.Failf("directory has %d ways, checkpoint has %d", total, n)
		return
	}
	// Invalid ways are zero already, so only the target's valid ones need
	// clearing.
	for i, ln := range d.valid() {
		*ln = dirLine{}
		d.ptag[i] = 0
	}
	clear(d.occ)
	d.resident = 0
	d.warmOnly = false
	ways := d.cfg.LLCWays
	count := dec.Count(total)
	idx, set := -1, 0
	for ; count > 0; count-- {
		step := dec.U64()
		if dec.Err() != nil {
			return
		}
		if step == 0 || step > uint64(total-1-idx) {
			dec.Failf("directory way step %d from way %d leaves %d ways", step, idx, total)
			return
		}
		idx += int(step)
		form := dec.U8()
		addr := dec.U64()
		ln := defaultLine(addr, dec.U64())
		switch form {
		case lineDefault:
		case lineFull:
			ln.sharers = dec.U32()
			ln.owner = d.coreField(dec, "owner")
			b := dec.U8()
			if busyKind(b) > busyRecall {
				dec.Failf("invalid directory busy state %d", b)
				return
			}
			ln.busy = busyKind(b)
			ln.busyReq = d.coreField(dec, "requestor")
			ln.busyStar = dec.Bool()
			ln.prevSharers = dec.U32()
			ln.pendAcks = dec.I32()
			ln.deferred = dec.Bool()
			fk := dec.U8()
			if Kind(fk) >= numKinds {
				dec.Failf("invalid fetch kind %d", fk)
				return
			}
			ln.fetchKind = Kind(fk)
			ln.specBorn = dec.Bool()
			if ln == defaultLine(ln.addr, ln.lru) {
				dec.Failf("directory way %d: default-state line in the long form", idx)
				return
			}
		default:
			dec.Failf("unknown directory line form %d", form)
			return
		}
		if dec.Err() != nil {
			return
		}
		for idx >= (set+1)*ways {
			set++
		}
		d.install(set, idx-set*ways, ln)
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

// State joins the slice to a walk. The sparse section is the one place the
// two directions share a format and no logic (an occupancy walk out,
// way-stepping in), so they stay a pair.
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

// StateSizeHint estimates the size of what State saves for the directory
// slices, which hold nearly all of it.
func (s *System) StateSizeHint() int {
	n := 0
	for _, d := range s.dirs {
		n += d.stateSizeHint()
	}
	return n
}
