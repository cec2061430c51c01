package coherence

import (
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

// saveMsg / loadMsg serialize one coherence message.
func saveMsg(e *ckptio.Encoder, m *Msg) {
	e.U8(uint8(m.Kind))
	e.U64(m.Line)
	e.Bool(m.Src.Dir)
	e.Int(m.Src.Idx)
	e.Bool(m.Dst.Dir)
	e.Int(m.Dst.Idx)
	e.Int(m.Acks)
	e.Int(m.Requestor)
	e.Bool(m.Star)
	e.I64(m.Token)
}

func loadMsg(d *ckptio.Decoder) Msg {
	var m Msg
	k := d.U8()
	if Kind(k) >= numKinds {
		d.Failf("invalid message kind %d", k)
		return m
	}
	m.Kind = Kind(k)
	m.Line = d.U64()
	m.Src.Dir = d.Bool()
	m.Src.Idx = d.Int()
	m.Dst.Dir = d.Bool()
	m.Dst.Idx = d.Int()
	m.Acks = d.Int()
	m.Requestor = d.Int()
	m.Star = d.Bool()
	m.Token = d.I64()
	return m
}

// SaveState serializes the fabric: the current cycle and every non-empty
// calendar slot with its in-flight messages, in slot order (deterministic).
func (f *fabric) SaveState(e *ckptio.Encoder) {
	e.I64(f.cycle)
	occupied := 0
	for i := range f.ring {
		if len(f.ring[i]) > 0 {
			occupied++
		}
	}
	e.U64(uint64(occupied))
	for i := range f.ring {
		if len(f.ring[i]) == 0 {
			continue
		}
		e.Int(i)
		e.U64(uint64(len(f.ring[i])))
		for j := range f.ring[i] {
			saveMsg(e, &f.ring[i][j])
		}
	}
}

// LoadState restores the fabric calendar; slots not named in the checkpoint
// are emptied.
func (f *fabric) LoadState(d *ckptio.Decoder) {
	f.cycle = d.I64()
	for i := range f.ring {
		f.ring[i] = f.ring[i][:0]
	}
	f.occupied = [len(f.occupied)]uint64{}
	occupied := d.Count(maxDelay)
	for s := 0; s < occupied; s++ {
		slot := d.Int()
		if d.Err() != nil {
			return
		}
		if slot < 0 || slot >= maxDelay {
			d.Failf("fabric slot %d out of range", slot)
			return
		}
		n := d.Count(maxSlotMsgs)
		for j := 0; j < n; j++ {
			f.ring[slot] = append(f.ring[slot], loadMsg(d))
			if d.Err() != nil {
				return
			}
		}
		if n > 0 {
			f.occupied[slot/64] |= 1 << uint(slot%64)
		}
	}
}

// SaveState serializes an L1 controller's mutable state. The tag array and
// MSHR file carry their own geometry checks; maps are written in sorted line
// order for deterministic bytes.
func (l *L1) SaveState(e *ckptio.Encoder) {
	e.I64(l.now)
	l.tags.SaveState(e)
	l.mshr.SaveState(e)

	var lineBuf [ckptio.KeyRoom]uint64
	lines := ckptio.AppendSortedKeys(lineBuf[:0], l.acq)
	e.U64(uint64(len(lines)))
	for _, line := range lines {
		st := l.acq[line]
		e.U64(st.line)
		e.Bool(st.star)
		e.Int(st.need)
		e.Int(st.got)
		e.Bool(st.deferred)
		e.Bool(st.inFlight)
	}

	lines = ckptio.AppendSortedKeys(lines[:0], l.evictBuf)
	e.U64(uint64(len(lines)))
	for _, line := range lines {
		e.U64(line)
	}

	e.U64(uint64(len(l.pending)))
	for i := range l.pending {
		e.U64(l.pending[i].line)
		e.U8(uint8(l.pending[i].state))
		e.Int(l.pending[i].mshr)
	}
	e.Int(l.portsUsed)
	e.U64(l.lastFill)

	var tokBuf [ckptio.KeyRoom]int64
	toks := ckptio.AppendSortedKeys(tokBuf[:0], l.spec)
	e.U64(uint64(len(toks)))
	for _, t := range toks {
		txn := l.spec[t]
		e.I64(t)
		e.U64(txn.line)
		e.Bool(txn.hit)
		e.Bool(txn.installed)
		e.Bool(txn.undoDir)
	}
	toks = ckptio.AppendSortedKeys(toks[:0], l.specAband)
	e.U64(uint64(len(toks)))
	for _, t := range toks {
		e.I64(t)
	}
}

// LoadState restores an L1 controller built from the same configuration.
// The storeTxn free list starts empty (it is a recycling pool, not state).
func (l *L1) LoadState(d *ckptio.Decoder) {
	l.touched = true
	l.now = d.I64()
	l.tags.LoadState(d)
	l.mshr.LoadState(d)

	clear(l.acq)
	l.txnFree = l.txnFree[:0]
	n := d.Count(maxTxns)
	for i := 0; i < n; i++ {
		st := &storeTxn{}
		st.line = d.U64()
		st.star = d.Bool()
		st.need = d.Int()
		st.got = d.Int()
		st.deferred = d.Bool()
		st.inFlight = d.Bool()
		if d.Err() != nil {
			return
		}
		l.acq[st.line] = st
	}

	clear(l.evictBuf)
	n = d.Count(maxTxns)
	for i := 0; i < n; i++ {
		line := d.U64()
		if d.Err() != nil {
			return
		}
		l.evictBuf[line] = true
	}

	n = d.Count(maxTxns)
	l.pending = l.pending[:0]
	for i := 0; i < n; i++ {
		var p pendingFill
		p.line = d.U64()
		st := cache.State(d.U8())
		if st > cache.Modified {
			d.Failf("invalid pending-fill state %d", st)
			return
		}
		p.state = st
		p.mshr = d.Int()
		l.pending = append(l.pending, p)
	}
	l.portsUsed = d.Int()
	l.lastFill = d.U64()

	clear(l.spec)
	n = d.Count(maxTxns)
	for i := 0; i < n; i++ {
		t := d.I64()
		var txn specTxn
		txn.line = d.U64()
		txn.hit = d.Bool()
		txn.installed = d.Bool()
		txn.undoDir = d.Bool()
		if d.Err() != nil {
			return
		}
		l.spec[t] = txn
	}
	clear(l.specAband)
	n = d.Count(maxTxns)
	for i := 0; i < n; i++ {
		t := d.I64()
		if d.Err() != nil {
			return
		}
		l.specAband[t] = true
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
// backlog.
func (d *Dir) SaveState(e *ckptio.Encoder) {
	e.U64(d.stamp)
	e.Int(len(d.lines))
	e.U64(uint64(d.resident))
	ways, prev := d.cfg.LLCWays, -1
	for s, n := range d.occ {
		for i := s * ways; n > 0; i++ {
			ln := &d.lines[i]
			if !ln.valid {
				continue
			}
			n--
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
		saveMsg(e, &m)
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
// the target holds: none for a blank machine.
func (d *Dir) LoadState(dec *ckptio.Decoder) {
	d.stamp = dec.U64()
	n := dec.Int()
	if dec.Err() != nil {
		return
	}
	if n != len(d.lines) {
		dec.Failf("directory has %d ways, checkpoint has %d", len(d.lines), n)
		return
	}
	// Invalid ways are zero already, so only the target's valid ones need
	// clearing, and the occupancy counts say where those are.
	ways := d.cfg.LLCWays
	for s, n := range d.occ {
		for i := s * ways; n > 0; i++ {
			if d.lines[i].valid {
				d.lines[i] = dirLine{}
				n--
			}
		}
		d.occ[s] = 0
	}
	d.resident = 0
	count := dec.Count(len(d.lines))
	idx, set, setEnd := -1, 0, ways
	for ; count > 0; count-- {
		step := dec.U64()
		if dec.Err() != nil {
			return
		}
		if step == 0 || step > uint64(len(d.lines)-1-idx) {
			dec.Failf("directory way step %d from way %d leaves %d ways", step, idx, len(d.lines))
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
		for idx >= setEnd {
			set++
			setEnd += ways
		}
		d.lines[idx] = ln
		d.occ[set]++
		d.resident++
	}
	d.demandUsed = dec.Int()
	for d.backlog.Len() > 0 {
		d.backlog.Pop()
	}
	nb := dec.Count(maxBacklog)
	for i := 0; i < nb; i++ {
		m := loadMsg(dec)
		if dec.Err() != nil {
			return
		}
		d.backlog.Push(m)
	}
}

// SaveState serializes the whole memory hierarchy: mesh traffic counters,
// the fabric calendar, then every L1 and directory slice.
func (s *System) SaveState(e *ckptio.Encoder) {
	e.U64(s.mesh.Messages())
	e.U64(s.mesh.Flits())
	s.fab.SaveState(e)
	e.Int(len(s.l1s))
	for _, l := range s.l1s {
		l.SaveState(e)
	}
	e.Int(len(s.dirs))
	for _, d := range s.dirs {
		d.SaveState(e)
	}
}

// StateSizeHint estimates the size of SaveState's output for the directory
// slices, which hold nearly all of it.
func (s *System) StateSizeHint() int {
	n := 0
	for _, d := range s.dirs {
		n += d.stateSizeHint()
	}
	return n
}

// LoadState restores a memory hierarchy built from the same configuration.
func (s *System) LoadState(d *ckptio.Decoder) {
	msgs := d.U64()
	flits := d.U64()
	s.mesh.SetTraffic(msgs, flits)
	s.fab.LoadState(d)
	n := d.Int()
	if d.Err() != nil {
		return
	}
	if n != len(s.l1s) {
		d.Failf("system has %d L1s, checkpoint has %d", len(s.l1s), n)
		return
	}
	for _, l := range s.l1s {
		l.LoadState(d)
		if d.Err() != nil {
			return
		}
	}
	n = d.Int()
	if d.Err() != nil {
		return
	}
	if n != len(s.dirs) {
		d.Failf("system has %d directory slices, checkpoint has %d", len(s.dirs), n)
		return
	}
	for _, dir := range s.dirs {
		dir.LoadState(d)
		if d.Err() != nil {
			return
		}
	}
}
