package branch

import "pinnedloads/internal/ckptio"

// walkCounters carries a table of 2-bit counters of a fixed size.
func walkCounters(s ckptio.State, table []counter, what string) {
	if !s.Geometry(len(table), what) {
		return
	}
	for i := range table {
		s.U8((*uint8)(&table[i]))
	}
}

func (en *tageEntry) walk(s ckptio.State) {
	s.U16(&en.tag)
	s.I8(&en.ctr)
	s.U8(&en.useful)
	s.Bool(&en.valid)
}

// State walks the TAGE base table, tagged tables and history.
func (t *TAGE) State(s ckptio.State) {
	walkCounters(s, t.base, "TAGE base counters")
	if !s.Geometry(len(t.tables), "TAGE tables") {
		return
	}
	for i := range t.tables {
		entries := t.tables[i].entries
		if !s.Geometry(len(entries), "TAGE table entries") {
			return
		}
		for j := range entries {
			entries[j].walk(s)
		}
	}
	s.U64(&t.history)
}
