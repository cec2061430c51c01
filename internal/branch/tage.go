package branch

// TAGE is a TAGE-lite direction predictor: a bimodal base table plus a
// small number of partially tagged tables indexed with geometrically
// increasing global-history lengths, with the standard
// provider/alternate-prediction and useful-counter allocation policy.
// It is a compact member of the (L)TAGE family the paper's machine uses.
type TAGE struct {
	base    []counter
	tables  []tageTable
	history uint64
}

type tageTable struct {
	entries []tageEntry
	histLen uint
	tagBits uint
}

type tageEntry struct {
	tag    uint16
	ctr    int8 // signed 3-bit prediction counter, >= 0 predicts taken
	useful uint8
	valid  bool
}

// tageConfig holds per-table history lengths for the default predictor.
var tageHistLens = []uint{4, 8, 16, 32}

// NewTAGE returns a TAGE-lite predictor with a 2^baseBits bimodal table and
// four tagged tables of 2^tableBits entries each.
func NewTAGE(baseBits, tableBits uint) *TAGE {
	if baseBits == 0 || baseBits > 20 || tableBits == 0 || tableBits > 20 {
		panic("branch: TAGE geometry out of range")
	}
	t := &TAGE{base: make([]counter, 1<<baseBits)}
	for i := range t.base {
		t.base[i] = 1
	}
	for _, hl := range tageHistLens {
		t.tables = append(t.tables, tageTable{
			entries: make([]tageEntry, 1<<tableBits),
			histLen: hl,
			tagBits: 9,
		})
	}
	return t
}

// foldHistory compresses the low histLen bits of history into bits bits.
func foldHistory(history uint64, histLen, bits uint) uint64 {
	h := history & ((1 << histLen) - 1)
	var folded uint64
	for h != 0 {
		folded ^= h & ((1 << bits) - 1)
		h >>= bits
	}
	return folded
}

func (tt *tageTable) index(pc, history uint64) uint64 {
	f := foldHistory(history, tt.histLen, 12)
	return (pc ^ (pc >> 7) ^ f) & uint64(len(tt.entries)-1)
}

func (tt *tageTable) tag(pc, history uint64) uint16 {
	f := foldHistory(history, tt.histLen, tt.tagBits)
	return uint16((pc ^ (pc >> 11) ^ (f << 1)) & ((1 << tt.tagBits) - 1))
}

// lookup finds the longest-history matching table, returning its index or
// -1 when only the base table applies.
func (t *TAGE) lookup(pc uint64) int {
	for i := len(t.tables) - 1; i >= 0; i-- {
		tt := &t.tables[i]
		e := &tt.entries[tt.index(pc, t.history)]
		if e.valid && e.tag == tt.tag(pc, t.history) {
			return i
		}
	}
	return -1
}

// Predict returns the predicted direction of the branch at pc.
func (t *TAGE) Predict(pc uint64) bool {
	if i := t.lookup(pc); i >= 0 {
		tt := &t.tables[i]
		return tt.entries[tt.index(pc, t.history)].ctr >= 0
	}
	return t.base[pc&uint64(len(t.base)-1)].taken()
}

// Update trains the predictor with the branch's resolved direction.
func (t *TAGE) Update(pc uint64, taken bool) {
	provider := t.lookup(pc)
	correct := t.Predict(pc) == taken

	if provider >= 0 {
		tt := &t.tables[provider]
		e := &tt.entries[tt.index(pc, t.history)]
		e.ctr = trainSigned(e.ctr, taken)
		if correct {
			if e.useful < 3 {
				e.useful++
			}
		} else if e.useful > 0 {
			e.useful--
		}
	} else {
		i := pc & uint64(len(t.base)-1)
		t.base[i] = t.base[i].train(taken)
	}

	// On a misprediction, allocate an entry in a longer-history table.
	if !correct {
		for i := provider + 1; i < len(t.tables); i++ {
			tt := &t.tables[i]
			e := &tt.entries[tt.index(pc, t.history)]
			if !e.valid || e.useful == 0 {
				*e = tageEntry{
					tag:   tt.tag(pc, t.history),
					ctr:   ctrInit(taken),
					valid: true,
				}
				break
			}
			e.useful--
		}
	}

	t.history = (t.history << 1) | boolBit(taken)
}

func ctrInit(taken bool) int8 {
	if taken {
		return 0
	}
	return -1
}

func trainSigned(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}
