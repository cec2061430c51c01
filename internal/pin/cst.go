// Package pin implements the hardware structures added by Pinned Loads
// (paper Sections 5-6): the Cache Shadow Table (CST) that Early Pinning
// uses to guarantee cache and directory/LLC space before pinning a load,
// the Cannot-Pin Table (CPT) that prevents store starvation, and the
// extended LQ ID tags that detect stale CST records. The pinning *policy*
// (in-order pinning, write-buffer checks, VP conditions) lives in the
// pipeline; this package provides the structures and their size/behaviour
// semantics, including false-positive accounting for the paper's Section
// 9.2.1 sensitivity study.
package pin

// recordBits is the size of one CST record: a 12-bit line-address hash, a
// 24-bit extended LQ ID, and a valid bit. With the paper's default
// geometries this yields exactly the paper's 444-byte L1 CST and 370-byte
// directory/LLC CST (Section 9.2.4).
const recordBits = 12 + 24 + 1

// PinOutcome is the result of a CST pin attempt.
type PinOutcome uint8

const (
	// PinOK means the CST found (or made) room and recorded the load.
	PinOK PinOutcome = iota
	// PinNoSpace means the indexed entry has no free record: with the
	// addition of this load, the set/slice could exceed its guaranteed
	// capacity. Pinning must wait.
	PinNoSpace
	// PinCollision means two different line addresses hashed to the same
	// record; the paper treats this like insufficient space.
	PinCollision
)

// cstRecord is one CST record. The simulator keeps the full line address
// alongside the hashed fields so it can emulate the paper's collision
// check (which consults the LQ entry named by the LQ ID) exactly.
type cstRecord struct {
	valid    bool
	addrHash uint16 // 12-bit line-address hash, as in hardware
	lqID     uint32 // extended LQ ID of the youngest pinned load
	line     uint64 // ground truth used to emulate the LQ-based check
}

// CST is a Cache Shadow Table: a hash table of nEntries entries, each with
// nRecords records (paper Figure 6). One CST instance shadows the L1 and
// another shadows the directory/LLC. A nil *CST behaves as an infinite
// (perfectly precise) table; callers handle that case via TryPin's
// documentation below.
type CST struct {
	entries  []cstRecord
	nEntries int
	nRecords int

	// Statistics for Section 9.2.1.
	attempts       uint64
	denies         uint64
	falsePositives uint64
}

// NewCST returns a CST with the given geometry.
func NewCST(entries, records int) *CST {
	if entries <= 0 || records <= 0 {
		panic("pin: non-positive CST geometry")
	}
	return &CST{
		entries:  make([]cstRecord, entries*records),
		nEntries: entries,
		nRecords: records,
	}
}

// hashKey folds a set/slice key onto a CST entry index. It reduces in
// uint32, so a host whose int has 32 bits picks the same entry.
func (c *CST) hashKey(key uint32) int {
	h := key
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	return int(h % uint32(c.nEntries))
}

// addrHash is the 12-bit line-address hash stored in a record.
func addrHash(line uint64) uint16 {
	h := line * 0x9e3779b97f4a7c15
	return uint16(h>>52) & 0xfff
}

// TryPin attempts to record a pin of line (which maps to the cache/
// directory location identified by key) on behalf of the load with the
// given extended LQ ID. live reports whether an LQ ID currently names an
// in-use LQ entry; records whose LQ ID is dead are expunged lazily, as in
// the paper. preciseHasRoom reports whether an infinitely precise table
// would have allowed the pin; it is used only to classify denials as false
// positives for the Section 9.2.1 statistics.
func (c *CST) TryPin(line uint64, key uint32, lqID uint32, live func(uint32) bool, preciseHasRoom bool) PinOutcome {
	c.attempts++
	e := c.hashKey(key)
	recs := c.entries[e*c.nRecords : (e+1)*c.nRecords]
	ah := addrHash(line)

	// CAM search for an existing record of this line.
	for i := range recs {
		if recs[i].valid && recs[i].addrHash == ah {
			// The hardware follows the LQ ID to the LQ entry and
			// compares the full line address (Section 6.2).
			if recs[i].line == line && live(recs[i].lqID) {
				recs[i].lqID = lqID
				return PinOK
			}
			if recs[i].line != line && live(recs[i].lqID) {
				// A live record for a different line hashed the same:
				// handled as if there were not enough space.
				c.denies++
				if preciseHasRoom {
					c.falsePositives++
				}
				return PinCollision
			}
			// Stale record: expunge and reuse below.
			recs[i].valid = false
		}
	}

	// Look for a free record, expunging stale ones.
	for i := range recs {
		if recs[i].valid && !live(recs[i].lqID) {
			recs[i].valid = false
		}
		if !recs[i].valid {
			recs[i] = cstRecord{valid: true, addrHash: ah, lqID: lqID, line: line}
			return PinOK
		}
	}
	c.denies++
	if preciseHasRoom {
		c.falsePositives++
	}
	return PinNoSpace
}

// Clear empties the table (used on LQ ID wraparound, Section 6.2).
func (c *CST) Clear() {
	for i := range c.entries {
		c.entries[i].valid = false
	}
}

// Denies returns the number of denied pin attempts.
func (c *CST) Denies() uint64 { return c.denies }

// FalsePositives returns denials that a precise table would have allowed.
func (c *CST) FalsePositives() uint64 { return c.falsePositives }

// FalsePositiveRate returns false positives per attempt (0 if no attempts).
func (c *CST) FalsePositiveRate() float64 {
	if c.attempts == 0 {
		return 0
	}
	return float64(c.falsePositives) / float64(c.attempts)
}

// SizeBytes returns the storage the table requires, matching the paper's
// accounting (37 bits per record including tags).
func (c *CST) SizeBytes() int {
	return c.nEntries * c.nRecords * recordBits / 8
}
