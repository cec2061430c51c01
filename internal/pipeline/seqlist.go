package pipeline

// seqList is an ascending list of in-flight ROB seqs — program order — for
// the core's bookkeeping sets (unretired loads, stores and fences, and the
// load-queue candidate lists). The live elements are a window of a fixed
// backing array: retirement pops the front by moving the window's start,
// a squash cuts the back, and the window slides back to the array's start
// when it reaches the end, so a list whose occupancy is bounded by the
// size it was built with never allocates.
type seqList struct {
	buf    []int64
	lo, hi int // live window is buf[lo:hi]
}

// newSeqList returns an empty list that holds up to n seqs without growing.
func newSeqList(n int) seqList { return seqList{buf: make([]int64, 2*n)} }

// seqs returns the live elements, oldest first. The slice aliases the
// list's storage: it is valid until the next mutation, and a caller that
// filters it in place finishes with compact.
func (l *seqList) seqs() []int64 { return l.buf[l.lo:l.hi] }

// room makes space for one more element at the back.
func (l *seqList) room() {
	if l.hi < len(l.buf) {
		return
	}
	if l.lo == 0 {
		l.buf = append(l.buf, make([]int64, len(l.buf)+1)...)
		return
	}
	l.hi = copy(l.buf, l.buf[l.lo:l.hi])
	l.lo = 0
}

// push appends seq, which must be younger than every element.
func (l *seqList) push(seq int64) {
	l.room()
	l.buf[l.hi] = seq
	l.hi++
}

// insert adds seq at its program-order position.
func (l *seqList) insert(seq int64) {
	l.room()
	i := l.hi
	for ; i > l.lo && l.buf[i-1] > seq; i-- {
		l.buf[i] = l.buf[i-1]
	}
	l.buf[i] = seq
	l.hi++
}

// dropFront removes seq if it is the oldest element — how a retiring
// instruction, older than everything else in flight, leaves — and reports
// whether it was.
func (l *seqList) dropFront(seq int64) bool {
	if l.lo == l.hi || l.buf[l.lo] != seq {
		return false
	}
	l.lo++
	return true
}

// truncate removes every seq >= from (a squash).
func (l *seqList) truncate(from int64) {
	for l.hi > l.lo && l.buf[l.hi-1] >= from {
		l.hi--
	}
}

// compact keeps the first n elements and those from index i on, dropping
// the ones between: how a stage that walked seqs()[:i], moving the n
// elements that stay to the front, leaves the list.
func (l *seqList) compact(n, i int) {
	if n < i {
		n += copy(l.buf[l.lo+n:l.hi], l.buf[l.lo+i:l.hi])
		l.hi = l.lo + n
	}
}

// reset empties the list.
func (l *seqList) reset() {
	l.lo, l.hi = 0, 0
}
