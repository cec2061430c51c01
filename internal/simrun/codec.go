package simrun

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
)

// Output's wire codec. AppendJSON writes the bytes json.Marshal writes and
// UnmarshalJSON reads that compact form back in one pass, both without
// reflection. A traced result, a counter name encoding/json would escape,
// and any input spaced, ordered or spelled otherwise go through
// encoding/json itself, so the codec agrees with it on every value and
// every input.

// Counts is a run's event counters by name, encoded as the plain map is.
// Decoding into a nil map reads that compact encoding without reflection;
// other input, or a non-nil map, goes to encoding/json, as a map would.
type Counts map[string]uint64

// UnmarshalJSON sets c only once all of data has parsed.
func (c *Counts) UnmarshalJSON(data []byte) error {
	if *c == nil {
		d := decoder{s: data}
		if m := d.counts(); d.done() {
			*c = m
			return nil
		}
	}
	return json.Unmarshal(data, (*map[string]uint64)(c))
}

// plainOutput is Output without its methods: what encoding/json reads.
type plainOutput Output

// UnmarshalJSON reads AppendJSON's form into a zero Output in one pass; any
// other input, or an Output already holding values, goes to encoding/json.
func (o *Output) UnmarshalJSON(data []byte) error {
	if o.CPI == 0 && o.Cycles == 0 && o.Insts == 0 && o.Counters == nil &&
		o.HW == nil && o.Events == nil && o.EventsLost == 0 {
		d := decoder{s: data}
		if v := d.output(); d.done() {
			*o = v
			return nil
		}
	}
	return json.Unmarshal(data, (*plainOutput)(o))
}

// AppendJSON appends json.Marshal(o)'s bytes to b. On an error, NaN or an
// infinity among its floats, b comes back as it was.
func (o *Output) AppendJSON(b []byte) ([]byte, error) {
	if len(o.Events) == 0 {
		if out, ok := o.appendJSON(b); ok {
			return out, nil
		}
	}
	data, err := json.Marshal(o)
	if err != nil {
		return b, err
	}
	return append(b, data...), nil
}

// appendJSON writes o field by field in declaration order, omitting what
// omitempty omits, and reports false where encoding/json would escape a
// counter name or refuse a float.
func (o *Output) appendJSON(b []byte) ([]byte, bool) {
	ok := finite(o.CPI)
	b = append(b, `{"cpi":`...)
	b = appendFloat(b, o.CPI)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendInt(b, o.Cycles, 10)
	b = append(b, `,"insts":`...)
	b = strconv.AppendInt(b, o.Insts, 10)
	b = append(b, `,"counters":`...)
	if o.Counters == nil {
		b = append(b, "null"...)
	} else {
		names := make([]string, 0, 64) // on the stack unless it grows
		for name := range o.Counters {
			names = append(names, name)
			ok = ok && plain(name)
		}
		slices.Sort(names)
		b = append(b, '{')
		for i, name := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, name...)
			b = append(b, `":`...)
			b = strconv.AppendUint(b, o.Counters[name], 10)
		}
		b = append(b, '}')
	}
	for i, h := range o.HW {
		ok = ok && finite(h.L1FP) && finite(h.DirFP) && finite(h.CPTMean)
		if i == 0 {
			b = append(b, `,"hw":[`...)
		} else {
			b = append(b, ',')
		}
		// Every member goes out after a ','; the first one's becomes '{'.
		n := len(b)
		if h.CST {
			b = append(b, `,"cst":true`...)
		}
		if h.L1FP != 0 {
			b = appendFloat(append(b, `,"l1_fp":`...), h.L1FP)
		}
		if h.DirFP != 0 {
			b = appendFloat(append(b, `,"dir_fp":`...), h.DirFP)
		}
		if h.CPT {
			b = append(b, `,"cpt":true`...)
		}
		if h.CPTMean != 0 {
			b = appendFloat(append(b, `,"cpt_mean":`...), h.CPTMean)
		}
		if h.CPTMax != 0 {
			b = strconv.AppendInt(append(b, `,"cpt_max":`...), int64(h.CPTMax), 10)
		}
		if h.CPTSamples != 0 {
			b = strconv.AppendUint(append(b, `,"cpt_samples":`...), h.CPTSamples, 10)
		}
		if h.CPTInserts != 0 {
			b = strconv.AppendUint(append(b, `,"cpt_inserts":`...), h.CPTInserts, 10)
		}
		if h.CPTOverflows != 0 {
			b = strconv.AppendUint(append(b, `,"cpt_overflows":`...), h.CPTOverflows, 10)
		}
		if len(b) == n {
			b = append(b, '{')
		} else {
			b[n] = '{'
		}
		b = append(b, '}')
	}
	if len(o.HW) > 0 {
		b = append(b, ']')
	}
	if o.EventsLost != 0 {
		b = strconv.AppendUint(append(b, `,"events_lost":`...), o.EventsLost, 10)
	}
	return append(b, '}'), ok
}

// finite reports that f is neither NaN nor an infinity.
func finite(f float64) bool { return math.Abs(f) <= math.MaxFloat64 }

// appendFloat formats f as encoding/json does: like ECMAScript, 'f' unless
// its magnitude is below 1e-6 or from 1e21 up, and then 'e' with no
// zero-padded exponent.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// plain reports that s is printable ASCII that encoding/json writes as
// itself: no '"' or '\\', and none of the '<', '>' and '&' it escapes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if escaped[s[i]] {
			return false
		}
	}
	return true
}

// escaped marks the bytes a plain string does not hold.
var escaped = func() (t [256]bool) {
	for c := range t {
		t[c] = c < ' ' || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&'
	}
	return t
}()

// decoder reads AppendJSON's compact form. A mismatch sets bad, after which
// every read is a no-op returning zero, so a parse reads as straight-line
// code and is checked once, by done.
type decoder struct {
	s   []byte
	i   int
	bad bool
}

// done reports that everything parsed and nothing follows.
func (d *decoder) done() bool { return !d.bad && d.i == len(d.s) }

// opt consumes lit if it comes next.
func (d *decoder) opt(lit string) bool {
	if d.bad || len(d.s)-d.i < len(lit) || string(d.s[d.i:d.i+len(lit)]) != lit {
		return false
	}
	d.i += len(lit)
	return true
}

// lit consumes lit, which must come next.
func (d *decoder) lit(lit string) {
	if !d.opt(lit) {
		d.bad = true
	}
}

// member consumes an object member's name after sep, the '{' that opens the
// object or the ',' after its previous member, and then sets sep to ','.
func (d *decoder) member(sep *byte, name string) bool {
	if d.i >= len(d.s) || d.s[d.i] != *sep {
		return false
	}
	d.i++
	if !d.opt(name) {
		d.i--
		return false
	}
	*sep = ','
	return true
}

// number consumes a JSON number; integer reports that it has no fraction
// or exponent.
func (d *decoder) number() (num []byte, integer bool) {
	s, i := d.s, d.i
	digits := func() bool {
		j := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if !digits() {
		d.bad = true
	}
	integer = true
	if i < len(s) && s[i] == '.' {
		i++
		integer = false
		d.bad = d.bad || !digits()
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		integer = false
		d.bad = d.bad || !digits()
	}
	if d.bad {
		return nil, false
	}
	num, d.i = s[d.i:i], i
	return num, integer
}

// float consumes a number in float64's range.
func (d *decoder) float() float64 {
	num, _ := d.number()
	f, err := strconv.ParseFloat(string(num), 64)
	d.bad = d.bad || err != nil
	return f
}

// int consumes an integer that fits bits.
func (d *decoder) int(bits int) int64 {
	num, integer := d.number()
	n, err := strconv.ParseInt(string(num), 10, bits)
	d.bad = d.bad || !integer || err != nil
	return n
}

// uint consumes an integer in uint64's range.
func (d *decoder) uint() uint64 {
	num, integer := d.number()
	n, err := strconv.ParseUint(string(num), 10, 64)
	d.bad = d.bad || !integer || err != nil
	return n
}

// bool consumes true or false.
func (d *decoder) bool() bool {
	if d.opt("true") {
		return true
	}
	d.lit("false")
	return false
}

// interned holds the counter names decodes have read, so that a name every
// cached result repeats is allocated once per process, not once per hit.
// Copied on write, it stops growing at 1 024 names (a run defines a few
// dozen).
var interned atomic.Pointer[map[string]string]

func init() { interned.Store(&map[string]string{}) }

// counts consumes an object of plain names and unsigned integers; a
// repeated name keeps its last value, as encoding/json keeps it.
func (d *decoder) counts() Counts {
	d.lit("{")
	if d.bad {
		return nil
	}
	// Sized by the members up to the first '}', which is the object's end
	// unless a name holds one.
	end := bytes.IndexByte(d.s[d.i:], '}')
	if end < 0 {
		d.bad = true
		return nil
	}
	m := make(Counts, bytes.Count(d.s[d.i:d.i+end], []byte(":")))
	if d.opt("}") {
		return m
	}
	known, fresh := interned.Load(), []string(nil)
	for !d.bad {
		d.lit(`"`)
		j := d.i
		for d.i < len(d.s) && !escaped[d.s[d.i]] {
			d.i++
		}
		name, ok := (*known)[string(d.s[j:d.i])]
		if !ok {
			name = string(d.s[j:d.i])
			fresh = append(fresh, name)
		}
		d.lit(`":`)
		v := d.uint()
		if d.bad {
			break
		}
		m[name] = v
		if !d.opt(",") {
			d.lit("}")
			break
		}
	}
	if fresh != nil && !d.bad && len(*known)+len(fresh) <= 1<<10 {
		names := maps.Clone(*known)
		for _, name := range fresh {
			names[name] = name
		}
		interned.CompareAndSwap(known, &names) // a racing decode's names come back with the next
	}
	return m
}

// output consumes what appendJSON writes.
func (d *decoder) output() (o Output) {
	d.lit(`{"cpi":`)
	o.CPI = d.float()
	d.lit(`,"cycles":`)
	o.Cycles = d.int(64)
	d.lit(`,"insts":`)
	o.Insts = d.int(64)
	d.lit(`,"counters":`)
	o.Counters = d.counts()
	if d.opt(`,"hw":[`) {
		// Sized by the objects up to the first ']', which closes the list.
		if end := bytes.IndexByte(d.s[d.i:], ']'); end > 0 {
			o.HW = make([]HW, 0, bytes.Count(d.s[d.i:d.i+end], []byte("{")))
		}
		for !d.bad {
			o.HW = append(o.HW, d.hw())
			if !d.opt(",") {
				d.lit("]")
				break
			}
		}
	}
	if d.opt(`,"events_lost":`) {
		o.EventsLost = d.uint()
	}
	d.lit("}")
	return o
}

// hw consumes one HW object, its members in appendJSON's order.
func (d *decoder) hw() (h HW) {
	sep := byte('{')
	if d.member(&sep, `"cst":`) {
		h.CST = d.bool()
	}
	if d.member(&sep, `"l1_fp":`) {
		h.L1FP = d.float()
	}
	if d.member(&sep, `"dir_fp":`) {
		h.DirFP = d.float()
	}
	if d.member(&sep, `"cpt":`) {
		h.CPT = d.bool()
	}
	if d.member(&sep, `"cpt_mean":`) {
		h.CPTMean = d.float()
	}
	if d.member(&sep, `"cpt_max":`) {
		h.CPTMax = int(d.int(strconv.IntSize))
	}
	if d.member(&sep, `"cpt_samples":`) {
		h.CPTSamples = d.uint()
	}
	if d.member(&sep, `"cpt_inserts":`) {
		h.CPTInserts = d.uint()
	}
	if d.member(&sep, `"cpt_overflows":`) {
		h.CPTOverflows = d.uint()
	}
	if sep == '{' {
		d.lit("{")
	}
	d.lit("}")
	return h
}
