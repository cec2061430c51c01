package ckpttest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/stats"
)

// Machine is what a lockstep way runs: a State walk and a clock. One that
// also has Events() []obs.Event has its last 32 printed on a mismatch.
type Machine interface {
	State(ckptio.State)
	Cycle() int64
}

// Way is one way of running a row's spec: New builds the machine where the
// way starts, and Step advances it at least one cycle or reports false,
// without moving, once the way's run is over.
type Way[M Machine] struct {
	Name string
	New  func() M
	Step func(M) bool
}

// Row is one spec run two ways, held to one state on every cycle both reach:
// Quick, if set, on each of them, and the whole State walk on the first such
// cycle at or past each multiple of Every (none if Every is 0) and the last.
type Row[M Machine] struct {
	Name  string
	A, B  Way[M]
	Every int64
	Quick func(M, ckptio.State)
}

// Lockstep runs the row and returns both machines where their runs ended.
// The way that stands on the earlier cycle steps until both stand on one — a
// way that jumps reaches fewer cycles, one resumed from a snapshot starts
// later — and both must end on the same cycle. On a mismatch it rebuilds both
// ways, replays them to the last cycle whose whole walks agreed and compares
// the whole walks on every shared cycle from there: the failure names the
// first cycle that differs, the walk line of the first differing primitive,
// both values and each way's last events.
func Lockstep[M Machine](t testing.TB, r Row[M]) (M, M) {
	t.Helper()
	p := r.start()
	agreed, due := int64(-1), int64(0)
	for p.meet() {
		c, ended := p.a.Cycle(), p.aDone && p.bDone
		whole := ended || r.Every > 0 && c >= due
		if r.Quick != nil && !p.same(r.Quick) || whole && !p.same(wholeWalk[M]) {
			break
		}
		if whole && r.Every > 0 {
			agreed, due = c, (c/r.Every+1)*r.Every
		}
		if ended {
			return p.a, p.b
		}
		p.next()
	}
	t.Fatal(r.bisect(agreed))
	return p.a, p.b
}

func wholeWalk[M Machine](m M, s ckptio.State) { m.State(s) }

type pair[M Machine] struct {
	r            *Row[M]
	a, b         M
	aDone, bDone bool
	aw, bw       walked
}

func (r *Row[M]) start() *pair[M] { return &pair[M]{r: r, a: r.A.New(), b: r.B.New()} }

// meet steps the way behind until both stand on one cycle, or reports false:
// the way behind has ended.
func (p *pair[M]) meet() bool {
	for {
		switch ca, cb := p.a.Cycle(), p.b.Cycle(); {
		case ca == cb:
			return true
		case ca < cb && !p.aDone:
			p.aDone = !p.r.A.Step(p.a)
		case cb < ca && !p.bDone:
			p.bDone = !p.r.B.Step(p.b)
		default:
			return false
		}
	}
}

func (p *pair[M]) next() {
	p.aDone = p.aDone || !p.r.A.Step(p.a)
	p.bDone = p.bDone || !p.r.B.Step(p.b)
}

func (p *pair[M]) same(walk func(M, ckptio.State)) bool {
	p.aw.save(func(s ckptio.State) { walk(p.a, s) }, false)
	p.bw.save(func(s ckptio.State) { walk(p.b, s) }, false)
	return bytes.Equal(p.aw.e.Bytes(), p.bw.e.Bytes())
}

// bisect replays the row to the first cycle past agreed whose whole walks
// differ and describes it.
func (r *Row[M]) bisect(agreed int64) string {
	p := r.start()
	for p.meet() {
		if c := p.a.Cycle(); c > agreed && !p.same(wholeWalk[M]) {
			a := func(s ckptio.State) { p.a.State(s) }
			p.aw.save(a, true)
			p.bw.save(func(s ckptio.State) { p.b.State(s) }, true)
			i := 0
			for bytes.Equal(p.aw.span(i), p.bw.span(i)) {
				i++
			}
			return fmt.Sprintf("row %s: %s and %s first differ on cycle %d, at %s%s%s", r.Name, r.A.Name, r.B.Name, c,
				describe(lineOf(a, i), p.aw.span(i), p.bw.span(i)), events(r.A.Name, p.a), events(r.B.Name, p.b))
		}
		if p.aDone && p.bDone {
			return fmt.Sprintf("row %s: the quick walks differed, the whole walks agree on every cycle", r.Name)
		}
		p.next()
	}
	return fmt.Sprintf("row %s: %s is on cycle %d (ended: %v), %s on %d (ended: %v); the whole walks agree until then",
		r.Name, r.A.Name, p.a.Cycle(), p.aDone, r.B.Name, p.b.Cycle(), p.bDone)
}

func events(name string, m any) string {
	e, ok := m.(interface{ Events() []obs.Event })
	if !ok {
		return ""
	}
	evs := e.Events()
	s := "\nlast events of " + name + ":"
	for _, ev := range evs[max(0, len(evs)-32):] {
		s += fmt.Sprintf("\n  @%d core %d %s seq %d line %#x arg %d", ev.Cycle, ev.Core, ev.Kind, ev.Seq, ev.Line, ev.Arg)
	}
	return s
}

// Counters returns a handle to every counter c has bound, in name order (the
// same for two machines built alike): what a Quick walk reads.
func Counters(c *stats.Counters) []*uint64 {
	e := ckptio.NewEncoder()
	c.State(ckptio.SaveTo(e))
	d := ckptio.NewDecoder(e.Bytes())
	var hs []*uint64
	for n := d.Count(1 << 16); n > 0; n-- {
		name := d.String()
		d.U64()
		hs = append(hs, c.Handle(name))
	}
	return hs
}

// Diverges describes the first primitive walk saves other bytes for than want
// holds in its place, or returns "": where a machine that failed to restore
// from want, saved again, first parts from it.
func Diverges(want []byte, walk func(ckptio.State)) string {
	var w walked
	w.save(walk, true)
	for i, off := range w.sites.Offs {
		span := w.span(i)
		if got := want[min(off, len(want)):min(off+len(span), len(want))]; !bytes.Equal(got, span) {
			return describe(lineOf(walk, i), got, span)
		}
	}
	return ""
}

// A Fixpoint holds a walk to itself across a step its caller declares a
// fixed point — Hold saves the walk before the step, Moved after it — but for
// the primitives written through ckptio.Ticking: a clock or a counter.
type Fixpoint struct{ before, after walked }

func (f *Fixpoint) Hold(walk func(ckptio.State)) error { return f.before.save(walk, true) }

// Moved saves walk again and describes the first primitive outside Ticking's
// that moved, or returns "". Up to that primitive both saves walked one path,
// so their indices name the same fields.
func (f *Fixpoint) Moved(walk func(ckptio.State)) (string, error) {
	b, a := &f.before, &f.after
	if err := a.save(walk, true); err != nil {
		return "", err
	}
	n := max(len(b.sites.Offs), len(a.sites.Offs))
	for lo, ticking := 0, a.sites.Ticking; lo <= n; lo++ {
		hi := n + 1
		if len(ticking) > 0 {
			hi, ticking = ticking[0], ticking[1:]
		}
		if !bytes.Equal(b.spans(lo, hi), a.spans(lo, hi)) {
			for bytes.Equal(b.span(lo), a.span(lo)) {
				lo++
			}
			return describe(lineOf(walk, lo), b.span(lo), a.span(lo)), nil
		}
		lo = hi
	}
	return "", nil
}

// walked is what a save of a walk left: its bytes and, if mapped, where each
// primitive starts.
type walked struct {
	e     ckptio.Encoder
	sites ckptio.SiteMap
}

// save walks through the encoder it keeps, so that once its buffers have
// grown, saving allocates nothing.
func (w *walked) save(walk func(ckptio.State), mapped bool) error {
	w.e.Reset()
	w.sites = ckptio.SiteMap{Offs: w.sites.Offs[:0], Ticking: w.sites.Ticking[:0], Stop: -1}
	if w.e.Sites = nil; mapped {
		w.e.Sites = &w.sites
	}
	walk(ckptio.SaveTo(&w.e))
	return w.e.Err()
}

// spans is the bytes of the primitives from lo up to hi, nil past the last;
// span is the lo-th's.
func (w *walked) spans(lo, hi int) []byte {
	offs, buf := w.sites.Offs, w.e.Bytes()
	if lo >= len(offs) {
		return nil
	}
	if hi < len(offs) {
		return buf[offs[lo]:offs[hi]]
	}
	return buf[offs[lo]:]
}

func (w *walked) span(i int) []byte { return w.spans(i, i+1) }

// line is a walk line, where a primitive was written from.
type line struct {
	file string
	n    int
}

// walkFrames prefixes the functions of ckptio and this package: their frames
// are no walk lines, but in test files.
var walkFrames = reflect.TypeOf(ckptio.State{}).PkgPath()

// lineOf returns the walk line that writes walk's i-th primitive: the
// innermost of its stack (the zero line if the walk ends first).
func lineOf(walk func(ckptio.State), i int) line {
	st := stackAt(walk, i)
	if len(st) == 0 {
		return line{}
	}
	f := st[len(st)-1]
	return line{f.File, f.Line}
}

// Stacks returns, for each primitive walk saves, the frames that wrote it,
// outermost first: the calls between walk and the primitive outside runtime,
// ckptio and this package. It walks once a primitive, so it is for small
// machines.
func Stacks(walk func(ckptio.State)) [][]runtime.Frame {
	var w walked
	w.save(walk, true)
	stacks := make([][]runtime.Frame, len(w.sites.Offs))
	for i := range stacks {
		stacks[i] = stackAt(walk, i)
	}
	return stacks
}

// stackAt walks until the site map stops it at its i-th primitive and returns
// the frames there up to stackAt's own, outermost first, but for those in
// runtime, ckptio and this package (test files excepted); nil if the walk
// ends first.
func stackAt(walk func(ckptio.State), i int) (st []runtime.Frame) {
	m := &ckptio.SiteMap{Stop: i}
	defer func() {
		if r := recover(); r != m {
			if r != nil {
				panic(r)
			}
			return
		}
		pc := make([]uintptr, 256)
		frames := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
		for f, more := frames.Next(); more && f.Function != stackAtFunc; f, more = frames.Next() {
			if !strings.HasPrefix(f.Function, "runtime.") &&
				(!strings.HasPrefix(f.Function, walkFrames) || strings.HasSuffix(f.File, "_test.go")) {
				st = append(st, f)
			}
		}
		slices.Reverse(st)
	}()
	walk(ckptio.SaveTo(&ckptio.Encoder{Sites: m}))
	return nil
}

var stackAtFunc = reflect.TypeOf(walked{}).PkgPath() + ".stackAt"

var sources sync.Map // file name → its lines

func (l line) text() string {
	v, ok := sources.Load(l.file)
	if !ok {
		b, _ := os.ReadFile(l.file)
		v, _ = sources.LoadOrStore(l.file, strings.Split(string(b), "\n"))
	}
	if lines := v.([]string); l.n >= 1 && l.n <= len(lines) {
		return strings.TrimSpace(lines[l.n-1])
	}
	return ""
}

// describe names a primitive by its walk line and renders both values as the
// walk call on the line wrote them: a signed or unsigned varint, a
// length-prefixed string, or else bytes.
func describe(l line, a, b []byte) string {
	if l.file == "" {
		return fmt.Sprintf("the end of one walk: % x vs % x", a, b)
	}
	text := l.text()
	value := func(b []byte) string {
		v, n := binary.Uvarint(b)
		switch {
		case n <= 0:
			return fmt.Sprintf("% x", b)
		case n < len(b):
			return fmt.Sprintf("%q", b[n:])
		case strings.Contains(text, ".I64(") || strings.Contains(text, ".I32(") || strings.Contains(text, ".Int("):
			return fmt.Sprint(int64(v>>1) ^ -int64(v&1))
		}
		return fmt.Sprint(v)
	}
	return fmt.Sprintf("%s/%s:%d `%s`: %s vs %s", filepath.Base(filepath.Dir(l.file)), filepath.Base(l.file), l.n,
		text, value(a), value(b))
}
