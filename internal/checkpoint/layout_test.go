package checkpoint

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio/ckpttest"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
	"pinnedloads/internal/tracefile"
)

var update = flag.Bool("update", false, "rewrite the checkpoint layout DESIGN.md renders from the walks")

// The block of DESIGN.md that TestDesignRendersTheWalks writes.
const (
	layoutBegin = "<!-- BEGIN checkpoint layout: rendered from the walks by `go test ./internal/checkpoint -run TestDesignRendersTheWalks -update`; do not edit -->\n"
	layoutEnd   = "<!-- END checkpoint layout -->\n"
)

// TestDesignRendersTheWalks holds DESIGN.md §10's layout to the walks. It
// saves small machines that together reach every walk line, names the walk
// line that wrote each primitive of each save (ckpttest.Stacks), and renders
// one bullet a walk: the lines that write, in wire order, each leading into
// the walks it calls, and the messages the walk fails with. A walk line
// changed, added or dropped changes the block, and the test fails until
// -update rewrites it; a walk line no machine reached fails the test too.
func TestDesignRendersTheWalks(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("walks each machine once a primitive; nothing here runs concurrently")
	}
	l := newLayout()
	layoutMachines(t, func(sys *core.System) {
		for _, st := range ckpttest.Stacks(sys.State) {
			l.add(st)
		}
	})
	ws := l.walks(t)
	got := l.render(t, ws)
	if missed := l.unreached(t, ws); len(missed) > 0 {
		t.Errorf("no machine reached these walk lines; add one that does:\n%s", strings.Join(missed, "\n"))
	}

	const path = "../../DESIGN.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i, j := bytes.Index(doc, []byte(layoutBegin)), bytes.Index(doc, []byte(layoutEnd))
	if i < 0 || j < i {
		t.Fatalf("DESIGN.md holds no %q … %q block", strings.TrimSpace(layoutBegin), strings.TrimSpace(layoutEnd))
	}
	have := string(doc[i+len(layoutBegin) : j])
	if have == got {
		return
	}
	if *update {
		out := slices.Concat(doc[:i+len(layoutBegin)], []byte(got), doc[j:])
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Errorf("DESIGN.md's checkpoint layout is not what the walks write; rerun with -update and review the diff.\nwant:\n%s", got)
}

// layoutMachines runs the machines the layout is rendered from and hands
// each to visit at its warmup boundary, between cycles with work in flight.
// They are small: a save of one is about a thousand primitives, and Stacks
// walks once for each.
func layoutMachines(t *testing.T, visit func(*core.System)) {
	small := func(cores int) arch.Config {
		cfg := arch.PaperConfig(cores)
		cfg.ROBEntries, cfg.LQEntries, cfg.SQEntries, cfg.WriteBufferEntries = 32, 8, 8, 8
		cfg.L1Sets, cfg.L1Ways, cfg.L1MSHRs = 4, 2, 4
		cfg.LLCSlices, cfg.LLCSets, cfg.LLCWays = 1, 64, 4
		cfg.L1CSTEntries, cfg.DirCSTEntries = 2, 2
		return cfg
	}
	// Two cores contending for the lines of one L1 set, loads against
	// stores under Early Pinning: long-form directory lines, ownership
	// transactions, writebacks, messages in flight, CSTs and the CPT.
	line := func(i uint64) uint64 { return 0x100000 + i*arch.LineBytes*4 }
	contend := &trace.Script{ScriptName: "contend", NumCores: 2, Loop: true, Insts: [][]isa.Inst{{
		{Op: isa.Load, Addr: line(0)}, {Op: isa.Load, Addr: line(1)}, {Op: isa.Load, Addr: line(2)},
		{Op: isa.Store, Addr: line(3)}, {Op: isa.ALU, Lat: 20}, {Op: isa.Branch, Deps: [2]int32{1}},
	}, {
		{Op: isa.Store, Addr: line(0)}, {Op: isa.Store, Addr: line(1)}, {Op: isa.Load, Addr: line(3)},
		{Op: isa.Store, Addr: line(4)},
	}}}
	for _, m := range []struct {
		pol  defense.Policy
		src  trace.Source
		warm int64
	}{
		{defense.Policy{Scheme: defense.DOM, Variant: defense.EP}, contend, 600},
		// A profile generator, and the runs of a warm LLC.
		{defense.Policy{Scheme: defense.RCP}, trace.ByName("mcf_r"), 600},
		// An attack kernel's generator, and a recorded trace's.
		{defense.Policy{Scheme: defense.RCP}, &trace.Attack{AttackKind: "spectre_v1", Secret: 1}, 300},
		{defense.Policy{Scheme: defense.Unsafe}, tracefile.Record(trace.ByName("gcc_r"), 1, 500), 300},
	} {
		sys, err := core.New(small(m.src.Cores()), m.pol, m.src, 1)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetWarmupHook(func() { visit(sys) })
		if _, err := sys.Run(m.warm, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// stateNames are what the walks call their ckptio.State.
var stateNames = []string{"s", "st"}

// primitives are the ckptio.State methods and ckptio functions that write.
var primitives = []string{"U8", "Bool", "U64", "U32", "U16", "I64", "I32", "I8", "Int", "F64", "String", "Name",
	"Inst", "Count", "Counted", "Geometry", "GeometryInt", "Present", "Enum", "Slice", "Queue", "Ticking"}

// rare are walk lines that write only in states a machine reaches by the
// luck of timing, or not at all. The layout renders each as reached, and the
// walk it leads into from its own source, so that it does not depend on when
// the machines stop.
var rare = []struct{ walk, call, into, why string }{
	{"coherence.L1.State", "l.spec[i].walk(s)", "coherence.specTxn.walk", "an RCP access done and not yet retired"},
	{"coherence.L1.State", "s.I64(&l.specAband[i])", "", "an RCP load squashed while its fill is in flight"},
	{"pin.CPT.State", "s.U64(&t.lines[i])", "", "an Inv* for a line whose starved write has not yet gone through"},
	{"coherence.Dir.State", "m.walk(s, d.cfg)", "coherence.Msg.walk",
		"a demand request queued behind a slice's port budget, which the paper's machine does not set (DirPortsPerCycle 0)"},
}

// frame is a walk line: a function, closures folded into the one they are
// in and named as short does, and a line of it.
type frame struct {
	fn   string
	file string
	line int
}

// layout gathers the stacks of every primitive the machines saved.
type layout struct {
	stacks [][]frame
	fset   *token.FileSet
	files  map[string]*ast.File
}

func newLayout() *layout { return &layout{fset: token.NewFileSet(), files: map[string]*ast.File{}} }

// verbs matches a format's verbs: a Failf whose format is nothing else
// ("%v" of an error) says nothing the layout can show.
var verbs = regexp.MustCompile(`%[-+# 0-9.]*[a-zA-Z%]`)

var closure = regexp.MustCompile(`(\.func\d+)+(\.\d+)*$`)

// short names a function without the module path, the receiver's star and a
// closure's suffix: core.System.State.
func short(fn string) string {
	fn = closure.ReplaceAllString(strings.TrimPrefix(fn, "pinnedloads/internal/"), "")
	return strings.NewReplacer("(*", "", ")", "").Replace(fn)
}

// add keeps a primitive's stack, without the test's frames.
func (l *layout) add(st []runtime.Frame) {
	var fs []frame
	for _, f := range st {
		if strings.HasSuffix(f.File, "_test.go") || strings.HasSuffix(f.Function, "-fm") {
			continue
		}
		fr := frame{short(f.Function), f.File, f.Line}
		if len(fs) == 0 || fs[len(fs)-1] != fr {
			fs = append(fs, fr)
		}
	}
	l.stacks = append(l.stacks, fs)
}

// walk is a function that writes a primitive itself, and so a bullet.
type walk struct {
	file  string
	decl  *ast.FuncDecl
	lines map[int]*walkLine
}

// walkLine is a line of a walk that writes a primitive or leads into
// another walk.
type walkLine struct {
	writes bool
	calls  []string
}

func (w *walk) line(n int) *walkLine {
	if w.lines[n] == nil {
		w.lines[n] = &walkLine{}
	}
	return w.lines[n]
}

// walks folds the stacks into walks: a function that writes a primitive
// itself is one, and a line of it leads into the next walk down a stack, the
// functions between (merge, the recorder's feeders) folded away. Then it adds
// the rare lines.
func (l *layout) walks(t *testing.T) map[string]*walk {
	ws := map[string]*walk{}
	for _, st := range l.stacks {
		if f := st[len(st)-1]; ws[f.fn] == nil {
			ws[f.fn] = &walk{file: f.file, decl: l.decl(t, f.file, f.line), lines: map[int]*walkLine{}}
		}
	}
	for _, st := range l.stacks {
		var chain []frame
		for _, f := range st {
			if ws[f.fn] != nil {
				chain = append(chain, f)
			}
		}
		for i, f := range chain {
			wl := ws[f.fn].line(f.line)
			if i == len(chain)-1 {
				wl.writes = true
			} else if next := chain[i+1].fn; next != f.fn && !slices.Contains(wl.calls, next) {
				wl.calls = append(wl.calls, next)
			}
		}
	}
	for _, r := range rare {
		w := ws[r.walk]
		if w == nil {
			t.Fatalf("rare line %q: no machine reached %s", r.call, r.walk)
		}
		n := l.callLine(t, w.decl, r.call)
		if r.into == "" {
			w.line(n).writes = true
			continue
		}
		if wl := w.line(n); !slices.Contains(wl.calls, r.into) {
			wl.calls = append(wl.calls, r.into)
		}
		if ws[r.into] == nil {
			into := &walk{file: w.file, decl: l.named(t, w.file, r.into), lines: map[int]*walkLine{}}
			ast.Inspect(into.decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && primitiveCall(call) {
					into.line(l.fset.Position(call.Pos()).Line).writes = true
				}
				return true
			})
			ws[r.into] = into
		}
	}
	return ws
}

// callLine returns the line of decl that makes the call spelled call.
func (l *layout) callLine(t *testing.T, decl *ast.FuncDecl, call string) int {
	n := 0
	ast.Inspect(decl.Body, func(node ast.Node) bool {
		if c, ok := node.(*ast.CallExpr); ok && n == 0 && l.source(t, c) == call {
			n = l.fset.Position(c.Pos()).Line
		}
		return n == 0
	})
	if n == 0 {
		t.Fatalf("%s makes no call %s", decl.Name.Name, call)
	}
	return n
}

// named returns the function of the file that short names fn.
func (l *layout) named(t *testing.T, path, fn string) *ast.FuncDecl {
	for _, d := range l.file(t, path).Decls {
		decl, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := l.file(t, path).Name.Name + "."
		if decl.Recv != nil {
			recv := decl.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			name += types.ExprString(recv) + "."
		}
		if name+decl.Name.Name == fn {
			return decl
		}
	}
	t.Fatalf("%s declares no %s", path, fn)
	return nil
}

// file parses a Go file once.
func (l *layout) file(t *testing.T, path string) *ast.File {
	if f := l.files[path]; f != nil {
		return f
	}
	f, err := parser.ParseFile(l.fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.files[path] = f
	return f
}

// stateCall reports whether call is a method of the State or a ckptio
// function, and its name.
func stateCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	return sel.Sel.Name, ok && (slices.Contains(stateNames, id.Name) || id.Name == "ckptio")
}

// walkCall reports whether call hands a State to something: a State method,
// a ckptio function, or any call with the State among its arguments.
func walkCall(call *ast.CallExpr) bool {
	if _, ok := stateCall(call); ok {
		return true
	}
	return slices.ContainsFunc(call.Args, func(a ast.Expr) bool {
		id, ok := a.(*ast.Ident)
		return ok && slices.Contains(stateNames, id.Name)
	})
}

// primitiveCall reports whether call writes a primitive itself.
func primitiveCall(call *ast.CallExpr) bool {
	name, ok := stateCall(call)
	return ok && slices.Contains(primitives, name)
}

// lineCall returns the call a walk line makes, as its source with the
// spaces collapsed: the first call on the line that hands the State to
// something, else the first one.
func (l *layout) lineCall(t *testing.T, path string, line int) string {
	var calls []*ast.CallExpr
	ast.Inspect(l.file(t, path), func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && l.fset.Position(call.Pos()).Line == line {
			calls = append(calls, call)
		}
		return true
	})
	if len(calls) == 0 {
		t.Fatalf("%s:%d: a walk line with no call on it", path, line)
	}
	return l.source(t, calls[max(slices.IndexFunc(calls, walkCall), 0)])
}

// source returns n's source text with its spaces collapsed.
func (l *layout) source(t *testing.T, n ast.Node) string {
	from, to := l.fset.Position(n.Pos()), l.fset.Position(n.End())
	src, err := os.ReadFile(from.Filename)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(strings.Fields(string(src[from.Offset:to.Offset])), " ")
}

// decl returns the top-level function of the file that holds line.
func (l *layout) decl(t *testing.T, path string, line int) *ast.FuncDecl {
	for _, d := range l.file(t, path).Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil &&
			l.fset.Position(fn.Pos()).Line <= line && line <= l.fset.Position(fn.End()).Line {
			return fn
		}
	}
	t.Fatalf("%s:%d: a walk line outside any function", path, line)
	return nil
}

// failures returns the messages fn fails a walk with, and those of the
// functions of its file it hands its State to that are no walks themselves
// (the restore's rebuild): each Failf's format, in source order.
func (l *layout) failures(t *testing.T, path string, fn *ast.FuncDecl, walks map[*ast.FuncDecl]bool, seen map[*ast.FuncDecl]bool) []string {
	seen[fn] = true
	var msgs []string
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Failf" && len(call.Args) > 0 {
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if msg, err := strconv.Unquote(lit.Value); err == nil && verbs.ReplaceAllString(msg, "") != "" && !slices.Contains(msgs, msg) {
					msgs = append(msgs, msg)
				}
			}
			return true
		}
		if !walkCall(call) {
			return true
		}
		name := ""
		switch f := call.Fun.(type) {
		case *ast.Ident:
			name = f.Name
		case *ast.SelectorExpr:
			name = f.Sel.Name
		}
		for _, d := range l.file(t, path).Decls {
			if callee, ok := d.(*ast.FuncDecl); ok && callee.Name.Name == name && !walks[callee] && !seen[callee] {
				msgs = append(msgs, l.failures(t, path, callee, walks, seen)...)
			}
		}
		return true
	})
	return msgs
}

// rel names a file by its package directory: coherence/ckpt.go.
func rel(path string) string { return filepath.Base(filepath.Dir(path)) + "/" + filepath.Base(path) }

// render writes one bullet a walk, from core.System.State down, each walk
// after the first one that leads into it.
func (l *layout) render(t *testing.T, ws map[string]*walk) string {
	decls := map[*ast.FuncDecl]bool{}
	for _, w := range ws {
		decls[w.decl] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Format version %d (`checkpoint.Version`). The payload is `core.System.State`; each walk below writes, in wire order:\n\n", Version)
	done := map[string]bool{}
	var emit func(fn string)
	emit = func(fn string) {
		w := ws[fn]
		if done[fn] || w == nil {
			return
		}
		done[fn] = true
		var items, next []string
		for _, n := range slices.Sorted(maps.Keys(w.lines)) {
			item := "`" + strings.ReplaceAll(l.lineCall(t, w.file, n), "|", `\|`) + "`"
			if calls := w.lines[n].calls; len(calls) > 0 {
				item += " → `" + strings.Join(calls, "` / `") + "`"
				next = append(next, calls...)
			}
			items = append(items, item)
		}
		fmt.Fprintf(&b, "- **`%s`** (`%s`): %s", fn, rel(w.file), strings.Join(items, " · "))
		var quoted []string
		for _, m := range l.failures(t, w.file, w.decl, decls, map[*ast.FuncDecl]bool{}) {
			quoted = append(quoted, strconv.Quote(m))
		}
		if len(quoted) > 0 {
			fmt.Fprintf(&b, ". Fails on %s", strings.Join(quoted, ", "))
		}
		b.WriteString(".\n")
		for _, c := range next {
			emit(c)
		}
	}
	emit("core.System.State")
	for fn := range ws {
		if !done[fn] {
			t.Errorf("walk %s is not reached from core.System.State", fn)
		}
	}
	return b.String()
}

// unreached returns the primitive calls in the walks' files that write
// nothing in any save: no machine reached them, and they are not rare.
func (l *layout) unreached(t *testing.T, ws map[string]*walk) []string {
	writes := map[string]map[int]bool{}
	for _, w := range ws {
		if writes[w.file] == nil {
			writes[w.file] = map[int]bool{}
		}
		for n, wl := range w.lines {
			if wl.writes {
				writes[w.file][n] = true
			}
		}
	}
	var missed []string
	for path, lines := range writes {
		ast.Inspect(l.file(t, path), func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && primitiveCall(call) {
				if p := l.fset.Position(call.Pos()); !lines[p.Line] {
					missed = append(missed, fmt.Sprintf("%s:%d: %s", rel(path), p.Line, types.ExprString(call)))
				}
			}
			return true
		})
	}
	slices.Sort(missed)
	return missed
}
