package ckpttest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/obs"
)

// toy is a clock, a counter, a list whose length its walk learns by walking
// it (so that what follows sits behind a CountAt insert), and a field.
type toy struct {
	now, ticks, field int64
	list              []int64
	ring              *obs.Ring
}

func newToy() *toy                  { return &toy{ring: obs.NewRing(64), list: []int64{300, 1 << 20, 5}} }
func (m *toy) Cycle() int64         { return m.now }
func (m *toy) Events() []obs.Event  { return m.ring.Events() }
func (m *toy) record(kind obs.Kind) { m.ring.Record(obs.Event{Cycle: m.now, Kind: kind}) }
func (m *toy) State(s ckptio.State) {
	ckptio.Ticking(s, &m.now)
	_, mark := s.Counted(len(m.list))
	for i := range m.list {
		s.I64(&m.list[i])
	}
	s.CountAt(mark, len(m.list))
	ckptio.Ticking(s, &m.ticks)
	s.I64(&m.field)
}

// stepper advances a toy k cycles a step up to cycle end, setting field to 7
// on cycle plant.
func stepper(name string, k, end, plant int64) Way[*toy] {
	return Way[*toy]{Name: name, New: newToy, Step: func(m *toy) bool {
		if m.now >= end {
			return false
		}
		for range k {
			m.now, m.ticks = m.now+1, m.ticks+2
			m.record(obs.KindRetire)
			if m.now == plant {
				m.field = 7
				m.record(obs.KindSquash)
			}
		}
		return true
	}}
}

// fatal is a testing.TB whose Fatal ends the run and keeps the message.
type fatal struct {
	testing.TB
	msg string
}

func (f *fatal) Fatal(args ...any) { f.msg = fmt.Sprint(args...); panic(f) }

func fails(t *testing.T, r Row[*toy]) (msg string) {
	f := &fatal{TB: t}
	defer func() {
		if p := recover(); p != f {
			panic(p)
		}
		msg = f.msg
	}()
	Lockstep[*toy](f, r)
	return ""
}

// TestLockstepNamesTheFirstWrongCycle plants a one-field divergence on cycle
// 37 of a way that moves three cycles a step, beside one that moves one: at
// any spacing of the whole comparison the failure names cycle 39, the first
// both reach after it, the field's walk line behind the count CountAt
// inserted, both values and both ways' events.
func TestLockstepNamesTheFirstWrongCycle(t *testing.T) {
	plain := stepper("stepped", 1, 90, -1)
	if a, b := Lockstep(t, Row[*toy]{Name: "agreeing", A: plain, B: stepper("jumped", 3, 90, -1), Every: 1}); a.now != 90 || b.now != 90 {
		t.Fatalf("the ways ended on %d and %d, want 90", a.now, b.now)
	}
	want := regexp.MustCompile("^row planted: stepped and jumped first differ on cycle 39, at ckpttest/lockstep_test.go:[0-9]+ " +
		"`s.I64\\(&m.field\\)`: 0 vs 7\nlast events of stepped:(\n.*){32}\nlast events of jumped:(\n.*){29}\n  @37 core 0 squash")
	for _, every := range []int64{0, 1, 4, 64} {
		if got := fails(t, Row[*toy]{Name: "planted", A: plain, B: stepper("jumped", 3, 90, 37), Every: every}); !want.MatchString(got) {
			t.Errorf("Every %d: the failure reads\n%s", every, got)
		}
	}
	if got := fails(t, Row[*toy]{Name: "short", A: plain, B: stepper("short", 3, 60, -1)}); !strings.Contains(got,
		"stepped is on cycle 61 (ended: false), short on 60 (ended: true)") {
		t.Errorf("a way that ends early: %s", got)
	}
}

// TestFixpointMasksItsClasses holds the toy across steps that move only its
// clock and counter, both walked through ckptio.Ticking, and one that moves
// the field too: only the field is named.
func TestFixpointMasksItsClasses(t *testing.T) {
	m, step := newToy(), stepper("", 1, 100, 3).Step
	var f Fixpoint
	for cycle := int64(1); cycle <= 4; cycle++ {
		if err := f.Hold(m.State); err != nil {
			t.Fatal(err)
		}
		step(m)
		got, err := f.Moved(m.State)
		want := map[int64]string{3: "`s.I64(&m.field)`: 0 vs 7"}[cycle]
		if err != nil || (want == "") != (got == "") || !strings.Contains(got, want) {
			t.Errorf("step to cycle %d: moved %q (%v), want %q", cycle, got, err, want)
		}
	}
}

// TestDivergesNamesTheField names the field a toy saves other bytes for than
// another, behind the count CountAt inserted.
func TestDivergesNamesTheField(t *testing.T) {
	want, m := ckptio.NewEncoder(), newToy()
	newToy().State(ckptio.SaveTo(want))
	if m.field = 7; !strings.Contains(Diverges(want.Bytes(), m.State), "`s.I64(&m.field)`: 0 vs 7") {
		t.Fatalf("the toys part at %q", Diverges(want.Bytes(), m.State))
	}
}
