package core

import (
	"fmt"
	"reflect"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/trace"
)

// mapFinder walks types and values for fields of reflect.Map kind. A type's
// fields, elements and pointees are walked once, so a map is found whether or
// not the field holds one yet; a value is walked only through what its static
// type cannot tell, the dynamic value behind an interface.
type mapFinder struct {
	walked map[reflect.Type]bool
	hides  map[reflect.Type]bool // an interface is reachable from the type
	seen   map[reflect.Value]bool
	found  []string
}

// typ reports every map kind reachable from t through struct fields, array,
// slice and channel elements and pointees.
func (f *mapFinder) typ(t reflect.Type, path string) {
	if f.walked[t] {
		return
	}
	f.walked[t] = true
	switch t.Kind() {
	case reflect.Map:
		f.found = append(f.found, fmt.Sprintf("%s is a %s", path, t))
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
		f.typ(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f.typ(t.Field(i).Type, path+"."+t.Field(i).Name)
		}
	}
}

// hidesInterface reports whether an interface is reachable from t, so that
// its values must be walked to see every type under it.
func (f *mapFinder) hidesInterface(t reflect.Type) bool {
	if h, ok := f.hides[t]; ok {
		return h
	}
	f.hides[t] = false // a type that reaches itself hides nothing by that path
	h := false
	switch t.Kind() {
	case reflect.Interface:
		h = true
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
		h = f.hidesInterface(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField() && !h; i++ {
			h = f.hidesInterface(t.Field(i).Type)
		}
	}
	f.hides[t] = h
	return h
}

// value walks v's type and then, where interfaces hide types, v itself.
func (f *mapFinder) value(v reflect.Value, path string) {
	f.typ(v.Type(), path)
	if !f.hidesInterface(v.Type()) {
		return
	}
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			f.value(v.Elem(), fmt.Sprintf("%s.(%s)", path, v.Elem().Type()))
		}
	case reflect.Pointer:
		if !v.IsNil() && !f.seen[v] {
			f.seen[v] = true
			f.value(v.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.value(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.value(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	}
}

// TestNoMapOnTheCyclePath: nothing reachable from a core, its L1, a
// directory slice or the fabric is a Go map. A core names its loads by ROB
// slot and LQ position and an L1 keeps short lists (DESIGN.md §9), and the
// maps they replaced cost a tenth of an 8-core run's host time; a map that
// comes back fails here instead. The machines run a while first, with a
// recorder and every optional part of a core in place, so that what a run
// creates on the way is walked too.
func TestNoMapOnTheCyclePath(t *testing.T) {
	for _, pol := range []defense.Policy{
		{Scheme: defense.DOM, Variant: defense.EP},
		{Scheme: defense.STT, Variant: defense.LP},
		{Scheme: defense.RCP, Variant: defense.Comp},
		{Scheme: defense.IS, Variant: defense.EP},
	} {
		t.Run(pol.String(), func(t *testing.T) {
			w := trace.ByName("ocean_cp")
			cfg := arch.PaperConfig(w.Cores())
			sys, err := New(cfg, pol, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			sys.SetRecorder(obs.NewRing(64))
			for i := 0; i < 3000; i++ {
				sys.stepCycle()
			}
			f := &mapFinder{walked: map[reflect.Type]bool{}, hides: map[reflect.Type]bool{},
				seen: map[reflect.Value]bool{}}
			f.value(reflect.ValueOf(sys.cores), "cores")
			f.value(reflect.ValueOf(sys.mem), "mem")
			for _, m := range f.found {
				t.Error(m)
			}
			if !f.walked[reflect.TypeOf(sys.mem.L1(0)).Elem()] {
				t.Fatal("the walk never reached an L1")
			}
		})
	}
}
