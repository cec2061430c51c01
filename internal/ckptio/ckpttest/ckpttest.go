// Package ckpttest holds the completeness checks that each package with a
// ckptio.State walk applies to its own structs, so that a field added to a
// struct and to neither its walk nor its declared derived or configuration
// list fails a test instead of silently diverging after a resume.
package ckpttest

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"pinnedloads/internal/ckptio"
)

// Variants calls visit with a copy of base for every way of changing one
// field of it: each scalar of a nested struct or array raised by one (a bool
// flipped) on its own, a slice made one element longer. field is the name of
// the top-level field the change is under.
func Variants[T any](t *testing.T, base T, visit func(field string, rec *T)) {
	t.Helper()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		for k := 0; ; k++ {
			rec := base
			if bump(t, settable(reflect.ValueOf(&rec).Elem().Field(i)), k) >= 0 {
				break
			}
			visit(typ.Field(i).Name, &rec)
		}
	}
}

// Fields holds a record struct to its walk. Every variant of base (Variants)
// must change the bytes walk saves and load back to a record that saves the
// same bytes, unless the changed field is named in derived, in which case the
// bytes must not move. base and its variants must be records loading accepts.
func Fields[T any](t *testing.T, base T, walk func(ckptio.State, *T), derived []string) {
	t.Helper()
	save := func(rec *T) []byte {
		e := ckptio.NewEncoder()
		walk(ckptio.SaveTo(e), rec)
		return e.Bytes()
	}
	want := save(&base)
	typ := reflect.TypeOf(base)
	for _, name := range derived {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("%s: derived list names %s, which is not a field", typ.Name(), name)
		}
	}
	Variants(t, base, func(name string, rec *T) {
		t.Helper()
		got := save(rec)
		if slices.Contains(derived, name) {
			if !bytes.Equal(got, want) {
				t.Errorf("%s.%s is listed as derived but changes the saved bytes", typ.Name(), name)
			}
			return
		}
		if bytes.Equal(got, want) {
			t.Errorf("%s.%s does not change the saved bytes: walk it or list it as derived", typ.Name(), name)
			return
		}
		var back T
		d := ckptio.NewDecoder(got)
		walk(ckptio.LoadFrom(d), &back)
		if err := d.Done(); err != nil {
			t.Errorf("%s.%s: loading what was saved: %v", typ.Name(), name, err)
		} else if !bytes.Equal(save(&back), got) {
			t.Errorf("%s.%s does not survive save, load, save", typ.Name(), name)
		}
	})
}

// settable lifts the read-only mark reflection puts on unexported fields.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// bump changes the k-th scalar under v, depth first, and returns k less the
// scalars it passed: negative once the change is made.
func bump(t *testing.T, v reflect.Value, k int) int {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField() && k >= 0; i++ {
			k = bump(t, settable(v.Field(i)), k)
		}
		return k
	case reflect.Array:
		for i := 0; i < v.Len() && k >= 0; i++ {
			k = bump(t, v.Index(i), k)
		}
		return k
	}
	if k == 0 {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.25)
		case reflect.Slice:
			longer := reflect.MakeSlice(v.Type(), v.Len()+1, v.Len()+1)
			reflect.Copy(longer, v)
			v.Set(longer)
		default:
			t.Fatalf("a field of kind %s: teach ckpttest to change it", v.Kind())
		}
	}
	return k - 1
}

// Container checks the classification of a component struct by field name:
// every field of zero's type must be mentioned through the receiver in the
// type's State method in file (it is walked, or rebuilt there), or be named
// in derived or config, and not in both. A name in either list that is not a
// field is stale.
func Container(t *testing.T, file string, zero any, derived, config []string) {
	t.Helper()
	typ := reflect.TypeOf(zero)
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var walked []string
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != "State" || len(fn.Recv.List[0].Names) == 0 {
			continue
		}
		recvType := fn.Recv.List[0].Type
		if star, ok := recvType.(*ast.StarExpr); ok {
			recvType = star.X
		}
		if id, ok := recvType.(*ast.Ident); !ok || id.Name != typ.Name() {
			continue
		}
		recv := fn.Recv.List[0].Names[0].Name
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
					walked = append(walked, sel.Sel.Name)
				}
			}
			return true
		})
	}
	if walked == nil {
		t.Fatalf("%s declares no State method on %s", file, typ.Name())
	}
	for _, name := range slices.Concat(derived, config) {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("%s: %s is listed but is not a field", typ.Name(), name)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		isDerived, isConfig := slices.Contains(derived, name), slices.Contains(config, name)
		switch {
		case isDerived && isConfig:
			t.Errorf("%s.%s is listed as both derived and configuration", typ.Name(), name)
		case !isDerived && !isConfig && !slices.Contains(walked, name):
			t.Errorf("%s.%s is not mentioned by State and is listed as neither derived nor configuration", typ.Name(), name)
		}
	}
}
