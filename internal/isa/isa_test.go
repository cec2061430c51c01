package isa

import (
	"strings"
	"testing"
)

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		Nop: "nop", ALU: "alu", FALU: "falu", Branch: "branch",
		Load: "load", Store: "store", Fence: "fence", Lock: "lock",
		Barrier: "barrier", Halt: "halt",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	if !strings.HasPrefix(Op(200).String(), "op(") {
		t.Error("unknown op String missing fallback")
	}
}

func TestIsMem(t *testing.T) {
	for _, op := range []Op{Load, Store, Lock} {
		if !op.IsMem() {
			t.Errorf("%v.IsMem() = false", op)
		}
	}
	for _, op := range []Op{Nop, ALU, FALU, Branch, Fence, Barrier, Halt} {
		if op.IsMem() {
			t.Errorf("%v.IsMem() = true", op)
		}
	}
}

func TestInstString(t *testing.T) {
	ld := Inst{Op: Load, Addr: 0x1000}
	if !strings.Contains(ld.String(), "0x1000") {
		t.Errorf("load String = %q", ld.String())
	}
	br := Inst{Op: Branch, Taken: true, Mispredict: true}
	if !strings.Contains(br.String(), "mispredict=true") {
		t.Errorf("branch String = %q", br.String())
	}
	alu := Inst{Op: ALU, Lat: 3}
	if !strings.Contains(alu.String(), "lat=3") {
		t.Errorf("alu String = %q", alu.String())
	}
}
