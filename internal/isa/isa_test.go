package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegValid(t *testing.T) {
	for r := Reg(0); r < NumArchRegs; r++ {
		if !r.Valid() {
			t.Fatalf("register %v should be valid", r)
		}
	}
	if RegNone.Valid() {
		t.Fatal("RegNone must not be a valid architectural register")
	}
	if Reg(NumArchRegs).Valid() {
		t.Fatal("register one past the file must be invalid")
	}
}

func TestRegString(t *testing.T) {
	if got := Reg(7).String(); got != "r7" {
		t.Fatalf("Reg(7) = %q, want r7", got)
	}
	if got := RegNone.String(); got != "r-" {
		t.Fatalf("RegNone = %q, want r-", got)
	}
}

func TestEveryOpcodeHasName(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op") {
			t.Errorf("opcode %d has no name (got %q)", op, s)
		}
	}
}

func TestBranchClassification(t *testing.T) {
	branches := []Opcode{JMP, BEQZ, BNEZ, BLT, BGE, CALL, RET}
	for _, op := range branches {
		if !op.IsBranch() {
			t.Errorf("%v should be a branch", op)
		}
		if op.FU() != FUBranch {
			t.Errorf("%v should execute on the branch unit", op)
		}
	}
	conditional := map[Opcode]bool{BEQZ: true, BNEZ: true, BLT: true, BGE: true}
	for _, op := range branches {
		if op.IsConditional() != conditional[op] {
			t.Errorf("%v conditional = %v, want %v", op, op.IsConditional(), conditional[op])
		}
	}
	for _, op := range []Opcode{ADD, LD, ST, NOP, MOVI} {
		if op.IsBranch() {
			t.Errorf("%v should not be a branch", op)
		}
	}
}

func TestMemClassification(t *testing.T) {
	if !LD.IsLoad() || !LD.IsMem() || LD.IsStore() {
		t.Error("LD misclassified")
	}
	if !ST.IsStore() || !ST.IsMem() || ST.IsLoad() {
		t.Error("ST misclassified")
	}
	if ADD.IsMem() {
		t.Error("ADD is not a memory op")
	}
	if LD.FU() != FUAGU || ST.FU() != FUAGU {
		t.Error("memory ops should use the AGU")
	}
}

func TestExecLatencyPositive(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if op.ExecLatency() < 1 {
			t.Errorf("%v has non-positive latency", op)
		}
	}
	if MUL.ExecLatency() <= ADD.ExecLatency() {
		t.Error("multiply should be slower than add")
	}
	if DIV.ExecLatency() <= MUL.ExecLatency() {
		t.Error("divide should be slower than multiply")
	}
}

func TestHasDst(t *testing.T) {
	st := Uop{Op: ST, Dst: RegNone, Src1: 1, Src2: 2}
	if st.HasDst() {
		t.Error("stores have no destination register")
	}
	ld := Uop{Op: LD, Dst: 4, Src1: 1}
	if !ld.HasDst() {
		t.Error("loads have a destination register")
	}
}

func TestUopStringCoversAllShapes(t *testing.T) {
	cases := []Uop{
		{Op: MOVI, Dst: 1, Imm: 42},
		{Op: LD, Dst: 2, Src1: 1, Imm: 8},
		{Op: LD, Dst: 2, Src1: 1, Src2: 3, Scaled: true, Scale: 8},
		{Op: ST, Src1: 1, Src2: 2, Imm: 16},
		{Op: BEQZ, Src1: 1, Target: 3},
		{Op: ADD, Dst: 1, Src1: 2, Src2: 3},
	}
	for _, u := range cases {
		if s := u.String(); s == "" {
			t.Errorf("empty String for %+v", u)
		}
	}
}

// Text layout round-trip: addresses and indices must be mutually inverse.
func TestTextLayoutRoundTrip(t *testing.T) {
	f := func(i uint16) bool {
		addr := TextBase + uint64(i)*UopBytes
		return (addr-TextBase)/UopBytes == uint64(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
