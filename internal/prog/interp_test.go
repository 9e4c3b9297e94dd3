package prog

import (
	"slices"
	"testing"

	"runaheadsim/internal/isa"
)

// sumProgram builds: for i in 0..n-1 { sum += a[i] }; then spins.
func sumProgram(t *testing.T, n int64) (*Program, uint64) {
	t.Helper()
	b := NewBuilder("sum")
	arr := b.Alloc(uint64(n)*8, 64)
	for i := int64(0); i < n; i++ {
		b.Mem().Write64(arr+uint64(i)*8, i+1)
	}
	const (
		rI, rN, rSum, rAddr, rV, rDone = 1, 2, 3, 4, 5, 6
	)
	entry := b.Block("entry")
	loop := b.Block("loop")
	done := b.Block("done")

	entry.Movi(rI, 0).Movi(rN, n).Movi(rSum, 0).Movi(rAddr, int64(arr)).Jmp(loop)
	loop.LdScaled(rV, rAddr, rI, 8, 0).
		Add(rSum, rSum, rV).
		Addi(rI, rI, 1).
		Blt(rI, rN, loop)
	resultSlot := b.Alloc(8, 8)
	done.Movi(rDone, int64(resultSlot)).
		St(rDone, 0, rSum).
		Jmp(done)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, resultSlot
}

func TestInterpSumLoop(t *testing.T) {
	p, slot := sumProgram(t, 10)
	in := NewInterp(p)
	in.Run(5 + 10*4 + 3 + 10) // entry + loop iters + store + slack spinning
	if got := in.Mem.Read64(slot); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
	if got := in.Regs[3]; got != 55 {
		t.Fatalf("rSum = %d, want 55", got)
	}
}

func TestInterpBranchOutcomes(t *testing.T) {
	b := NewBuilder("branches")
	e := b.Block("e")
	tgt := b.Block("tgt")
	e.Movi(1, 0).Beqz(1, tgt) // taken
	tgt.Movi(2, 5).Bnez(2, tgt)
	p := b.MustBuild()
	in := NewInterp(p)
	in.Step() // movi
	e2 := in.Step()
	if !e2.Taken {
		t.Fatal("beqz of zero should be taken")
	}
	if e2.NextPC != p.BlockAddr(tgt.ID()) {
		t.Fatalf("taken branch NextPC = %#x, want block start %#x", e2.NextPC, p.BlockAddr(tgt.ID()))
	}
	in.Step() // movi 5
	e4 := in.Step()
	if !e4.Taken {
		t.Fatal("bnez of 5 should be taken")
	}
}

func TestInterpNotTakenFallsThrough(t *testing.T) {
	b := NewBuilder("ft")
	e := b.Block("e")
	next := b.Block("next")
	e.Movi(1, 7).Beqz(1, next) // not taken: falls through to next anyway (layout)
	next.Movi(2, 1).Jmp(next)
	p := b.MustBuild()
	in := NewInterp(p)
	in.Step()
	ex := in.Step()
	if ex.Taken {
		t.Fatal("beqz of 7 must not be taken")
	}
	if ex.NextPC != ex.PC+isa.UopBytes {
		t.Fatalf("fall-through NextPC = %#x, want %#x", ex.NextPC, ex.PC+isa.UopBytes)
	}
}

func TestInterpCallRet(t *testing.T) {
	b := NewBuilder("callret")
	const rLink, rA = 10, 11
	main := b.Block("main")
	after := b.Block("after")
	fn := b.Block("fn")
	main.Call(fn, rLink)
	after.Addi(rA, rA, 100).Jmp(after)
	fn.Movi(rA, 1).Ret(rLink)
	p := b.MustBuild()
	in := NewInterp(p)
	ex := in.Step() // call
	if !ex.Taken || ex.NextPC != p.BlockAddr(fn.ID()) {
		t.Fatalf("call should jump to fn, got next %#x", ex.NextPC)
	}
	in.Step() // movi in fn
	ret := in.Step()
	if ret.NextPC != p.BlockAddr(after.ID()) {
		t.Fatalf("ret should return to after-block, got %#x", ret.NextPC)
	}
	in.Step()
	if in.Regs[rA] != 101 {
		t.Fatalf("rA = %d, want 101", in.Regs[rA])
	}
}

func TestInterpStoreLoadForward(t *testing.T) {
	b := NewBuilder("sl")
	slot := b.Alloc(8, 8)
	e := b.Block("e")
	e.Movi(1, int64(slot)).Movi(2, 99).St(1, 0, 2).Ld(3, 1, 0).Jmp(e)
	p := b.MustBuild()
	in := NewInterp(p)
	in.Run(4)
	if in.Regs[3] != 99 {
		t.Fatalf("load after store = %d, want 99", in.Regs[3])
	}
}

func TestInterpALUSemantics(t *testing.T) {
	cases := []struct {
		op       isa.Opcode
		s1, s2   int64
		imm      int64
		expected int64
	}{
		{isa.ADD, 3, 4, 0, 7},
		{isa.SUB, 3, 4, 0, -1},
		{isa.AND, 0b1100, 0b1010, 0, 0b1000},
		{isa.OR, 0b1100, 0b1010, 0, 0b1110},
		{isa.XOR, 0b1100, 0b1010, 0, 0b0110},
		{isa.SHL, 1, 4, 0, 16},
		{isa.SHL, 1, 64, 0, 1}, // shift masked to 0
		{isa.SHR, -1, 60, 0, 15},
		{isa.MUL, 6, 7, 0, 42},
		{isa.DIV, 42, 7, 0, 6},
		{isa.DIV, 42, 0, 0, 0}, // divide by zero yields 0
		{isa.ADDI, 5, 0, -3, 2},
		{isa.ANDI, 0xff, 0, 0x0f, 0x0f},
		{isa.MULI, 5, 0, 3, 15},
		{isa.MOV, 9, 0, 0, 9},
		{isa.MOVI, 0, 0, 123, 123},
		{isa.CMPLT, 1, 2, 0, 1},
		{isa.CMPLT, 2, 1, 0, 0},
		{isa.CMPEQ, 4, 4, 0, 1},
		{isa.CMPEQ, 4, 5, 0, 0},
		{isa.FADD, 2, 3, 0, 5},
		{isa.FMUL, 2, 3, 0, 6},
		{isa.FDIV, 6, 0, 0, 0},
	}
	for _, c := range cases {
		u := isa.Uop{Op: c.op, Imm: c.imm}
		if got := Eval(&u, c.s1, c.s2); got != c.expected {
			t.Errorf("%v(%d,%d,imm=%d) = %d, want %d", c.op, c.s1, c.s2, c.imm, got, c.expected)
		}
	}
}

func TestEffAddr(t *testing.T) {
	u := isa.Uop{Op: isa.LD, Imm: 16}
	if got := EffAddr(&u, 0x1000, 0); got != 0x1010 {
		t.Fatalf("EA = %#x", got)
	}
	us := isa.Uop{Op: isa.LD, Imm: 8, Scaled: true, Scale: 8}
	if got := EffAddr(&us, 0x1000, 3); got != 0x1000+24+8 {
		t.Fatalf("scaled EA = %#x", got)
	}
	// Stores ignore scaling (Src2 is data).
	st := isa.Uop{Op: isa.ST, Imm: 8, Scaled: true, Scale: 8}
	if got := EffAddr(&st, 0x1000, 3); got != 0x1008 {
		t.Fatalf("store EA = %#x", got)
	}
}

func TestBranchTakenSemantics(t *testing.T) {
	check := func(op isa.Opcode, s1, s2 int64, want bool) {
		u := isa.Uop{Op: op}
		if got := BranchTaken(&u, s1, s2); got != want {
			t.Errorf("%v(%d,%d) = %v, want %v", op, s1, s2, got, want)
		}
	}
	check(isa.JMP, 0, 0, true)
	check(isa.CALL, 0, 0, true)
	check(isa.RET, 0, 0, true)
	check(isa.BEQZ, 0, 0, true)
	check(isa.BEQZ, 1, 0, false)
	check(isa.BNEZ, 1, 0, true)
	check(isa.BNEZ, 0, 0, false)
	check(isa.BLT, -1, 0, true)
	check(isa.BLT, 0, 0, false)
	check(isa.BGE, 0, 0, true)
	check(isa.BGE, -1, 0, false)
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder("bad")
	b.Block("empty")
	if _, err := b.Build(); err == nil {
		t.Fatal("empty block must fail validation")
	}

	b2 := NewBuilder("fallsoff")
	b2.Block("only").Movi(1, 1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("program ending in a non-branch must fail validation")
	}
}

func TestBuilderAllocAlignment(t *testing.T) {
	b := NewBuilder("alloc")
	a1 := b.Alloc(10, 64)
	a2 := b.Alloc(8, 64)
	if a1%64 != 0 || a2%64 != 0 {
		t.Fatalf("allocations not aligned: %#x %#x", a1, a2)
	}
	if a2 < a1+10 {
		t.Fatal("allocations overlap")
	}
	if a1 < isa.DataBase {
		t.Fatal("allocation below the data base")
	}
}

func TestProgramAddrIndexRoundTrip(t *testing.T) {
	p, _ := sumProgram(t, 4)
	for i := range p.Uops {
		if got := p.IndexOf(p.AddrOf(i)); got != i {
			t.Fatalf("IndexOf(AddrOf(%d)) = %d", i, got)
		}
	}
	if p.IndexOf(isa.TextBase-8) != -1 {
		t.Fatal("address below text must be invalid")
	}
	if p.IndexOf(isa.TextBase+1) != -1 {
		t.Fatal("misaligned address must be invalid")
	}
	if p.IndexOf(p.AddrOf(len(p.Uops))) != -1 {
		t.Fatal("address past text must be invalid")
	}
}

func TestInterpDeterminism(t *testing.T) {
	p, _ := sumProgram(t, 16)
	a, b := NewInterp(p), NewInterp(p)
	a.Run(200)
	b.Run(200)
	if a.Regs != b.Regs {
		t.Fatal("two interpreter runs diverged")
	}
	if !a.Mem.Equal(b.Mem) {
		t.Fatal("two interpreter runs produced different memory")
	}
}

// TestRunObserver checks the one run loop: with or without an observer, and
// in one call or several, Run leaves the interpreter exactly where stepping
// does (registers, memory, position), and an observer sees every executed
// uop, in order, with its static uop and the effects Step reports.
func TestRunObserver(t *testing.T) {
	const n = 300
	p, _ := sumProgram(t, 16)
	ref := NewInterp(p)
	want := make([]Exec, n)
	for i := range want {
		want[i] = ref.Step()
	}
	for _, tc := range []struct {
		name    string
		observe bool
		chunks  uint64
	}{
		{"plain", false, 1},
		{"observed", true, 1},
		{"observed in chunks", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := NewInterp(p)
			var seen []Exec
			if tc.observe {
				in.Observe = func(u *isa.Uop, e Exec) {
					if u != &p.Uops[e.Index] {
						t.Fatalf("uop %d: observer got static uop %p, want %p", len(seen), u, &p.Uops[e.Index])
					}
					seen = append(seen, e)
				}
			}
			for i := uint64(0); i < tc.chunks; i++ {
				in.Run(n / tc.chunks)
			}
			if in.Regs != ref.Regs || !in.Mem.Equal(ref.Mem) {
				t.Fatal("Run diverged from stepping in registers or memory")
			}
			if in.pc != ref.pc || in.count != ref.count {
				t.Fatalf("Run position (%d, %d) != stepped position (%d, %d)", in.pc, in.count, ref.pc, ref.count)
			}
			if tc.observe && !slices.Equal(seen, want) {
				t.Fatalf("observer saw %d uops that differ from the %d stepped", len(seen), len(want))
			}
		})
	}
}

// TestRunBBVMatchesRun checks that collecting a basic-block vector through
// the observer is architecturally transparent and attributes every executed
// uop to exactly one block.
func TestRunBBVMatchesRun(t *testing.T) {
	p, _ := sumProgram(t, 16)
	plain, bbv := NewInterp(p), NewInterp(p)
	plain.Run(300)
	counts := make([]uint64, p.NumBlocks())
	bbv.Observe = func(_ *isa.Uop, e Exec) { counts[p.BlockOf[e.Index]]++ }
	bbv.Run(300)
	if plain.Regs != bbv.Regs {
		t.Fatal("BBV collection diverged from Run in registers")
	}
	if !plain.Mem.Equal(bbv.Mem) {
		t.Fatal("BBV collection diverged from Run in memory")
	}
	if plain.pc != bbv.pc || plain.count != bbv.count {
		t.Fatalf("BBV position (%d, %d) != Run position (%d, %d)", bbv.pc, bbv.count, plain.pc, plain.count)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != 300 {
		t.Fatalf("BBV counts sum to %d, want 300 (every uop attributed exactly once)", total)
	}
}

// TestRunProfileMatchesRun checks that an instruction-mix profile taken
// through the observer is architecturally transparent and agrees with an
// independent per-step classification.
func TestRunProfileMatchesRun(t *testing.T) {
	const n = 200
	p, _ := sumProgram(t, 10)
	type mix struct{ uops, loads, stores, branches, cond, taken uint64 }
	tally := func(m *mix, u *isa.Uop, e Exec) {
		m.uops++
		switch {
		case u.Op.IsLoad():
			m.loads++
		case u.Op.IsStore():
			m.stores++
		case u.Op.IsBranch():
			m.branches++
			if u.Op.IsConditional() {
				m.cond++
			}
			if e.Taken {
				m.taken++
			}
		}
	}

	ref := NewInterp(p)
	ref.Run(n)

	in := NewInterp(p)
	var got mix
	in.Observe = func(u *isa.Uop, e Exec) { tally(&got, u, e) }
	in.Run(n)
	if in.pc != ref.pc || in.count != ref.count || in.Regs != ref.Regs || !in.Mem.Equal(ref.Mem) {
		t.Fatalf("profiled Run diverged from Run: pc %d vs %d, count %d vs %d",
			in.pc, ref.pc, in.count, ref.count)
	}

	// Recount by stepping a third interpreter with no observer.
	chk := NewInterp(p)
	var want mix
	for i := 0; i < n; i++ {
		u := &p.Uops[chk.pc]
		tally(&want, u, chk.Step())
	}
	if got != want {
		t.Fatalf("observed mix %+v, want %+v", got, want)
	}
	if got.loads == 0 || got.branches == 0 || got.stores == 0 {
		t.Fatalf("sum program should exercise loads, stores and branches: %+v", got)
	}
}
