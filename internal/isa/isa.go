// Package isa defines the micro-operation instruction set executed by the
// simulator: opcodes, architectural registers, the decoded micro-op (uop)
// format, and the address-space layout of programs.
//
// The ISA is deliberately RISC-like at the uop level — the paper's machine is
// an x86 core, but x86 instructions are cracked into uops before they reach
// the reorder buffer, and everything the runahead buffer does (Algorithm 1,
// the buffer itself) operates on decoded uops. Each uop has at most one
// destination register and two source registers plus an immediate, matching
// the ROB-entry fields the paper relies on (PC, destination register id,
// source register ids).
package isa

import "fmt"

// Reg is an architectural register identifier.
type Reg uint8

// NumArchRegs is the number of architectural integer registers. RegNone is a
// sentinel meaning "no register" and is not part of the architectural file.
const (
	NumArchRegs = 64
	// RegNone marks an absent operand (e.g. the destination of a store).
	RegNone Reg = 255
)

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumArchRegs }

// String implements fmt.Stringer.
func (r Reg) String() string {
	if r == RegNone {
		return "r-"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Opcode enumerates micro-operation kinds.
type Opcode uint8

// Micro-operation opcodes. Arithmetic operates on 64-bit integer values;
// "FP" opcodes reuse integer semantics but carry floating-point execution
// latencies (only dataflow and latency matter to the timing model — FP
// values essentially never feed address generation in the workloads).
const (
	NOP Opcode = iota

	// Integer ALU.
	ADD   // Dst = Src1 + Src2
	SUB   // Dst = Src1 - Src2
	AND   // Dst = Src1 & Src2
	OR    // Dst = Src1 | Src2
	XOR   // Dst = Src1 ^ Src2
	SHL   // Dst = Src1 << (Src2 & 63)
	SHR   // Dst = Src1 >> (Src2 & 63) (logical)
	MUL   // Dst = Src1 * Src2
	DIV   // Dst = Src1 / Src2 (0 if divisor 0)
	ADDI  // Dst = Src1 + Imm
	ANDI  // Dst = Src1 & Imm
	MULI  // Dst = Src1 * Imm
	MOV   // Dst = Src1
	MOVI  // Dst = Imm
	CMPLT // Dst = (Src1 < Src2) ? 1 : 0
	CMPEQ // Dst = (Src1 == Src2) ? 1 : 0

	// Floating-point (latency classes; integer semantics).
	FADD // Dst = Src1 + Src2
	FMUL // Dst = Src1 * Src2
	FDIV // Dst = Src1 / Src2 (0 if divisor 0)

	// Memory. For LD the effective address is Src1 + Imm, or
	// Src1 + Src2*Scale + Imm when Scaled. Stores always use EA = Src1 + Imm
	// because Src2 carries the store data.
	LD // Dst = Mem[EA]
	ST // Mem[Src1+Imm] = Src2

	// Control. Branches name a taken-target block; fall-through is the next
	// block in layout order. JMP is always taken.
	JMP  // unconditional
	BEQZ // taken if Src1 == 0
	BNEZ // taken if Src1 != 0
	BLT  // taken if Src1 < Src2
	BGE  // taken if Src1 >= Src2
	CALL // unconditional; pushes return address (next uop PC) on the RAS
	RET  // returns to Src1 (value holds return PC)

	numOpcodes
)

var opNames = [numOpcodes]string{
	NOP: "nop", ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SHL: "shl", SHR: "shr", MUL: "mul", DIV: "div", ADDI: "addi",
	ANDI: "andi", MULI: "muli", MOV: "mov", MOVI: "movi", CMPLT: "cmplt",
	CMPEQ: "cmpeq", FADD: "fadd", FMUL: "fmul", FDIV: "fdiv", LD: "ld",
	ST: "st", JMP: "jmp", BEQZ: "beqz", BNEZ: "bnez", BLT: "blt",
	BGE: "bge", CALL: "call", RET: "ret",
}

// String implements fmt.Stringer.
func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// IsBranch reports whether the opcode redirects control flow.
func (o Opcode) IsBranch() bool {
	switch o {
	case JMP, BEQZ, BNEZ, BLT, BGE, CALL, RET:
		return true
	}
	return false
}

// IsConditional reports whether the branch outcome depends on register values.
func (o Opcode) IsConditional() bool {
	switch o {
	case BEQZ, BNEZ, BLT, BGE:
		return true
	}
	return false
}

// IsLoad reports whether the opcode reads memory.
func (o Opcode) IsLoad() bool { return o == LD }

// IsStore reports whether the opcode writes memory.
func (o Opcode) IsStore() bool { return o == ST }

// IsMem reports whether the opcode accesses data memory.
func (o Opcode) IsMem() bool { return o == LD || o == ST }

// FUClass groups opcodes by the functional unit that executes them.
type FUClass uint8

// Functional unit classes.
const (
	FUNone   FUClass = iota // NOP
	FUALU                   // single-cycle integer
	FUMul                   // integer multiply
	FUDiv                   // integer divide
	FUFP                    // floating point add/mul
	FUFDiv                  // floating point divide
	FUAGU                   // address generation (loads/stores)
	FUBranch                // control
)

// FU returns the functional unit class for the opcode.
func (o Opcode) FU() FUClass {
	switch o {
	case NOP:
		return FUNone
	case MUL, MULI:
		return FUMul
	case DIV:
		return FUDiv
	case FADD, FMUL:
		return FUFP
	case FDIV:
		return FUFDiv
	case LD, ST:
		return FUAGU
	case JMP, BEQZ, BNEZ, BLT, BGE, CALL, RET:
		return FUBranch
	default:
		return FUALU
	}
}

// ExecLatency returns the execution latency in cycles for the opcode,
// excluding any cache access time for memory operations.
func (o Opcode) ExecLatency() int {
	switch o.FU() {
	case FUMul:
		return 3
	case FUDiv:
		return 24
	case FUFP:
		return 4
	case FUFDiv:
		return 20
	case FUAGU:
		return 1 // address generation; cache latency is added by the memory system
	default:
		return 1
	}
}

// BlockID identifies a basic block within a program.
type BlockID int32

// NoBlock is the absent-block sentinel.
const NoBlock BlockID = -1

// Uop is a decoded micro-operation. It is the static form: dynamic instances
// add runtime state in the core.
type Uop struct {
	Op   Opcode
	Dst  Reg // RegNone when the uop produces no register result
	Src1 Reg // RegNone when unused
	Src2 Reg // RegNone when unused; for ST this is the data register
	Imm  int64

	// Scaled selects the indexed addressing mode EA = Src1 + Src2*Scale + Imm
	// for memory uops. Scale must be a power of two.
	Scaled bool
	Scale  uint8

	// Target is the taken-path block for branches.
	Target BlockID
}

// HasDst reports whether the uop writes an architectural register.
func (u *Uop) HasDst() bool { return u.Dst != RegNone }

// String implements fmt.Stringer.
func (u *Uop) String() string {
	switch {
	case u.Op == MOVI:
		return fmt.Sprintf("%s %s <- #%d", u.Op, u.Dst, u.Imm)
	case u.Op.IsLoad():
		if u.Scaled {
			return fmt.Sprintf("ld %s <- [%s+%s*%d+%d]", u.Dst, u.Src1, u.Src2, u.Scale, u.Imm)
		}
		return fmt.Sprintf("ld %s <- [%s+%d]", u.Dst, u.Src1, u.Imm)
	case u.Op.IsStore():
		return fmt.Sprintf("st [%s+%d] <- %s", u.Src1, u.Imm, u.Src2)
	case u.Op.IsBranch():
		return fmt.Sprintf("%s %s,%s -> B%d", u.Op, u.Src1, u.Src2, u.Target)
	default:
		return fmt.Sprintf("%s %s <- %s,%s #%d", u.Op, u.Dst, u.Src1, u.Src2, u.Imm)
	}
}

// Address-space layout. Program text is laid out at TextBase with a fixed
// UopBytes per uop (uops are stored decoded; 8 bytes matches the paper's
// "micro-op size: 8 bytes"). Data segments for workloads begin at DataBase.
const (
	TextBase = uint64(0x0000_0000_0040_0000)
	UopBytes = 8
	DataBase = uint64(0x0000_0000_1000_0000)
	// StackBase is a conventional location for spill/fill traffic.
	StackBase = uint64(0x0000_0000_7fff_0000)
)
