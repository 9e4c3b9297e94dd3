package prog

import (
	"fmt"

	"runaheadsim/internal/isa"
)

// Builder assembles a Program from basic blocks. Blocks are laid out in
// creation order; fall-through goes to the next block created.
type Builder struct {
	name     string
	blocks   []*BlockBuilder
	mem      *Memory
	nextData uint64
}

// NewBuilder returns an empty builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, mem: NewMemory(), nextData: isa.DataBase}
}

// Block creates the next basic block in layout order.
func (b *Builder) Block(label string) *BlockBuilder {
	bb := &BlockBuilder{id: isa.BlockID(len(b.blocks)), label: label}
	b.blocks = append(b.blocks, bb)
	return bb
}

// Alloc reserves size bytes of data memory aligned to align (a power of two)
// and returns the base address.
func (b *Builder) Alloc(size, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	base := (b.nextData + align - 1) &^ (align - 1)
	b.nextData = base + size
	return base
}

// Mem exposes the initial memory image so workloads can seed data structures
// (linked lists, index arrays, ...), written word by word or, when a
// structure is a pure function of its address, as a generated region
// (Memory.Generate) that no image stores.
func (b *Builder) Mem() *Memory { return b.mem }

// Build lays out the blocks and validates the program.
func (b *Builder) Build() (*Program, error) {
	// Init is a Clone, so it owns no pages, shares the generated region, and
	// is frozen from here on.
	p := &Program{Name: b.name, Init: b.mem.Clone()}
	for _, bb := range b.blocks {
		p.BlockStart = append(p.BlockStart, len(p.Uops))
		if len(bb.uops) == 0 {
			return nil, fmt.Errorf("prog: block %q is empty", bb.label)
		}
		for _, u := range bb.uops {
			p.Uops = append(p.Uops, u)
			p.BlockOf = append(p.BlockOf, bb.id)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build, panicking on error. Workload construction errors are
// programming bugs, not runtime conditions.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// BlockBuilder accumulates the uops of one basic block.
type BlockBuilder struct {
	id    isa.BlockID
	label string
	uops  []isa.Uop
}

// ID returns the block's identifier.
func (bb *BlockBuilder) ID() isa.BlockID { return bb.id }

// Emit appends an arbitrary uop.
func (bb *BlockBuilder) Emit(u isa.Uop) *BlockBuilder {
	bb.uops = append(bb.uops, u)
	return bb
}

// Op emits a three-operand ALU uop.
func (bb *BlockBuilder) Op(op isa.Opcode, dst, s1, s2 isa.Reg) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: op, Dst: dst, Src1: s1, Src2: s2})
}

// OpI emits a register-immediate ALU uop.
func (bb *BlockBuilder) OpI(op isa.Opcode, dst, s1 isa.Reg, imm int64) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: op, Dst: dst, Src1: s1, Src2: isa.RegNone, Imm: imm})
}

// Movi emits dst <- imm.
func (bb *BlockBuilder) Movi(dst isa.Reg, imm int64) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.MOVI, Dst: dst, Src1: isa.RegNone, Src2: isa.RegNone, Imm: imm})
}

// Mov emits dst <- src.
func (bb *BlockBuilder) Mov(dst, src isa.Reg) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.MOV, Dst: dst, Src1: src, Src2: isa.RegNone})
}

// Addi emits dst <- src + imm.
func (bb *BlockBuilder) Addi(dst, src isa.Reg, imm int64) *BlockBuilder {
	return bb.OpI(isa.ADDI, dst, src, imm)
}

// Add emits dst <- s1 + s2.
func (bb *BlockBuilder) Add(dst, s1, s2 isa.Reg) *BlockBuilder {
	return bb.Op(isa.ADD, dst, s1, s2)
}

// Ld emits dst <- Mem[base+imm].
func (bb *BlockBuilder) Ld(dst, base isa.Reg, imm int64) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.LD, Dst: dst, Src1: base, Src2: isa.RegNone, Imm: imm})
}

// LdScaled emits dst <- Mem[base + idx*scale + imm].
func (bb *BlockBuilder) LdScaled(dst, base, idx isa.Reg, scale uint8, imm int64) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.LD, Dst: dst, Src1: base, Src2: idx, Imm: imm, Scaled: true, Scale: scale})
}

// St emits Mem[base+imm] <- data.
func (bb *BlockBuilder) St(base isa.Reg, imm int64, data isa.Reg) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.ST, Dst: isa.RegNone, Src1: base, Src2: data, Imm: imm})
}

// Nop emits n no-ops.
func (bb *BlockBuilder) Nop(n int) *BlockBuilder {
	for i := 0; i < n; i++ {
		bb.Emit(isa.Uop{Op: isa.NOP, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
	}
	return bb
}

// Jmp emits an unconditional branch to target.
func (bb *BlockBuilder) Jmp(target *BlockBuilder) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.JMP, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Target: target.id})
}

// Beqz emits a branch to target taken when src == 0.
func (bb *BlockBuilder) Beqz(src isa.Reg, target *BlockBuilder) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.BEQZ, Dst: isa.RegNone, Src1: src, Src2: isa.RegNone, Target: target.id})
}

// Bnez emits a branch to target taken when src != 0.
func (bb *BlockBuilder) Bnez(src isa.Reg, target *BlockBuilder) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.BNEZ, Dst: isa.RegNone, Src1: src, Src2: isa.RegNone, Target: target.id})
}

// Blt emits a branch to target taken when s1 < s2.
func (bb *BlockBuilder) Blt(s1, s2 isa.Reg, target *BlockBuilder) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.BLT, Dst: isa.RegNone, Src1: s1, Src2: s2, Target: target.id})
}

// Bge emits a branch to target taken when s1 >= s2.
func (bb *BlockBuilder) Bge(s1, s2 isa.Reg, target *BlockBuilder) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.BGE, Dst: isa.RegNone, Src1: s1, Src2: s2, Target: target.id})
}

// Call emits a call to target, writing the return address to link.
func (bb *BlockBuilder) Call(target *BlockBuilder, link isa.Reg) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.CALL, Dst: link, Src1: isa.RegNone, Src2: isa.RegNone, Target: target.id})
}

// Ret emits a return to the address held in src.
func (bb *BlockBuilder) Ret(src isa.Reg) *BlockBuilder {
	return bb.Emit(isa.Uop{Op: isa.RET, Dst: isa.RegNone, Src1: src, Src2: isa.RegNone, Target: isa.NoBlock})
}
