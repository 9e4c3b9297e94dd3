package workload

import (
	"runaheadsim/internal/isa"
	"runaheadsim/internal/prog"
)

// Register allocation conventions shared by the kernel families.
const (
	rI    = isa.Reg(1)  // iteration counter
	rIdx  = isa.Reg(2)  // derived index
	rAddr = isa.Reg(3)  // effective address scratch
	rV    = isa.Reg(4)  // loaded value
	rAcc  = isa.Reg(5)  // accumulator (depends on loads)
	rMask = isa.Reg(6)  // footprint mask
	rBase = isa.Reg(7)  // data base
	rT    = isa.Reg(8)  // scratch
	rOff  = isa.Reg(9)  // streaming offset
	rLim  = isa.Reg(10) // streaming limit
	rB    = isa.Reg(11) // branch condition scratch
	// rF0..rF5 are filler chains; rBaseN+k are bases for multi-array kernels.
	rF0    = isa.Reg(24)
	rBaseN = isa.Reg(16)
)

// Pseudo-random index constants; arithmetic index generation keeps memory
// images small (untouched pages read as zero and are never cloned).
const (
	prime1 = 40503
	prime2 = 2654435761
)

// filler emits n "other operations" — the work traditional runahead wastes
// fetch bandwidth on (Figure 3). The ops rotate across six destination
// registers so they form six short independent chains: plenty of ILP, they
// never bound execution, and (seeded from rV) they are poisoned during
// runahead rather than slowing it down.
func filler(bb *prog.BlockBuilder, n int) {
	for k := 0; k < n; k++ {
		dst := rF0 + isa.Reg(k%6)
		switch k % 8 {
		case 0:
			bb.Op(isa.ADD, dst, dst, rV)
		case 3:
			bb.Op(isa.FADD, dst, dst, rAcc)
		case 6:
			bb.Op(isa.FMUL, dst, dst, rV)
		default:
			bb.OpI(isa.ADDI, dst, dst, int64(k*7+1))
		}
	}
}

// gather builds an indexed-load kernel: each iteration derives a
// pseudo-random slot from the induction variable through chainALU dependent
// ALU ops, loads from a large footprint (the miss), then burns fillerOps
// load-dependent operations. Iterations are independent, so the filtered
// chain is short and repetitive — runahead-buffer heaven (mcf, soplex) — or,
// with a long chainALU, just over the 32-uop cap (sphinx3). With variants,
// a hash-directed branch alternates between two differently-coded index
// chains, so cached chains frequently mismatch the ROB (Figure 13's sphinx).
// seqMix adds a prefetcher-friendly sequential operand stream (milc).
func gather(name string, footprint uint64, chainALU, fillerOps, seqMix int, variants bool) *prog.Program {
	b := prog.NewBuilder(name)
	const slotBytes = 2112 // 33 lines: non-power-of-two spreads DRAM rows
	slots := footprint / slotBytes
	mask := uint64(1)
	for mask*2 <= slots {
		mask *= 2
	}
	mask--
	data := b.Alloc(footprint, 64)
	var seq uint64
	if seqMix > 0 {
		seq = b.Alloc(16<<20, 64)
	}
	entry := b.Block("entry")
	loop := b.Block("loop")
	entry.Movi(rI, 0).
		Movi(rAcc, 0).
		Movi(rMask, int64(mask)).
		Movi(rBase, int64(data)).
		Movi(rOff, 0)
	if seqMix > 0 {
		entry.Emit(isa.Uop{Op: isa.MOVI, Dst: rBaseN, Imm: int64(seq)})
	}
	entry.Jmp(loop)

	emitChain := func(bb *prog.BlockBuilder, salt int64) {
		bb.OpI(isa.MULI, rIdx, rI, prime1+salt)
		for k := 0; k < chainALU; k++ {
			if k%2 == 0 {
				bb.OpI(isa.ADDI, rIdx, rIdx, int64(k*1023+7)+salt)
			} else {
				bb.OpI(isa.MULI, rIdx, rIdx, prime2|1)
			}
		}
	}

	var miss *prog.BlockBuilder
	if variants {
		// Layout: loop -> vara (fall-through) | alt (taken) -> miss.
		vara := b.Block("vara")
		alt := b.Block("alt")
		miss = b.Block("miss")
		loop.OpI(isa.MULI, rB, rI, prime2|1).
			OpI(isa.ANDI, rB, rB, 1<<16).
			Bnez(rB, alt)
		emitChain(vara, 0)
		vara.Jmp(miss)
		// The salt must be even so prime1+salt stays odd and the affine index
		// map i -> A*i+B keeps a full-period orbit over the slot mask.
		emitChain(alt, 16)
	} else {
		miss = loop
		emitChain(loop, 0)
	}
	miss.Op(isa.AND, rIdx, rIdx, rMask).
		OpI(isa.MULI, rAddr, rIdx, slotBytes).
		Add(rAddr, rAddr, rBase).
		Ld(rV, rAddr, 0). // the miss
		Add(rAcc, rAcc, rV)
	if seqMix > 0 {
		miss.Add(rT, rBaseN, rOff).
			Ld(rB, rT, 0).
			Op(isa.FADD, rAcc, rAcc, rB).
			Addi(rOff, rOff, 8).
			OpI(isa.ANDI, rOff, rOff, (16<<20)-1)
	}
	filler(miss, fillerOps)
	miss.Addi(rI, rI, 1).Jmp(loop)
	return b.MustBuild()
}

// stream builds a sequential multi-array sweep (libquantum, lbm, bwaves,
// leslie3d, GemsFDTD, wrf): one load per array per iteration, a line miss
// every eighth element, short induction-only chains, and ideal stream
// prefetcher behaviour. stores > 0 adds a store to the last array every
// iteration (lbm's write traffic).
func stream(name string, arrays int, footprint uint64, fillerOps, stores int) *prog.Program {
	b := prog.NewBuilder(name)
	per := (footprint / uint64(arrays)) &^ 4095
	bases := make([]uint64, arrays)
	for i := range bases {
		bases[i] = b.Alloc(per, 64)
	}
	entry := b.Block("entry")
	loop := b.Block("loop")
	entry.Movi(rOff, 0).Movi(rLim, int64(per)).Movi(rAcc, 0)
	for i := range bases {
		entry.Emit(isa.Uop{Op: isa.MOVI, Dst: rBaseN + isa.Reg(i), Imm: int64(bases[i])})
	}
	entry.Jmp(loop)
	for i := 0; i < arrays; i++ {
		loop.Add(rAddr, rBaseN+isa.Reg(i), rOff).
			Ld(rV, rAddr, 0).
			Op(isa.FADD, rAcc, rAcc, rV)
	}
	filler(loop, fillerOps)
	if stores > 0 {
		loop.Add(rAddr, rBaseN+isa.Reg(arrays-1), rOff).
			St(rAddr, 0, rAcc)
	}
	loop.Addi(rOff, rOff, 8).
		Blt(rOff, rLim, loop)
	wrap := b.Block("wrap")
	wrap.Movi(rOff, 0).Jmp(loop)
	return b.MustBuild()
}

// stencil builds a strided sweep: eight 8-byte elements are consumed within
// one line, then the walk jumps `stride` bytes (an odd multiple of the line
// size). The jump exceeds the stream prefetcher's tracking window, so
// prefetching cannot help but runahead can (zeusmp, cactusADM); the odd
// stride walks the whole power-of-two footprint before repeating, and the
// eight-element dwell keeps MPKI in the medium band while the loop body
// stays small enough for the ROB to hold several iterations (chain
// generation needs a second instance of the blocking PC).
func stencil(name string, footprint uint64, stride int64, arrays, fillerOps int) *prog.Program {
	b := prog.NewBuilder(name)
	per := uint64(1)
	for per*2 <= footprint/uint64(arrays) {
		per *= 2
	}
	bases := make([]uint64, arrays)
	for i := range bases {
		bases[i] = b.Alloc(per, 64)
	}
	const rSix = isa.Reg(20)
	entry := b.Block("entry")
	loop := b.Block("loop")
	entry.Movi(rOff, 0).Movi(rAcc, 0).Movi(rSix, 6)
	for i := range bases {
		entry.Emit(isa.Uop{Op: isa.MOVI, Dst: rBaseN + isa.Reg(i), Imm: int64(bases[i])})
	}
	entry.Jmp(loop)
	// The walk consumes 8-byte elements sequentially (rOff += 8) but the
	// line placement is shuffled by the odd stride: line = (rOff/64)*stride
	// masked to the footprint, element = rOff%64. Every address-chain op
	// recurs every iteration, so the filtered chain is complete and
	// self-advancing — one line jump per eight chain iterations.
	loop.Op(isa.SHR, rIdx, rOff, rSix).
		OpI(isa.MULI, rIdx, rIdx, stride).
		OpI(isa.ANDI, rIdx, rIdx, int64(per-1)&^63).
		OpI(isa.ANDI, rT, rOff, 56)
	for i := 0; i < arrays; i++ {
		loop.Add(rAddr, rBaseN+isa.Reg(i), rIdx).
			LdScaled(rV, rAddr, rT, 1, 0).
			Op(isa.FADD, rAcc, rAcc, rV)
	}
	filler(loop, fillerOps)
	loop.Addi(rOff, rOff, 8).Jmp(loop)
	return b.MustBuild()
}

// walk builds omnetpp's stand-in: each iteration reseeds an index from the
// induction variable and descends `levels` tree levels. Every level loads,
// folds the loaded value into the index (so the dependence chain threads
// through every load), and branches on a hash bit — the path, and therefore
// the chain, varies per iteration, chains run past 32 uops (Figure 5's 70),
// and the branches are hard to predict. Only the final level touches the
// large footprint, keeping MPKI in omnetpp's range.
func walk(name string, footprint uint64, levels int) *prog.Program {
	b := prog.NewBuilder(name)
	mask := uint64(1)
	for mask*2 <= footprint/64 {
		mask *= 2
	}
	mask--
	big := b.Alloc(footprint, 64)
	// The upper tree levels live in a region small enough to stay resident
	// even while runahead's own fills churn the LLC — otherwise runahead
	// poisons its own address chains and self-destructs.
	small := b.Alloc(24<<10, 64)
	smallMask := int64(24<<10 - 64)

	entry := b.Block("entry")
	entry.Movi(rI, 0).
		Movi(rAcc, 0).
		Movi(rMask, int64(mask)).
		Movi(rBase, int64(big)).
		Movi(rBaseN, int64(small))

	loop := b.Block("loop")
	entry.Jmp(loop)
	loop.OpI(isa.MULI, rIdx, rI, prime2|1).
		OpI(isa.ADDI, rIdx, rIdx, 12345)

	type lvl struct{ body, left, right *prog.BlockBuilder }
	lvls := make([]lvl, levels)
	for i := range lvls {
		lvls[i].body = b.Block("level")
		lvls[i].left = b.Block("left")
		lvls[i].right = b.Block("right")
	}
	tail := b.Block("tail")
	loop.Jmp(lvls[0].body)
	for i := range lvls {
		body, left, right := lvls[i].body, lvls[i].left, lvls[i].right
		if i < levels-1 {
			body.OpI(isa.MULI, rAddr, rIdx, 241).
				OpI(isa.ANDI, rAddr, rAddr, smallMask).
				OpI(isa.ANDI, rAddr, rAddr, ^int64(7)).
				Add(rAddr, rAddr, rBaseN).
				Ld(rV, rAddr, 0)
		} else {
			// Final level: the big footprint — the miss.
			body.OpI(isa.MULI, rAddr, rIdx, prime1).
				Op(isa.AND, rAddr, rAddr, rMask).
				OpI(isa.MULI, rAddr, rAddr, 64).
				Add(rAddr, rAddr, rBase).
				Ld(rV, rAddr, 0)
		}
		body.Op(isa.ADD, rT, rV, rIdx).
			OpI(isa.MULI, rT, rT, prime2|1).
			OpI(isa.ANDI, rB, rT, 1<<17).
			Bnez(rB, right)
		next := tail
		if i < levels-1 {
			next = lvls[i+1].body
		}
		// The index update folds in the loaded value: the miss chain threads
		// through every level's load.
		left.OpI(isa.MULI, rIdx, rIdx, 3).
			Op(isa.ADD, rIdx, rIdx, rV).
			OpI(isa.ADDI, rIdx, rIdx, 1).
			Jmp(next)
		right.OpI(isa.MULI, rIdx, rIdx, 5).
			Op(isa.ADD, rIdx, rIdx, rV).
			OpI(isa.ADDI, rIdx, rIdx, 7).
			Jmp(next)
	}
	tail.Add(rAcc, rAcc, rV).
		Addi(rI, rI, 1).
		Jmp(loop)
	return b.MustBuild()
}

// compute builds the low-intensity family: a small-footprint sweep (fits in
// the cache hierarchy) with a configurable ALU/FP mix and, optionally, a
// hash-directed hard-to-predict branch per iteration (gobmk, sjeng, astar).
func compute(name string, footprintKB int, alu, fp int, branchy bool) *prog.Program {
	b := prog.NewBuilder(name)
	size := uint64(footprintKB) << 10
	data := b.Alloc(size, 64)
	entry := b.Block("entry")
	loop := b.Block("loop")
	entry.Movi(rOff, 0).
		Movi(rAcc, 1).
		Movi(rBase, int64(data)).
		Movi(rI, 0).
		Movi(rT, 0).
		Jmp(loop)
	loop.Add(rAddr, rBase, rOff).
		Ld(rV, rAddr, 0)
	for k := 0; k < alu; k++ {
		switch k % 4 {
		case 0:
			loop.Add(rAcc, rAcc, rV)
		case 1:
			loop.OpI(isa.ADDI, rT, rAcc, 13)
		case 2:
			loop.Op(isa.XOR, rAcc, rAcc, rT)
		default:
			loop.OpI(isa.MULI, rT, rT, 3)
		}
	}
	for k := 0; k < fp; k++ {
		if k%2 == 0 {
			loop.Op(isa.FMUL, rB, rAcc, rV)
		} else {
			loop.Op(isa.FADD, rB, rB, rAcc)
		}
	}
	loop.St(rAddr, 0, rAcc).
		Addi(rOff, rOff, 8).
		OpI(isa.ANDI, rOff, rOff, int64(size-8)).
		Addi(rI, rI, 1)
	if branchy {
		taken := b.Block("taken")
		rest := b.Block("rest")
		loop.OpI(isa.MULI, rB, rI, prime2|1).
			OpI(isa.ANDI, rB, rB, 1<<13).
			Bnez(rB, rest)
		taken.OpI(isa.ADDI, rAcc, rAcc, 5)
		rest.Op(isa.XOR, rT, rT, rAcc).Jmp(loop)
	} else {
		loop.Jmp(loop)
	}
	return b.MustBuild()
}

// mcf's node list: 32K nodes, one per 192-byte stride.
const (
	mcfNodes      = 32768
	mcfNodeStride = 192
)

// chaseList is mcf's node list as a generated region based at base: the
// first word of node i points to node (i + 40503) mod mcfNodes, and every
// other word is zero.
type chaseList struct{ base uint64 }

// word is the list's generation rule.
//
//simlint:hotpath
func (l chaseList) word(addr uint64) int64 {
	off := addr - l.base
	if off%mcfNodeStride != 0 {
		return 0
	}
	next := (off/mcfNodeStride + 40503) & (mcfNodes - 1)
	return int64(l.base + next*mcfNodeStride)
}

// mcfKernel models mcf's mix: a short-chain independent gather (arc-array
// dereferencing — the part the runahead buffer thrives on) plus a serial
// pointer chase every eighth iteration (node-list walking — dependent
// misses, the part Figure 2 classifies as having off-chip source data).
func mcfKernel(name string, footprint uint64, chainALU, fillerOps int) *prog.Program {
	b := prog.NewBuilder(name)
	const slotBytes = 2112
	slots := footprint / slotBytes
	mask := uint64(1)
	for mask*2 <= slots {
		mask *= 2
	}
	mask--
	data := b.Alloc(footprint, 64)

	// Node list for the chase: 32K nodes on distinct lines spanning twice the
	// LLC, linked by an additive full-cycle permutation (odd step over a
	// power of two) so the walk touches every node before repeating and the
	// working set never becomes cache-resident. The list is a generated
	// region: each node's next pointer is computed from its address, so no
	// image stores the 6 MB.
	chaseBase := b.Alloc(mcfNodes*mcfNodeStride, 64)
	b.Mem().Generate(chaseBase, chaseBase+mcfNodes*mcfNodeStride, chaseList{chaseBase}.word)

	const rP = isa.Reg(12)
	entry := b.Block("entry")
	loop := b.Block("loop")
	chase := b.Block("chase")
	body := b.Block("body")
	entry.Movi(rI, 0).
		Movi(rAcc, 0).
		Movi(rMask, int64(mask)).
		Movi(rBase, int64(data)).
		Movi(rP, int64(chaseBase)).
		Jmp(loop)
	// Every eighth iteration also advances the serial node walk; the period-8
	// pattern is trivially predictable, so only the chase load's latency and
	// dependence matter. The cadence keeps the serial component a minority of
	// mcf's misses (Figure 2) without making the whole kernel chase-bound.
	loop.OpI(isa.ANDI, rB, rI, 7).
		Bnez(rB, body)
	chase.Ld(rP, rP, 0)
	body.OpI(isa.MULI, rIdx, rI, prime1)
	for k := 0; k < chainALU; k++ {
		if k%2 == 0 {
			body.OpI(isa.ADDI, rIdx, rIdx, int64(k*1023+7))
		} else {
			body.OpI(isa.MULI, rIdx, rIdx, prime2|1)
		}
	}
	body.Op(isa.AND, rIdx, rIdx, rMask).
		OpI(isa.MULI, rAddr, rIdx, slotBytes).
		Add(rAddr, rAddr, rBase).
		Ld(rV, rAddr, 0).
		Add(rAcc, rAcc, rV)
	filler(body, fillerOps)
	body.Addi(rI, rI, 1).Jmp(loop)
	return b.MustBuild()
}
