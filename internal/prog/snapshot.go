package prog

import (
	"fmt"

	"runaheadsim/internal/isa"
	"runaheadsim/internal/snapshot"
)

// SnapshotTo serializes the memory image as a counted list of (page number,
// raw page) pairs in ascending page order. Generated pages are written as
// the content their rule gives, exactly as if they were mapped. All-zero
// pages are skipped: reads of unmapped memory return zero, so dropping them
// is semantics-preserving and keeps checkpoints proportional to the touched
// footprint.
func (m *Memory) SnapshotTo(w *snapshot.Writer) error {
	w.Mark("mem")
	var zero, buf [pageSize]byte
	pns := m.pageNums()
	live := pns[:0]
	for _, pn := range pns {
		if *m.pageAt(pn, &buf) != zero {
			live = append(live, pn)
		}
	}
	w.Int(len(live))
	for _, pn := range live {
		w.U64(pn)
		w.Raw(m.pageAt(pn, &buf)[:])
	}
	return nil
}

// RestoreFrom replaces m's contents with the snapshotted image; m owns every
// restored page and has no generated region. The page count comes from the
// input, so Reader.Count bounds it by what the payload can hold before it
// sizes the page table. Page numbers must ascend, as SnapshotTo writes them.
func (m *Memory) RestoreFrom(r *snapshot.Reader) error {
	r.Expect("mem")
	n := r.Count("page", 8+pageSize)
	if r.Err() != nil {
		return r.Err()
	}
	m.id, m.owned, m.gen = memIDs.Add(1), 0, nil
	var prev uint64
	m.pages = make(map[uint64]pageRef, n)
	for i := 0; i < n; i++ {
		pn := r.U64()
		raw := r.Raw(pageSize)
		if r.Err() != nil {
			return r.Err()
		}
		if i > 0 && pn <= prev {
			return fmt.Errorf("mem: page %#x follows page %#x", pn, prev)
		}
		prev = pn
		p := new([pageSize]byte)
		copy(p[:], raw)
		m.pages[pn] = pageRef{data: p, owner: m.id}
		m.owned++
	}
	return r.Err()
}

// TextDigest returns an FNV digest over the program's name and uop sequence.
// A snapshot embeds it so a checkpoint cannot be restored against a different
// program (or a differently-built variant of the same benchmark). The initial
// data image is deliberately excluded: Init is derived deterministically from
// Name by the workload builder, and the snapshot carries the live memory
// image anyway.
func (p *Program) TextDigest() uint64 {
	w := &snapshot.Writer{}
	w.Str(p.Name)
	w.Int(len(p.Uops))
	for i := range p.Uops {
		w.Str(fmt.Sprintf("%+v", p.Uops[i]))
	}
	return snapshot.HashBytes(w.Bytes())
}

// ArchState is a pure architectural checkpoint: the committed memory image,
// register file, and program position. It contains no microarchitectural
// state, so it can seed a cold detailed core (core.NewFromArch) or a fresh
// interpreter (NewInterpAt). Both write the image they are given, so a
// checkpoint seeds them with a Clone of Mem and stays reusable.
type ArchState struct {
	Mem   *Memory
	Regs  [isa.NumArchRegs]int64
	Index int    // static uop index of the next uop to execute
	Count uint64 // uops executed so far
}

// ArchState captures the interpreter's architectural state. The memory image
// is a copy-on-write Clone that owns no pages: it stays valid as the
// interpreter runs on, costs only the pages written since the previous
// checkpoint, and any number of goroutines may Clone it at once.
func (in *Interp) ArchState() ArchState {
	return ArchState{Mem: in.Mem.Clone(), Regs: in.Regs, Index: in.pc, Count: in.count}
}

// NewInterpAt returns an interpreter positioned at the checkpoint. The
// interpreter writes st.Mem itself; a caller that keeps the checkpoint, or
// shares it between goroutines, passes a Clone of st.Mem instead.
func NewInterpAt(p *Program, st ArchState) *Interp {
	return &Interp{P: p, Mem: st.Mem, Regs: st.Regs, pc: st.Index, count: st.Count}
}
