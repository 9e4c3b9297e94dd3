// Package prog models programs for the simulator: a basic-block control-flow
// graph of micro-ops with a fixed text-segment layout, a sparse 64-bit memory
// image, a builder DSL for constructing workloads, and a functional
// interpreter that defines the architectural semantics.
//
// The interpreter is the source of truth for uop semantics: the out-of-order
// core's execute stage calls the same Eval/EffAddr helpers, and the
// architectural-equivalence tests check that the pipeline commits exactly the
// state the interpreter produces.
package prog

import (
	"encoding/binary"
	"sort"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse, byte-addressable 64-bit memory image backed by 4KB
// pages. Reads of unmapped memory return zero; writes allocate pages on
// demand. It is not safe for concurrent use.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, alloc bool) *[pageSize]byte {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && alloc {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// ByteAt returns the byte at addr (zero if unmapped).
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Read64 returns the little-endian 64-bit value at addr. The access may span
// a page boundary.
func (m *Memory) Read64(addr uint64) int64 {
	if addr&pageMask <= pageSize-8 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		off := addr & pageMask
		return int64(binary.LittleEndian.Uint64(p[off : off+8]))
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.ByteAt(addr+i)) << (8 * i)
	}
	return int64(v)
}

// Write64 stores val at addr in little-endian order. The access may span a
// page boundary.
func (m *Memory) Write64(addr uint64, val int64) {
	v := uint64(val)
	if addr&pageMask <= pageSize-8 {
		p := m.page(addr, true)
		off := addr & pageMask
		for i := uint64(0); i < 8; i++ {
			p[off+i] = byte(v >> (8 * i))
		}
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.SetByte(addr+i, byte(v>>(8*i)))
	}
}

// pageNums returns the mapped page numbers in ascending order, so every
// traversal of the image is deterministic regardless of map layout.
func (m *Memory) pageNums() []uint64 {
	pns := make([]uint64, 0, len(m.pages))
	//simlint:allow determinism -- keys are sorted before use
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

// Clone returns a deep copy of the memory image.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for _, pn := range m.pageNums() {
		cp := new([pageSize]byte)
		*cp = *m.pages[pn]
		c.pages[pn] = cp
	}
	return c
}

// Pages returns the number of mapped pages.
func (m *Memory) Pages() int { return len(m.pages) }

// Equal reports whether the two images hold identical contents. Unmapped and
// all-zero pages are considered equal.
func (m *Memory) Equal(o *Memory) bool {
	return m.subsetOf(o) && o.subsetOf(m)
}

func (m *Memory) subsetOf(o *Memory) bool {
	for _, pn := range m.pageNums() {
		p := m.pages[pn]
		q := o.pages[pn]
		if q == nil {
			if *p != ([pageSize]byte{}) {
				return false
			}
			continue
		}
		if *p != *q {
			return false
		}
	}
	return true
}

// FirstDiff returns the lowest address at which the two images differ, for
// test diagnostics. ok is false when the images are equal. Pages are walked
// in ascending order, so the reported address is deterministic.
func (m *Memory) FirstDiff(o *Memory) (addr uint64, ok bool) {
	pns := append(m.pageNums(), o.pageNums()...)
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	var zero [pageSize]byte
	prev := ^uint64(0)
	for _, pn := range pns {
		if pn == prev {
			continue // page mapped in both images, already compared
		}
		prev = pn
		p, q := m.pages[pn], o.pages[pn]
		if p == nil {
			p = &zero
		}
		if q == nil {
			q = &zero
		}
		for i := 0; i < pageSize; i++ {
			if p[i] != q[i] {
				return pn<<pageShift | uint64(i), true
			}
		}
	}
	return 0, false
}
