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
	"fmt"
	"maps"
	"sort"
	"sync/atomic"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse, byte-addressable 64-bit memory image backed by 4KB
// pages. Reads of unmapped memory return zero, except inside the image's
// generated region (see Generate), whose unmapped pages read as the region's
// rule computes them; writes allocate pages on demand, filled from the rule
// when the page lies in the generated region.
//
// Images are copy-on-write at page granularity. Each map entry records the
// ownership stamp of the image that last wrote the page, and an image writes
// in place only to pages stamped with its own id. A page stamped otherwise
// may be shared with other images, so the first write copies it. Clone
// copies the page table and gives up the source's ownership, so both sides
// copy on their next write. An image is not safe for concurrent use, except
// that an image owning no pages is only read by Clone (see Clone).
type Memory struct {
	pages map[uint64]pageRef
	id    uint64     // ownership stamp of the pages this image may write in place
	owned int        // pages stamped with id
	gen   *genRegion // generated region, nil when none; snapshotted as pages
}

// genRegion is a generated data region: an immutable rule giving the 64-bit
// word at every 8-byte-aligned address in [lo, hi). Clones share it.
type genRegion struct {
	lo, hi     uint64 // byte range, 8-byte aligned
	loPN, hiPN uint64 // page range [loPN, hiPN) that the region touches
	word       func(addr uint64) int64
}

// covers reports whether page pn lies in the region's page range. A nil
// region covers nothing.
func (g *genRegion) covers(pn uint64) bool {
	return g != nil && pn >= g.loPN && pn < g.hiPN
}

// wordAt returns the generated word at the 8-byte-aligned addr: the rule's
// value inside [lo, hi), zero outside it.
func (g *genRegion) wordAt(addr uint64) uint64 {
	if addr < g.lo || addr >= g.hi {
		return 0
	}
	return uint64(g.word(addr))
}

// read64 returns the little-endian 64-bit value at addr, which must not
// cross out of a covered page.
func (g *genRegion) read64(addr uint64) int64 {
	sh := (addr & 7) * 8
	v := g.wordAt(addr&^7) >> sh
	if sh != 0 {
		v |= g.wordAt(addr&^7+8) << (64 - sh)
	}
	return int64(v)
}

// fill writes the generated content of page pn into p.
func (g *genRegion) fill(p *[pageSize]byte, pn uint64) {
	for off := uint64(0); off < pageSize; off += 8 {
		binary.LittleEndian.PutUint64(p[off:off+8], g.wordAt(pn<<pageShift|off))
	}
}

// pageRef is one mapped page and the stamp of the image that owns it.
type pageRef struct {
	data  *[pageSize]byte
	owner uint64
}

// memIDs hands out ownership stamps. Stamps start at 1, so an unmapped
// page's zero pageRef is never owned.
var memIDs atomic.Uint64

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]pageRef), id: memIDs.Add(1)}
}

// Generate installs the image's generated region: every unmapped page that
// [lo, hi) touches reads as word(addr) at each 8-byte-aligned addr in
// [lo, hi) and zero elsewhere, and is filled from the rule before its first
// write. Pages already mapped in the range keep their contents. lo and hi
// must be 8-byte aligned with lo < hi, and an image takes one region only.
//
// word must be pure and allocation-free: frozen images (Program.Init,
// ArchState checkpoints) share it and are read from many goroutines at once.
func (m *Memory) Generate(lo, hi uint64, word func(addr uint64) int64) {
	if m.gen != nil {
		panic("prog: image already has a generated region")
	}
	if lo&7 != 0 || hi&7 != 0 || lo >= hi {
		panic(fmt.Sprintf("prog: bad generated region [%#x, %#x)", lo, hi))
	}
	m.gen = &genRegion{lo: lo, hi: hi, loPN: lo >> pageShift, hiPN: (hi-1)>>pageShift + 1, word: word}
}

// page returns the page holding addr for reading, nil when unmapped.
func (m *Memory) page(addr uint64) *[pageSize]byte {
	return m.pages[addr>>pageShift].data
}

// pageAt returns the contents of page pn: the mapped page, else the
// generated content written into buf, else nil.
func (m *Memory) pageAt(pn uint64, buf *[pageSize]byte) *[pageSize]byte {
	if p := m.pages[pn].data; p != nil {
		return p
	}
	if m.gen.covers(pn) {
		m.gen.fill(buf, pn)
		return buf
	}
	return nil
}

// writable returns the page holding addr for writing: allocated when
// unmapped (filled from the generated region when it covers the page),
// copied first when this image does not own it.
func (m *Memory) writable(addr uint64) *[pageSize]byte {
	pn := addr >> pageShift
	ref := m.pages[pn]
	if ref.owner == m.id {
		return ref.data
	}
	p := new([pageSize]byte)
	if ref.data != nil {
		*p = *ref.data
	} else if m.gen.covers(pn) {
		m.gen.fill(p, pn)
	}
	m.pages[pn] = pageRef{data: p, owner: m.id}
	m.owned++
	return p
}

// ByteAt returns the byte at addr (zero if unmapped and not generated).
//
//simlint:hotpath
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.page(addr)
	if p == nil {
		if m.gen.covers(addr >> pageShift) {
			return byte(m.gen.wordAt(addr&^7) >> ((addr & 7) * 8))
		}
		return 0
	}
	return p[addr&pageMask]
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint64, b byte) {
	m.writable(addr)[addr&pageMask] = b
}

// Read64 returns the little-endian 64-bit value at addr. The access may span
// a page boundary.
//
//simlint:hotpath
func (m *Memory) Read64(addr uint64) int64 {
	if addr&pageMask <= pageSize-8 {
		p := m.page(addr)
		if p == nil {
			if m.gen.covers(addr >> pageShift) {
				return m.gen.read64(addr)
			}
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
		p := m.writable(addr)
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

// pageNums returns the numbers of the mapped pages and of the generated
// region's unmapped pages in ascending order, so every traversal of the
// image is deterministic regardless of map layout. pageAt gives each one's
// contents.
func (m *Memory) pageNums() []uint64 {
	pns := make([]uint64, 0, len(m.pages))
	//simlint:allow determinism -- keys are sorted before use
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	if g := m.gen; g != nil {
		for pn := g.loPN; pn < g.hiPN; pn++ {
			if m.pages[pn].data == nil {
				pns = append(pns, pn)
			}
		}
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

// Clone returns a copy of the image that shares every page, and the
// generated region, with m. m gives up ownership of its pages, so each side
// copies a page the first time it writes to it, and the next Clone of m
// costs only the pages written in between. Cloning an image that owns no
// pages only reads it, so any number of goroutines may Clone such an image
// at once: a checkpoint (ArchState), or a Program's Init.
func (m *Memory) Clone() *Memory {
	if m.owned > 0 {
		m.id, m.owned = memIDs.Add(1), 0
	}
	return &Memory{pages: maps.Clone(m.pages), id: memIDs.Add(1), gen: m.gen}
}

// Pages returns the number of mapped pages; unwritten generated pages are
// not mapped.
func (m *Memory) Pages() int { return len(m.pages) }

// Equal reports whether the two images hold identical contents. Unmapped and
// all-zero pages are considered equal, and generated pages compare by the
// content their rule gives.
func (m *Memory) Equal(o *Memory) bool {
	return m.subsetOf(o) && o.subsetOf(m)
}

func (m *Memory) subsetOf(o *Memory) bool {
	var pb, qb [pageSize]byte
	for _, pn := range m.pageNums() {
		if m.samePage(o, pn) {
			continue
		}
		p, q := m.pageAt(pn, &pb), o.pageAt(pn, &qb)
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

// samePage reports whether page pn is the same page in both images without
// reading it: one shared mapped page, or unmapped in both under one
// generated region.
func (m *Memory) samePage(o *Memory, pn uint64) bool {
	p, q := m.pages[pn].data, o.pages[pn].data
	return p == q && (p != nil || m.gen == o.gen)
}

// FirstDiff returns the lowest address at which the two images differ, for
// test diagnostics. ok is false when the images are equal. Pages are walked
// in ascending order, so the reported address is deterministic.
func (m *Memory) FirstDiff(o *Memory) (addr uint64, ok bool) {
	pns := append(m.pageNums(), o.pageNums()...)
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	var zero, pb, qb [pageSize]byte
	prev := ^uint64(0)
	for _, pn := range pns {
		if pn == prev {
			continue // page present in both images, already compared
		}
		prev = pn
		if m.samePage(o, pn) {
			continue
		}
		p, q := m.pageAt(pn, &pb), o.pageAt(pn, &qb)
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
