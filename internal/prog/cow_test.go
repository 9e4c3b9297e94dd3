package prog

import (
	"bytes"
	"sync"
	"testing"

	"runaheadsim/internal/snapshot"
)

// deepCopy is the pre-copy-on-write Clone: every page copied, every page
// owned by the copy.
func deepCopy(m *Memory) *Memory {
	c := NewMemory()
	for _, pn := range m.pageNums() {
		p := new([pageSize]byte)
		*p = *m.pages[pn].data
		c.pages[pn] = pageRef{data: p, owner: c.id}
		c.owned++
	}
	return c
}

func snapBytes(t *testing.T, m *Memory) []byte {
	t.Helper()
	w := &snapshot.Writer{}
	if err := m.SnapshotTo(w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// TestCowWritesStayOnTheirSide writes on both sides of a chain of clones,
// to shared pages, owned pages, fresh pages and page-straddling words, and
// checks each image sees only its own writes.
func TestCowWritesStayOnTheirSide(t *testing.T) {
	a := NewMemory()
	a.Write64(0x1000, 1)
	a.Write64(0x2000, 2)
	b := a.Clone()
	c := b.Clone()

	a.Write64(0x1000, 10)          // a's first write to a shared page
	a.Write64(0x1008, 11)          // a now owns the page: in place
	b.Write64(0x2000, 20)          // b's first write to a shared page
	c.Write64(0x3000, 30)          // a fresh page on c alone
	c.Write64(pageSize*5-4, -0x55) // straddles two fresh pages

	want := map[*Memory][5]int64{
		a: {10, 11, 2, 0, 0},
		b: {1, 0, 20, 0, 0},
		c: {1, 0, 2, 30, -0x55},
	}
	for m, w := range want {
		got := [5]int64{m.Read64(0x1000), m.Read64(0x1008), m.Read64(0x2000), m.Read64(0x3000), m.Read64(pageSize*5 - 4)}
		if got != w {
			t.Errorf("image reads %v, want %v", got, w)
		}
	}
	// A clone of an image that has written since its last clone still
	// isolates both sides.
	d := a.Clone()
	d.Write64(0x1000, 99)
	a.Write64(0x2000, 77)
	if a.Read64(0x1000) != 10 || d.Read64(0x2000) != 2 {
		t.Fatalf("second-generation clone leaked: a[0x1000]=%d d[0x2000]=%d", a.Read64(0x1000), d.Read64(0x2000))
	}
}

// TestCowCloneCostsWrittenPages checks that Clone gives up the source's
// ownership: after a Clone the source owns nothing, and writing k pages
// makes it own exactly those k again.
func TestCowCloneCostsWrittenPages(t *testing.T) {
	m := NewMemory()
	for pn := uint64(0); pn < 8; pn++ {
		m.Write64(pn<<pageShift, int64(pn))
	}
	c := m.Clone()
	if m.owned != 0 || c.owned != 0 {
		t.Fatalf("after Clone the source owns %d pages and the copy %d, want 0 and 0", m.owned, c.owned)
	}
	m.Write64(0, 100)
	m.Write64(8, 101) // same page: no second copy
	m.Write64(3<<pageShift, 103)
	if m.owned != 2 {
		t.Fatalf("source owns %d pages after writing 2, want 2", m.owned)
	}
	if m.pages[5].data != c.pages[5].data {
		t.Fatal("an unwritten page is no longer shared")
	}
}

// TestCowArchStateSurvivesInterp checks a checkpoint keeps its image while the
// interpreter writes on: the loop stores to the same slots every iteration.
func TestCowArchStateSurvivesInterp(t *testing.T) {
	b := NewBuilder("cow-checkpoint")
	slot := b.Alloc(2*pageSize, 8)
	e := b.Block("e")
	loop := b.Block("loop")
	e.Movi(1, int64(slot)).Movi(2, 0)
	loop.Addi(2, 2, 1).
		St(1, 0, 2).
		St(1, pageSize, 2).
		Jmp(loop)
	p := b.MustBuild()

	in := NewInterp(p)
	in.Run(2 + 3*4) // entry block plus three iterations
	st := in.ArchState()
	before := snapBytes(t, st.Mem)
	in.Run(4 * 100)
	if got := st.Mem.Read64(slot); got != 3 {
		t.Fatalf("checkpoint slot reads %d after the interpreter ran on, want 3", got)
	}
	if !bytes.Equal(snapBytes(t, st.Mem), before) {
		t.Fatal("interpreter progress changed the checkpoint's snapshot")
	}
	// Resuming from the checkpoint reproduces the same run.
	re := NewInterpAt(p, ArchState{Mem: st.Mem.Clone(), Regs: st.Regs, Index: st.Index, Count: st.Count})
	re.Run(4 * 100)
	if !re.Mem.Equal(in.Mem) || re.Regs != in.Regs {
		t.Fatal("resumed interpreter diverged from the original")
	}
	if got := st.Mem.Read64(slot); got != 3 {
		t.Fatalf("resuming from a Clone changed the checkpoint: slot reads %d", got)
	}
}

// TestCowConcurrentClonesOfFrozenImage clones one checkpoint from many
// goroutines and writes every copy; under -race this proves Clone of an
// image that owns no pages only reads it.
func TestCowConcurrentClonesOfFrozenImage(t *testing.T) {
	src := NewMemory()
	for pn := uint64(0); pn < 16; pn++ {
		src.Write64(pn<<pageShift, int64(pn))
	}
	frozen := src.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := frozen.Clone()
				for pn := uint64(0); pn < 16; pn++ {
					c.Write64(pn<<pageShift, int64(g*1000+i))
				}
				c.Clone().Write64(0, -1)
			}
		}()
	}
	src.Write64(0, -2) // the source writes on beside them
	wg.Wait()
	for pn := uint64(0); pn < 16; pn++ {
		if got := frozen.Read64(pn << pageShift); got != int64(pn) {
			t.Fatalf("frozen page %d reads %d, want %d", pn, got, pn)
		}
	}
}

// TestCowNewMemoryLeavesInitAlone writes through every NewMemory user and
// checks the program's Init image, shared by all of them, never changes.
func TestCowNewMemoryLeavesInitAlone(t *testing.T) {
	b := NewBuilder("cow-init")
	slot := b.Alloc(64, 8)
	b.Mem().Write64(slot, 42)
	e := b.Block("e")
	e.Movi(1, int64(slot)).Movi(2, 7).St(1, 0, 2).Jmp(e)
	p := b.MustBuild()
	if p.Init.owned != 0 {
		t.Fatalf("Init owns %d pages after Build, want 0 (frozen)", p.Init.owned)
	}
	before := snapBytes(t, p.Init)

	b.Mem().Write64(slot, 43) // the builder's own image writes on
	p.NewMemory().Write64(slot, 44)
	in := NewInterp(p)
	in.Run(10)
	if in.Mem.Read64(slot) != 7 {
		t.Fatalf("interpreter store not visible in its own image")
	}
	if !bytes.Equal(snapBytes(t, p.Init), before) || p.Init.Read64(slot) != 42 {
		t.Fatalf("Program.Init changed: slot reads %d", p.Init.Read64(slot))
	}
}

// TestCowSnapshotMatchesDeepCopy checks SnapshotTo writes the same bytes
// for an image whose pages are shared as for a deep copy of it.
func TestCowSnapshotMatchesDeepCopy(t *testing.T) {
	m := NewMemory()
	for pn := uint64(0); pn < 6; pn++ {
		m.Write64(pn<<pageShift|0x18, int64(pn+1))
	}
	m.Write64(9<<pageShift, 0) // an all-zero mapped page is skipped
	shared := m.Clone()
	m.Write64(2<<pageShift, 123) // m diverges; shared keeps the old page
	deep := deepCopy(shared)
	if !bytes.Equal(snapBytes(t, shared), snapBytes(t, deep)) {
		t.Fatal("snapshot of a shared image differs from its deep copy's")
	}
	if !shared.Equal(deep) || !deep.Equal(shared) {
		t.Fatal("a shared image and its deep copy compare unequal")
	}
}

// TestCowFirstDiffOnWrittenSharedPage checks the pointer shortcut in Equal
// and FirstDiff does not hide a page that was shared and then written.
func TestCowFirstDiffOnWrittenSharedPage(t *testing.T) {
	a := NewMemory()
	a.Write64(0x4000, 1)
	a.Write64(0x7000, 2)
	b := a.Clone()
	if _, ok := a.FirstDiff(b); ok || !a.Equal(b) {
		t.Fatal("fresh clones differ")
	}
	b.SetByte(0x7123, 9)
	addr, ok := a.FirstDiff(b)
	if !ok || addr != 0x7123 {
		t.Fatalf("FirstDiff = %#x,%v want 0x7123,true", addr, ok)
	}
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("a page written after sharing compares equal")
	}
}
