package prog

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"runaheadsim/internal/snapshot"
)

// genWord is a pure rule for generated regions in tests: a hash of the
// address, with some words zero so generated pages mix zero and non-zero
// content.
func genWord(addr uint64) int64 {
	if addr%24 == 16 {
		return 0
	}
	return int64(addr*0x9e3779b97f4a7c15 ^ addr>>7)
}

// genTwins builds the same region twice: once generated, once written word
// by word into mapped pages.
func genTwins(lo, hi uint64) (gen, mat *Memory) {
	gen, mat = NewMemory(), NewMemory()
	gen.Generate(lo, hi, genWord)
	for a := lo; a < hi; a += 8 {
		mat.Write64(a, genWord(a))
	}
	return gen, mat
}

// checkTwins compares the two images through every read path: Read64 and
// ByteAt at aligned, unaligned and page-spanning addresses over the region
// and a page either side, then Equal, FirstDiff and the snapshot bytes.
func checkTwins(t *testing.T, what string, gen, mat *Memory, lo, hi uint64) {
	t.Helper()
	from, to := lo&^pageMask-pageSize, hi+pageSize
	for a := from; a < to; a++ {
		if g, m := gen.ByteAt(a), mat.ByteAt(a); g != m {
			t.Fatalf("%s: ByteAt(%#x) = %#x, materialized %#x", what, a, g, m)
		}
		if a%8 != 0 && a&pageMask < pageSize-8 && a%5 != 0 {
			continue // every aligned and page-spanning address, some unaligned
		}
		if g, m := gen.Read64(a), mat.Read64(a); g != m {
			t.Fatalf("%s: Read64(%#x) = %#x, materialized %#x", what, a, g, m)
		}
	}
	if !gen.Equal(mat) || !mat.Equal(gen) {
		t.Fatalf("%s: generated image and its materialized twin compare unequal", what)
	}
	if addr, ok := gen.FirstDiff(mat); ok {
		t.Fatalf("%s: FirstDiff reports %#x", what, addr)
	}
	if !bytes.Equal(snapBytes(t, gen), snapBytes(t, mat)) {
		t.Fatalf("%s: snapshot bytes differ", what)
	}
}

// TestGeneratedMatchesMaterialized checks, over random regions and random
// writes, that a generated region reads, compares and snapshots exactly like
// the same region written page by page, and that clones stay isolated.
func TestGeneratedMatchesMaterialized(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lo := uint64(0x10_0000 + rng.Intn(3*pageSize)/8*8)
		hi := lo + uint64(8+rng.Intn(5*pageSize)/8*8)
		gen, mat := genTwins(lo, hi)
		checkTwins(t, "fresh", gen, mat, lo, hi)
		// Unmapped in both images is not the same page when only one has
		// the rule.
		empty := NewMemory()
		if gen.Equal(empty) != mat.Equal(empty) || empty.Equal(gen) != empty.Equal(mat) {
			t.Fatalf("seed %d: the generated image and its twin compare differently with an empty image", seed)
		}

		// Random writes, to both images alike: aligned, unaligned and
		// page-spanning words and single bytes, inside and around the region.
		for i := 0; i < 40; i++ {
			a := lo&^pageMask - pageSize + uint64(rng.Intn(int(hi-lo)+3*pageSize))
			if rng.Intn(4) == 0 {
				a = a | pageMask - uint64(rng.Intn(7)) // spans a page boundary
			}
			if rng.Intn(3) == 0 {
				gen.SetByte(a, byte(i+1))
				mat.SetByte(a, byte(i+1))
			} else {
				v := rng.Int63()
				gen.Write64(a, v)
				mat.Write64(a, v)
			}
		}
		checkTwins(t, "after writes", gen, mat, lo, hi)

		// A clone shares the region; writes on either side stay there.
		c := gen.Clone()
		checkTwins(t, "clone", c, mat, lo, hi)
		addr := hi - 8
		c.Write64(addr, ^genWord(addr))
		checkTwins(t, "source after clone write", gen, mat, lo, hi)
		if got, ok := c.FirstDiff(mat); !ok || got&^7 != addr {
			t.Fatalf("seed %d: clone FirstDiff = %#x,%v, want the written word %#x", seed, got, ok, addr)
		}
		if c.Equal(gen) {
			t.Fatalf("seed %d: a written clone compares equal to its source", seed)
		}
	}
}

// TestGeneratedRestoreHoldsPages checks a restored image holds real pages,
// no rule, and the generated content.
func TestGeneratedRestoreHoldsPages(t *testing.T) {
	lo, hi := uint64(0x20_0010), uint64(0x20_0010+3*pageSize)
	gen, mat := genTwins(lo, hi)
	r := NewMemory()
	r.Generate(0, 8, genWord) // a rule the restore must drop
	if err := r.RestoreFrom(snapshot.NewReader(snapBytes(t, gen))); err != nil {
		t.Fatal(err)
	}
	if r.gen != nil || r.Pages() != mat.Pages() {
		t.Fatalf("restored image keeps a rule (%v) or maps %d pages, want %d", r.gen != nil, r.Pages(), mat.Pages())
	}
	checkTwins(t, "restored", r, mat, lo, hi)
}

// TestGenerateRejects checks a second region, and a misaligned or empty
// one, panic.
func TestGenerateRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi uint64
		twice  bool
	}{
		{"second region", 0, 64, true},
		{"misaligned", 4, 64, false},
		{"empty", 64, 64, false},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Generate did not panic", tc.name)
				}
			}()
			m := NewMemory()
			if tc.twice {
				m.Generate(0, 8, genWord)
			}
			m.Generate(tc.lo, tc.hi, genWord)
		}()
	}
}

// TestGeneratedConcurrentClones clones and reads one frozen generated image
// from many goroutines while each writes its own clone; under -race this
// proves the shared rule and a frozen image are only read.
func TestGeneratedConcurrentClones(t *testing.T) {
	lo, hi := uint64(0x30_0000), uint64(0x30_0000+8*pageSize)
	src, mat := genTwins(lo, hi)
	frozen := src.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				c := frozen.Clone()
				for a := lo; a < hi; a += pageSize / 2 {
					if got, want := frozen.Read64(a+8), genWord(a+8); got != want {
						t.Errorf("frozen reads %#x at %#x, want %#x", got, a+8, want)
						return
					}
					c.Write64(a, int64(g*1000+i))
				}
				if c.Read64(lo+8) != genWord(lo+8) || c.ByteAt(lo+9) != byte(genWord(lo+8)>>8) {
					t.Error("a clone's write lost the generated content beside it")
					return
				}
				if !frozen.Equal(mat) {
					t.Error("frozen image no longer equals its materialized twin")
					return
				}
			}
		}()
	}
	src.Write64(lo, -2) // the source writes on beside them
	wg.Wait()
	checkTwins(t, "frozen", frozen, mat, lo, hi)
}
