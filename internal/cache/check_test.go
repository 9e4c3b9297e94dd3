package cache

import (
	"strings"
	"testing"
)

func TestMSHRConservationClean(t *testing.T) {
	f := NewMSHRFile(4)
	f.Allocate(0x100, false)
	f.Allocate(0x200, true)
	if err := f.CheckConservation(); err != nil {
		t.Fatalf("clean file: %v", err)
	}
	f.Complete(0x100)
	if err := f.CheckConservation(); err != nil {
		t.Fatalf("after complete: %v", err)
	}
	f.Clear()
	if err := f.CheckConservation(); err != nil {
		t.Fatalf("after clear: %v", err)
	}
}

func TestMSHRConservationCatchesLeak(t *testing.T) {
	f := NewMSHRFile(4)
	f.Allocate(0x100, false)
	// Simulate a leaked entry: drop it without completing.
	f.lines, f.entries = f.lines[:0], f.entries[:0]
	err := f.CheckConservation()
	if err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("leaked entry not caught: %v", err)
	}
}

func TestMSHRConservationCatchesKeyMismatch(t *testing.T) {
	f := NewMSHRFile(4)
	m := f.Allocate(0x100, false)
	m.LineAddr = 0x140 // corrupt the entry's recorded line
	err := f.CheckConservation()
	if err == nil || !strings.Contains(err.Error(), "records line") {
		t.Fatalf("key mismatch not caught: %v", err)
	}
}

func testCache(t *testing.T) *Cache {
	t.Helper()
	c := New(Config{SizeBytes: 4096, Ways: 4, LineBytes: 64})
	for i := uint64(0); i < 32; i++ {
		c.Insert(i*64, false)
	}
	return c
}

func TestCacheIntegrityClean(t *testing.T) {
	c := testCache(t)
	if err := c.CheckIntegrity(); err != nil {
		t.Fatalf("clean cache: %v", err)
	}
}

func TestCacheIntegrityCatchesStaleStamp(t *testing.T) {
	c := testCache(t)
	// A recency stamp newer than the global stamp means a fill bypassed the
	// stamp counter.
	c.ways[0].lastUse = c.stamp + 100
	err := c.CheckIntegrity()
	if err == nil {
		t.Fatal("future lastUse not caught")
	}
}

func TestCacheIntegrityCatchesDuplicateTag(t *testing.T) {
	c := testCache(t)
	c.ways[0].tagFlags |= wayValid
	c.ways[1].tagFlags = c.ways[0].tagFlags
	err := c.CheckIntegrity()
	if err == nil {
		t.Fatal("duplicate tag not caught")
	}
}

func TestCacheIntegrityCatchesDuplicateStamp(t *testing.T) {
	c := testCache(t)
	c.ways[1].lastUse = c.ways[0].lastUse
	err := c.CheckIntegrity()
	if err == nil {
		t.Fatal("duplicate recency stamp not caught")
	}
}
