package prog

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"runaheadsim/internal/allocmeter"
	"runaheadsim/internal/snapshot"
)

// memHeader is a "mem" section header claiming n pages.
func memHeader(n int) []byte {
	w := &snapshot.Writer{}
	w.Mark("mem")
	w.Int(n)
	return w.Bytes()
}

// restoreAlloc restores data into a fresh image and returns the error and
// the bytes the restore allocated.
func restoreAlloc(data []byte) (err error, alloc uint64) {
	alloc = allocmeter.Bytes(func() { err = NewMemory().RestoreFrom(snapshot.NewReader(data)) })
	return err, alloc
}

// restoreAllocBound is what a restore of len(data) bytes may allocate: one
// page per page record the payload holds, plus the page table and slack.
func restoreAllocBound(data []byte) uint64 { return 4*uint64(len(data)) + 1<<20 }

// TestMemoryRestoreHostileCounts feeds page counts the payload cannot back:
// a negative count must fail, and a huge one must fail as truncated without
// sizing anything by the claimed count.
func TestMemoryRestoreHostileCounts(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{-1, "negative page count"},
		{1 << 24, "truncated"},
		{1 << 40, "truncated"},
	} {
		data := memHeader(tc.n)
		err, alloc := restoreAlloc(data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("n=%d: err = %v, want %q", tc.n, err, tc.want)
		}
		if alloc > restoreAllocBound(data) {
			t.Errorf("n=%d: a %d-byte payload allocated %d bytes", tc.n, len(data), alloc)
		}
	}
	// Page numbers must ascend, as SnapshotTo writes them.
	w := &snapshot.Writer{}
	w.Mark("mem")
	w.Int(2)
	for _, pn := range []uint64{5, 5} {
		w.U64(pn)
		w.Raw(make([]byte, pageSize))
	}
	if err := NewMemory().RestoreFrom(snapshot.NewReader(w.Bytes())); err == nil {
		t.Error("a repeated page number restored without error")
	}
}

// FuzzMemoryRestore: arbitrary bytes restore with an error or into an image
// that re-encodes stably, never with a panic or an allocation the payload
// cannot account for; and the image those bytes describe as writes
// round-trips byte-identically.
func FuzzMemoryRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		err, alloc := restoreAlloc(data)
		if alloc > restoreAllocBound(data) {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(data), alloc)
		}
		if err == nil {
			m := NewMemory()
			if err := m.RestoreFrom(snapshot.NewReader(data)); err != nil {
				t.Fatalf("second restore of the same bytes failed: %v", err)
			}
			enc := snapBytes(t, m)
			again := NewMemory()
			if err := again.RestoreFrom(snapshot.NewReader(enc)); err != nil {
				t.Fatalf("re-encoded image does not restore: %v", err)
			}
			if !bytes.Equal(snapBytes(t, again), enc) || !again.Equal(m) {
				t.Fatal("re-encoded image does not round-trip")
			}
		}

		// Read the bytes as (address, value) writes, a few pages' worth.
		v := NewMemory()
		for i := 0; i+16 <= len(data) && i < 16*64; i += 16 {
			addr := binary.LittleEndian.Uint64(data[i:]) & 0xf_ffff
			v.Write64(addr, int64(binary.LittleEndian.Uint64(data[i+8:])))
		}
		shared := v.Clone()
		enc := snapBytes(t, shared)
		r := NewMemory()
		if err := r.RestoreFrom(snapshot.NewReader(enc)); err != nil {
			t.Fatalf("valid image does not restore: %v", err)
		}
		if !bytes.Equal(snapBytes(t, r), enc) || !r.Equal(v) {
			t.Fatal("valid image does not round-trip byte-identically")
		}
	})
}
