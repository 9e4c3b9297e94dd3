package bpred

import (
	"encoding/binary"
	"strings"
	"testing"

	"runaheadsim/internal/snapshot"
)

// btbEntryAt returns the offset of BTB entry i in a snapshot of p: the BTB
// precedes the RAS entries, the RAS top and depth, and three counters.
func btbEntryAt(p *Predictor, snap []byte, i int) int {
	const entryBytes = 8 + 8 + 1
	tail := 8*len(p.ras.entries) + 2*8 + 3*8
	return len(snap) - tail - (len(p.btb)-i)*entryBytes
}

func snapshotOf(t *testing.T, p *Predictor) []byte {
	t.Helper()
	var w snapshot.Writer
	if err := p.SnapshotTo(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// TestSnapshotBTBLayout checks that a BTB entry is written as a bare tag, a
// target and a valid byte, and that a restored predictor hits on it.
func TestSnapshotBTBLayout(t *testing.T) {
	p := newTest()
	const pc, target = 0x400008, 0x400100
	p.UpdateBTB(pc, target)
	snap := snapshotOf(t, p)
	for i, want := range map[int][3]uint64{0: {0, 0, 0}, 1: {pc, target, 1}} {
		at := btbEntryAt(p, snap, i)
		got := [3]uint64{binary.LittleEndian.Uint64(snap[at:]), binary.LittleEndian.Uint64(snap[at+8:]), uint64(snap[at+16])}
		if got != want {
			t.Fatalf("BTB entry %d written as %#x, want %#x", i, got, want)
		}
	}
	q := newTest()
	if err := q.RestoreFrom(snapshot.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if got, ok := q.LookupBTB(pc); !ok || got != target {
		t.Fatalf("restored BTB lookup = %#x,%v", got, ok)
	}
	if _, ok := q.LookupBTB(0x400000); ok {
		t.Fatal("restored BTB hits on an empty entry")
	}
}

// TestRestoreRejectsUnrepresentableBTB feeds entries the packed BTB cannot
// hold: an invalid entry with a tag or a target, and a valid one whose tag
// has the alignment bit set.
func TestRestoreRejectsUnrepresentableBTB(t *testing.T) {
	p := newTest()
	p.UpdateBTB(0x400008, 0x400100)
	for _, tc := range []struct {
		name  string
		entry int
		off   int
		val   uint64
		want  string
	}{
		{"invalid with a tag", 0, 0, 0x400000, "invalid BTB entry 0"},
		{"invalid with a target", 0, 8, 0x400100, "invalid BTB entry 0"},
		{"valid with an unaligned tag", 1, 0, 0x400009, "unaligned tag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := snapshotOf(t, p)
			binary.LittleEndian.PutUint64(snap[btbEntryAt(p, snap, tc.entry)+tc.off:], tc.val)
			err := newTest().RestoreFrom(snapshot.NewReader(snap))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
