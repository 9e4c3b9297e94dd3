package multicore

import (
	"bytes"
	"encoding/binary"
	"testing"

	"runaheadsim/internal/allocmeter"
	"runaheadsim/internal/core"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/snapshot"
	"runaheadsim/internal/workload"
)

// restoreSeed drains a 2-core milc+soplex cluster under RB+CC and returns
// the configuration, a program loader and the cluster payload. Caches and
// predictor tables are shrunk so the payload stays small.
func restoreSeed(tb testing.TB) (core.Config, func() []*prog.Program, []byte) {
	tb.Helper()
	cfg := testConfig(core.ModeBufferCC)
	cfg.Mem.L1I.SizeBytes, cfg.Mem.L1D.SizeBytes, cfg.Mem.LLC.SizeBytes = 1<<10, 1<<10, 4<<10
	bp := &cfg.BPred
	bp.BimodalEntries, bp.GshareEntries, bp.ChooserEntries, bp.HistoryBits, bp.BTBEntries = 256, 256, 256, 8, 64
	load := func() []*prog.Program {
		return []*prog.Program{workload.MustLoad("milc"), workload.MustLoad("soplex")}
	}
	cl := New(cfg, load())
	cl.Run(1_000)
	data, err := cl.Snapshot()
	if err != nil {
		tb.Fatalf("Snapshot: %v", err)
	}
	payload, err := snapshot.Decode(data, ClusterKind)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, load, payload
}

// withCount returns a copy of payload whose 8-byte int just past the first
// section mark name reads n.
func withCount(tb testing.TB, payload []byte, name string, n int64) []byte {
	tb.Helper()
	w := &snapshot.Writer{}
	w.Mark(name)
	i := bytes.Index(payload, w.Bytes())
	if i < 0 {
		tb.Fatalf("payload has no %q section", name)
	}
	out := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(out[i+len(w.Bytes()):], uint64(n))
	return out
}

// FuzzRestoreCluster: arbitrary payloads, sealed in a valid cluster
// container so they reach the cluster decoder, restore with an error or
// into a cluster that re-snapshots stably, never with a panic, a hang or an
// allocation the payload cannot account for. The valid seed restores and
// re-snapshots to its own bytes.
func FuzzRestoreCluster(f *testing.F) {
	cfg, load, valid := restoreSeed(f)
	progs := load()
	newCost := allocmeter.Bytes(func() { New(cfg, progs) })
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(withCount(f, valid, "mcluster", 3))
	f.Add(withCount(f, valid, "missage", 1<<40))
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := snapshot.Encode(ClusterKind, payload)
		var cl *Cluster
		var err error
		alloc := allocmeter.Bytes(func() { cl, err = RestoreCluster(data, cfg, progs) })
		if bound := newCost + 8*uint64(len(payload)) + 1<<20; alloc > bound {
			t.Fatalf("a %d-byte payload allocated %d bytes, bound %d", len(payload), alloc, bound)
		}
		if bytes.Equal(payload, valid) && err != nil {
			t.Fatalf("valid snapshot does not restore: %v", err)
		}
		if err != nil {
			return
		}
		enc, err := cl.Snapshot()
		if err != nil {
			t.Fatalf("restored cluster does not re-snapshot: %v", err)
		}
		if bytes.Equal(payload, valid) && !bytes.Equal(enc, data) {
			t.Fatal("valid snapshot re-snapshots to different bytes")
		}
		again, err := RestoreCluster(enc, cfg, progs)
		if err != nil {
			t.Fatalf("re-snapshot does not restore: %v", err)
		}
		if enc2, err := again.Snapshot(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-snapshot is not stable (err %v)", err)
		}
	})
}
