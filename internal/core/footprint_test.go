package core_test

import (
	"reflect"
	"testing"
	"unsafe"

	"runaheadsim/internal/allocmeter"
	"runaheadsim/internal/bpred"
	"runaheadsim/internal/core"
	"runaheadsim/internal/multicore"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/trace"
	"runaheadsim/internal/workload"
)

// TestCoreFootprint bounds the host memory a simulated core costs: the
// heap bytes core.New allocates, the bytes each core a cluster adds (its
// private caches and predictor, without the shared LLC and DRAM), and the
// sizes of the per-uop, per-BTB-entry and per-flight-event records those
// structures hold many of. Today's figures are about 407 KB, 147 KB, 152,
// 16 and 32 bytes.
func TestCoreFootprint(t *testing.T) {
	const (
		newBound          = 420 << 10
		clusterCoreBound  = 160 << 10
		dynInstBound      = 160
		btbEntryBound     = 16
		flightRecordBound = 40
	)
	cfg := core.DefaultConfig()
	p := workload.MustLoad("mcf")
	if got := allocmeter.Bytes(func() { core.New(cfg, p) }); got > newBound {
		t.Errorf("core.New allocates %d bytes, want at most %d", got, newBound)
	}
	cluster := func(n int) uint64 {
		progs := make([]*prog.Program, n)
		for i := range progs {
			progs[i] = p
		}
		return allocmeter.Bytes(func() { multicore.New(cfg, progs) })
	}
	one, four := cluster(1), cluster(4)
	if got := (four - one) / 3; got > clusterCoreBound {
		t.Errorf("each core a cluster adds allocates %d bytes, want at most %d", got, clusterCoreBound)
	}
	if got := unsafe.Sizeof(core.DynInst{}); got > dynInstBound {
		t.Errorf("DynInst is %d bytes, want at most %d", got, dynInstBound)
	}
	if got := elemOf(t, bpred.Predictor{}, "btb").Size(); got > btbEntryBound {
		t.Errorf("a BTB entry is %d bytes, want at most %d", got, btbEntryBound)
	}
	rec := elemOf(t, trace.Ring{}, "buf")
	if got := rec.Size(); got > flightRecordBound {
		t.Errorf("a flight record is %d bytes, want at most %d", got, flightRecordBound)
	}
	if hasPointers(rec) {
		t.Errorf("a flight record (%v) holds pointers", rec)
	}
}

// elemOf returns the element type of the slice field name of v's struct
// type; the field is unexported, and its type is all the test reads.
func elemOf(t *testing.T, v any, name string) reflect.Type {
	f, ok := reflect.TypeOf(v).FieldByName(name)
	if !ok || f.Type.Kind() != reflect.Slice {
		t.Fatalf("%T has no slice field %q", v, name)
	}
	return f.Type.Elem()
}

// hasPointers reports whether a value of type t holds any pointer the
// garbage collector must scan: a string, slice, map or other reference.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}
