package phases

import (
	"math"
	"reflect"
	"testing"
)

// synth builds W windows of len uops whose vectors alternate between nPhases
// well-separated behaviors, dims wide.
func synth(w, nPhases, dims int, winLen uint64) ([]Window, []Vector) {
	wins := make([]Window, w)
	vecs := make([]Vector, w)
	for i := range wins {
		wins[i] = Window{Start: uint64(i) * winLen, Len: winLen}
		v := make(Vector, dims)
		// Phase p concentrates execution on block p with a small spill onto
		// block p+1 that varies slightly by window, so members of one phase
		// are near but not identical.
		p := i % nPhases
		spill := 0.02 + 0.001*float64(i/nPhases)
		v[p] = 1 - spill
		v[(p+1)%dims] = spill
		vecs[i] = v
	}
	return wins, vecs
}

func TestBuildRecoversPlantedPhases(t *testing.T) {
	wins, vecs := synth(24, 3, 8, 1000)
	p := Build(wins, vecs, 6, 0)
	// BIC must separate the three planted behaviors; subdividing within one
	// (the windows carry a small systematic gradient) is acceptable, merging
	// across behaviors is not.
	if p.K() < 3 || p.K() > 6 {
		t.Fatalf("BIC chose k=%d, want 3..6", p.K())
	}
	var total uint64
	for _, ph := range p.Phases {
		total += ph.Weight
	}
	if total != 24_000 {
		t.Fatalf("total weight %d, want 24000", total)
	}
	// Every member of a phase must share the planted behavior of its
	// representative.
	for pi, ph := range p.Phases {
		for _, m := range ph.Members {
			if m%3 != ph.Rep%3 {
				t.Errorf("phase %d: window %d grouped with rep %d (different planted phase)", pi, m, ph.Rep)
			}
		}
		if ph.Weight != uint64(len(ph.Members))*1000 {
			t.Errorf("phase %d: weight %d != members %d * 1000", pi, ph.Weight, len(ph.Members))
		}
	}
	// Assign must be consistent with Members.
	for i, a := range p.Assign {
		found := false
		for _, m := range p.Phases[a].Members {
			if m == i {
				found = true
			}
		}
		if !found {
			t.Errorf("window %d assigned to phase %d but absent from its members", i, a)
		}
	}
	// Phases are ordered by representative start.
	for i := 1; i < len(p.Phases); i++ {
		if wins[p.Phases[i].Rep].Start <= wins[p.Phases[i-1].Rep].Start {
			t.Errorf("phase reps out of ascending start order: %d then %d", p.Phases[i-1].Rep, p.Phases[i].Rep)
		}
	}
}

func TestBuildHomogeneousCollapsesToOnePhase(t *testing.T) {
	wins := make([]Window, 16)
	vecs := make([]Vector, 16)
	for i := range wins {
		wins[i] = Window{Start: uint64(i) * 500, Len: 500}
		vecs[i] = Vector{0.5, 0.5, 0, 0}
	}
	p := Build(wins, vecs, 8, 0)
	if p.K() != 1 {
		t.Fatalf("identical windows clustered into k=%d, want 1", p.K())
	}
	if p.Phases[0].AvgDist != 0 {
		t.Fatalf("identical windows have dispersion %v, want 0", p.Phases[0].AvgDist)
	}
}

func TestForceKOverride(t *testing.T) {
	wins, vecs := synth(12, 2, 6, 100)
	p := Build(wins, vecs, 6, 4)
	if p.K() != 4 {
		t.Fatalf("forceK=4 produced k=%d", p.K())
	}
}

// TestDeterministicClustering pins the bit-identity guarantee: repeated
// clustering over the same vectors yields identical plans.
func TestDeterministicClustering(t *testing.T) {
	wins, vecs := synth(32, 4, 10, 750)
	ref := Build(wins, vecs, 8, 0)
	for i := 0; i < 5; i++ {
		// Re-derive the inputs from scratch too, so incidental slice aliasing
		// can't mask a dependence on allocation order.
		w2, v2 := synth(32, 4, 10, 750)
		if got := Build(w2, v2, 8, 0); !reflect.DeepEqual(got, ref) {
			t.Fatalf("run %d: plan differs from first run:\n got %+v\nwant %+v", i, got, ref)
		}
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize([]uint64{3, 1, 0})
	want := Vector{0.75, 0.25, 0}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("Normalize = %v, want %v", v, want)
	}
	if z := Normalize([]uint64{0, 0}); z[0] != 0 || z[1] != 0 {
		t.Fatalf("all-zero counts normalized to %v", z)
	}
}

func TestManhattanRange(t *testing.T) {
	a := Vector{1, 0, 0}
	b := Vector{0, 0, 1}
	if d := Manhattan(a, b); math.Abs(d-2) > 1e-12 {
		t.Fatalf("disjoint unit vectors have Manhattan %v, want 2", d)
	}
	if d := Manhattan(a, a); d != 0 {
		t.Fatalf("self distance %v", d)
	}
}

// TestKmeansEmptyClusterRepair exercises the repair path: more clusters than
// distinct vectors must not panic or leave empty phases.
func TestKmeansEmptyClusterRepair(t *testing.T) {
	wins := make([]Window, 6)
	vecs := make([]Vector, 6)
	for i := range wins {
		wins[i] = Window{Start: uint64(i) * 10, Len: 10}
		if i < 3 {
			vecs[i] = Vector{1, 0}
		} else {
			vecs[i] = Vector{0, 1}
		}
	}
	p := Build(wins, vecs, 6, 5) // force k beyond the 2 distinct behaviors
	if p.K() < 2 {
		t.Fatalf("k=%d, want at least the 2 distinct behaviors", p.K())
	}
	for i, ph := range p.Phases {
		if len(ph.Members) == 0 {
			t.Fatalf("phase %d kept with no members", i)
		}
	}
	var w uint64
	for _, ph := range p.Phases {
		w += ph.Weight
	}
	if w != 60 {
		t.Fatalf("weights sum to %d, want 60", w)
	}
}
