package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetCounters(t *testing.T) {
	s := NewSet()
	s.Add("a", 3)
	s.Add("a", 2)
	s.Add("b", 1)
	if s.Get("a") != 5 || s.Get("b") != 1 || s.Get("missing") != 0 {
		t.Fatalf("counter values wrong: a=%d b=%d", s.Get("a"), s.Get("b"))
	}
	c := s.Counter("a")
	*c += 10
	if s.Get("a") != 15 {
		t.Fatal("Counter pointer must alias the stored value")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	if !strings.Contains(s.String(), "a") {
		t.Fatal("String must render counter names")
	}
}

func TestRatioAndPct(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator must be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatal("Ratio(3,4) != 0.75")
	}
	if Pct(1, 4) != 25 {
		t.Fatal("Pct(1,4) != 25")
	}
}

func TestPctDelta(t *testing.T) {
	if got := PctDelta(1.172, 1.0); math.Abs(got-17.2) > 1e-9 {
		t.Fatalf("PctDelta = %v", got)
	}
	if PctDelta(5, 0) != 0 {
		t.Fatal("PctDelta with zero base must be 0")
	}
	if got := PctDelta(0.9, 1.0); math.Abs(got+10) > 1e-9 {
		t.Fatalf("negative delta = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean must be 0")
	}
	got := GeoMean([]float64{2, 8})
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean(2,8) = %v, want 4", got)
	}
	// Zero entries are clamped rather than annihilating the mean.
	if GeoMean([]float64{0, 4}) <= 0 {
		t.Fatal("geomean with a zero entry must stay positive")
	}
}

func TestGeoMeanProperty(t *testing.T) {
	// Geomean of identical positive values is that value.
	f := func(v uint16, n uint8) bool {
		x := 1 + float64(v)/100
		k := int(n%8) + 1
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = x
		}
		return math.Abs(GeoMean(xs)-x) < 1e-9*x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean(1,2,3) != 2")
	}
}

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(4, 10)
	for _, v := range []uint64{0, 5, 15, 100} {
		h.Observe(v)
	}
	if h.Count != 4 || h.Sum != 120 || h.MaxSeen != 100 {
		t.Fatalf("count/sum/max = %d/%d/%d", h.Count, h.Sum, h.MaxSeen)
	}
	if h.Buckets[0] != 2 || h.Buckets[1] != 1 || h.Buckets[3] != 1 {
		t.Fatalf("buckets = %v", h.Buckets)
	}
	if h.Mean() != 30 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(10, 1)
	for v := uint64(0); v < 10; v++ {
		h.Observe(v)
	}
	if p := h.Percentile(0.5); p != 5 {
		t.Fatalf("p50 = %d, want 5", p)
	}
	if p := h.Percentile(1.0); p != 10 {
		t.Fatalf("p100 = %d, want 10", p)
	}
	empty := NewHistogram(4, 1)
	if empty.Percentile(0.5) != 0 {
		t.Fatal("empty percentile must be 0")
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0, 0) must panic")
		}
	}()
	NewHistogram(0, 0)
}

func TestHistogramPanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram with zero bucket width must panic")
		}
	}()
	NewHistogram(4, 0)
}

func TestHistogramOverflowClampsToLastBucket(t *testing.T) {
	h := NewHistogram(4, 10)
	h.Observe(39)             // last in-range bucket
	h.Observe(40)             // first overflow value
	h.Observe(math.MaxUint64) // extreme overflow
	if h.Buckets[3] != 3 {
		t.Fatalf("overflow samples must clamp into the last bucket, got %v", h.Buckets)
	}
	if h.Count != 3 || h.MaxSeen != math.MaxUint64 {
		t.Fatalf("count/max = %d/%d", h.Count, h.MaxSeen)
	}
	// Percentile of an all-overflow distribution is the histogram's top edge.
	if p := h.Percentile(1.0); p != 40 {
		t.Fatalf("p100 = %d, want 40 (top edge)", p)
	}
}

func TestSetCreationOrderStable(t *testing.T) {
	s := NewSet()
	in := []string{"z", "m", "a", "q", "b"}
	for _, n := range in {
		s.Counter(n)
	}
	// Re-requesting existing counters must not reorder or duplicate.
	s.Counter("a")
	s.Counter("z")
	names := s.Names()
	if len(names) != len(in) {
		t.Fatalf("Names = %v, want %v (no duplicates)", names, in)
	}
	for i, n := range in {
		if names[i] != n {
			t.Fatalf("Names = %v, want creation order %v", names, in)
		}
	}
	// Names returns a copy: mutating it must not corrupt the set.
	names[0] = "corrupted"
	if s.Names()[0] != "z" {
		t.Fatal("Names must return a copy")
	}
}

func TestSetStringSortedByName(t *testing.T) {
	s := NewSet()
	s.Add("zeta", 1)
	s.Add("alpha", 2)
	out := s.String()
	if strings.Index(out, "alpha") > strings.Index(out, "zeta") {
		t.Fatalf("String must render sorted by name:\n%s", out)
	}
}

func TestZeroDenominators(t *testing.T) {
	if Ratio(0, 0) != 0 || Pct(7, 0) != 0 {
		t.Fatal("zero denominators must yield 0, not NaN/Inf")
	}
	if v := PctDelta(0, 0); v != 0 || math.IsNaN(v) {
		t.Fatal("PctDelta(0,0) must be 0")
	}
}

func TestDivSafe(t *testing.T) {
	if got := Div(6, 3); got != 2 {
		t.Fatalf("Div(6,3) = %v", got)
	}
	if got := Div(1, 0); got != 0 {
		t.Fatalf("Div(1,0) = %v, want 0", got)
	}
	if got := Div(0, 0); got != 0 {
		t.Fatalf("Div(0,0) = %v, want 0", got)
	}
	if got := Div(math.Inf(1), 2); got != 0 {
		t.Fatalf("Div(+Inf,2) = %v, want 0 (non-finite quotient)", got)
	}
}

func TestScaleU64(t *testing.T) {
	cases := []struct{ v, num, den, want uint64 }{
		{10, 1, 1, 10},
		{10, 3, 1, 30},
		{10, 1, 3, 3}, // 3.33 rounds to 3
		{10, 1, 4, 3}, // 2.5 rounds to 3 (round half up)
		{0, 7, 3, 0},
		{1 << 62, 1000, 1, math.MaxUint64}, // overflowing quotient saturates
		{1 << 40, 1 << 30, 1 << 20, 1 << 50},
	}
	for _, c := range cases {
		if got := ScaleU64(c.v, c.num, c.den); got != c.want {
			t.Errorf("ScaleU64(%d, %d, %d) = %d, want %d", c.v, c.num, c.den, got, c.want)
		}
	}
	if got := ScaleI64(-12, 1, 5); got != -2 {
		t.Errorf("ScaleI64(-12, 1, 5) = %d, want -2", got)
	}
}

func TestHistogramMergeScaled(t *testing.T) {
	a := NewHistogram(4, 10)
	b := NewHistogram(4, 10)
	for i := 0; i < 3; i++ {
		b.Observe(5)
	}
	b.Observe(25)
	a.MergeScaled(b, 3, 1)
	if a.Count != 12 || a.Sum != 3*(3*5+25) {
		t.Fatalf("scaled merge Count=%d Sum=%d", a.Count, a.Sum)
	}
	if a.Buckets[0] != 9 || a.Buckets[2] != 3 {
		t.Fatalf("scaled merge buckets %v", a.Buckets)
	}
	if a.MaxSeen != 25 {
		t.Fatalf("MaxSeen %d scaled; extrema must merge unscaled", a.MaxSeen)
	}
}
