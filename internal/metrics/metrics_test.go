package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim_test_ops_total", "ops")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("sim_test_depth", "depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sim_x_total", "x")
	b := r.Counter("sim_x_total", "x")
	if a != b {
		t.Fatal("same name must return the same handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a name under a different kind must panic")
		}
	}()
	r.Gauge("sim_x_total", "x")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sim_test_jump_cycles", "jumps")
	for _, v := range []int64{0, 1, 2, 3, 900, 1 << 40, -5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	// sum clamps negatives to 0
	if got := h.Sum(); got != 0+1+2+3+900+(1<<40) {
		t.Fatalf("sum = %d", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`sim_test_jump_cycles_bucket{le="1"} 3`, // 0, 1 land in le=1 … plus -5 clamped
		`sim_test_jump_cycles_bucket{le="2"} 4`,
		`sim_test_jump_cycles_bucket{le="4"} 5`,
		`sim_test_jump_cycles_bucket{le="1024"} 6`,
		`sim_test_jump_cycles_bucket{le="+Inf"} 7`,
		`sim_test_jump_cycles_count 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentAccess exercises the registry and instruments from many
// goroutines; `go test -race` proves the hot paths are data-race free.
func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("sim_conc_total", "shared counter")
			g := r.Gauge("sim_conc_gauge", "shared gauge")
			h := r.Histogram("sim_conc_hist", "shared histogram")
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(j))
				if j%100 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("sim_conc_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("sim_conc_hist", "").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// TestExportStability pins the exporter contract: output is sorted by name
// and byte-identical across repeated renders of an unchanged registry,
// regardless of registration order.
func TestExportStability(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_z_total", "z").Add(1)
	r.Gauge("sim_a_gauge", "a").Set(2)
	r.Histogram("sim_m_hist", "m").Observe(3)

	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("prometheus export not stable:\n%s\n----\n%s", a.String(), b.String())
	}
	// Sorted by name: a_gauge before m_hist before z_total.
	out := a.String()
	ia, im, iz := strings.Index(out, "sim_a_gauge"), strings.Index(out, "sim_m_hist"), strings.Index(out, "sim_z_total")
	if !(ia >= 0 && ia < im && im < iz) {
		t.Fatalf("export not name-sorted:\n%s", out)
	}

	var j1, j2 bytes.Buffer
	if err := r.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Fatal("JSON export not stable")
	}
	var ms []JSONMetric
	if err := json.Unmarshal(j1.Bytes(), &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[0].Name != "sim_a_gauge" || ms[2].Name != "sim_z_total" {
		t.Fatalf("unexpected JSON export: %+v", ms)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	// Components built before instrumentation wiring may hold nil handles;
	// every method must tolerate that.
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}
