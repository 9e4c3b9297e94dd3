package metrics

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	c := NewRegistry().Counter("sim_test_ops_total", "ops")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sim_x_total", "x")
	b := r.Counter("sim_x_total", "x")
	if a != b {
		t.Fatal("same name must return the same handle")
	}
}

// TestConcurrentAccess exercises the registry and counters from many
// goroutines; `go test -race` proves the hot paths are data-race free.
func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("sim_conc_total", "shared counter")
			for j := 0; j < 1000; j++ {
				c.Inc()
				if j%100 == 0 {
					r.Export()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("sim_conc_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

// TestExportStability pins the exporter contract: output is sorted by name
// and identical across repeated exports of an unchanged registry,
// regardless of registration order.
func TestExportStability(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_z_total", "z").Add(1)
	r.Counter("sim_a_total", "a").Add(2)
	r.Counter("sim_m_total", "m").Add(3)

	a, b := r.Export(), r.Export()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("export lengths %d/%d, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("export not stable: %+v vs %+v", a[i], b[i])
		}
	}
	want := []Metric{{"sim_a_total", "a", 2}, {"sim_m_total", "m", 3}, {"sim_z_total", "z", 1}}
	for i, m := range want {
		if a[i] != m {
			t.Fatalf("export[%d] = %+v, want %+v", i, a[i], m)
		}
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	// A nil handle takes every call and reads as zero.
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter must read as zero")
	}
}
