package simlint

import "testing"

func TestStatsHygiene(t *testing.T) {
	fixture := map[string]map[string]string{
		"fix/internal/stats": {"stats.go": `package stats

type Histogram struct{ Buckets []uint64 }
type Counter struct{ N int64 }

func NewHistogram() *Histogram { return &Histogram{} }
func NewCounter() *Counter     { return &Counter{} }
`},
		"fix/internal/core": {"core.go": `package core

import "fix/internal/stats"

type M struct {
	H stats.Histogram
	P *stats.Histogram
}

var bare = stats.Histogram{}
var boxed = new(stats.Counter)
var zero stats.Counter
var good = stats.NewHistogram()

//simlint:allow statshygiene -- suppression under test
var suppressed = stats.Histogram{}
`},
	}
	diags := runFixture(t, fixture, "fix/internal/core", StatsHygiene)
	wantDiags(t, diags, []struct {
		Line     int
		Fragment string
	}{
		{6, "value field"},
		{10, "bare stats.Histogram literal"},
		{11, "new(stats.Counter)"},
		{12, "zero-value stats.Counter"},
	})
}

// TestStatsHygieneCoreStatsOwnership checks the stat-ownership rule:
// core.Stats counters may be written only inside the core package — reads
// through the live pointer Core.Stats() returns are fine anywhere.
func TestStatsHygieneCoreStatsOwnership(t *testing.T) {
	fixture := map[string]map[string]string{
		"fix/internal/core": {"core.go": `package core

type Stats struct {
	Issued   uint64
	PRFReads uint64
}

type Core struct{ st *Stats }

func (c *Core) Stats() *Stats { return c.st }

func (c *Core) issue() { c.st.Issued++ }
`},
		"fix/internal/harness": {"harness.go": `package harness

import "fix/internal/core"

func tally(c *core.Core) uint64 {
	st := c.Stats()
	st.Issued++
	st.PRFReads += 2
	st.Issued = 0
	n := st.Issued
	//simlint:allow statshygiene -- suppression under test
	st.PRFReads = 1
	return n
}
`},
	}
	diags := runFixture(t, fixture, "fix/internal/harness", StatsHygiene)
	wantDiags(t, diags, []struct {
		Line     int
		Fragment string
	}{
		{7, "core.Stats field Issued"},
		{8, "core.Stats field PRFReads"},
		{9, "core.Stats field Issued"},
	})
	if d := runFixture(t, fixture, "fix/internal/core", StatsHygiene); len(d) != 0 {
		t.Fatalf("core package writes its own counters and should be exempt, got %v", d)
	}
}

// TestStatsHygieneMetricsInstruments checks the self-profiling extension of
// the ownership rule: metrics counters must come from a Registry (which is
// what Export walks), never from bare literals or zero values. The metrics
// package itself is exempt like stats is.
func TestStatsHygieneMetricsInstruments(t *testing.T) {
	fixture := map[string]map[string]string{
		"fix/internal/metrics": {"metrics.go": `package metrics

type Counter struct{ v uint64 }

type Registry struct{}

func (r *Registry) Counter(name, help string) *Counter { return &Counter{} }
`},
		"fix/internal/core": {"core.go": `package core

import "fix/internal/metrics"

type prof struct {
	C metrics.Counter
	P *metrics.Counter
}

var bare = metrics.Counter{}
var boxed = new(metrics.Counter)
var zero metrics.Counter
var reg metrics.Registry
var good = reg.Counter("x", "help")
`},
	}
	diags := runFixture(t, fixture, "fix/internal/core", StatsHygiene)
	wantDiags(t, diags, []struct {
		Line     int
		Fragment string
	}{
		{6, "metrics.Counter value field"},
		{10, "bare metrics.Counter literal"},
		{11, "new(metrics.Counter)"},
		{12, "zero-value metrics.Counter"},
	})
	if d := runFixture(t, fixture, "fix/internal/metrics", StatsHygiene); len(d) != 0 {
		t.Fatalf("metrics package should be exempt, got %v", d)
	}
}

// TestStatsHygieneExemptsStatsPackage checks the constructors' own package
// may build literals.
func TestStatsHygieneExemptsStatsPackage(t *testing.T) {
	fixture := map[string]map[string]string{
		"fix/internal/stats": {"stats.go": `package stats

type Counter struct{ N int64 }

func NewCounter() *Counter { return &Counter{} }
`},
	}
	diags := runFixture(t, fixture, "fix/internal/stats", StatsHygiene)
	if len(diags) != 0 {
		t.Fatalf("stats package should be exempt, got %v", diags)
	}
}
