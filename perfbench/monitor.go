package main

import "sync"

// spanMonitor is a harness.Monitor that turns the harness's run and phase
// callbacks into spans: one per (benchmark, config) run under the Prewarm
// span, and under it one per phase — the BBV profile, the functional
// fast-forward, and each detailed window's warmup and measurement. The
// callbacks arrive from the Prewarm and interval worker goroutines at once.
type spanMonitor struct {
	tr     *tracer
	parent int // the Prewarm span; set before Prewarm starts

	mu     sync.Mutex
	runs   map[string]int   // run key -> run span
	cells  map[string]int   // run key -> cell id
	open   map[phaseKey]int // the phase span each (run, interval) is in
	ffUops uint64           // uops the fast-forwards set out to cover
}

type phaseKey struct {
	run      string
	interval int
}

var phaseSpans = map[string]string{
	"bbv-profile":  "harness.bbv_profile",
	"fast-forward": "prog.fast_forward",
	"warmup":       "harness.window_warmup",
	"measure":      "harness.window_measure",
}

func newSpanMonitor(tr *tracer) *spanMonitor {
	return &spanMonitor{tr: tr, runs: map[string]int{}, cells: map[string]int{}, open: map[phaseKey]int{}}
}

func runKey(bench, config string) string { return bench + "/" + config }

func (m *spanMonitor) RunStart(bench, config string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := runKey(bench, config)
	m.cells[k] = len(m.cells) + 1
	m.runs[k] = m.tr.begin("harness.run", m.parent, m.cells[k])
}

func (m *spanMonitor) RunDone(bench, config string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tr.end(m.runs[runKey(bench, config)])
}

func (m *spanMonitor) Phase(bench, config string, interval int, phase string, total uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := runKey(bench, config)
	pk := phaseKey{k, interval}
	m.tr.end(m.open[pk])
	name, ok := phaseSpans[phase]
	if !ok {
		name = "harness." + phase
	}
	if phase == "fast-forward" {
		m.ffUops += total
	}
	m.open[pk] = m.tr.begin(name, m.runs[k], m.cells[k])
}

func (m *spanMonitor) Progress(string, string, int, uint64) {}

func (m *spanMonitor) Done(bench, config string, interval int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pk := phaseKey{runKey(bench, config), interval}
	m.tr.end(m.open[pk])
	delete(m.open, pk)
}
