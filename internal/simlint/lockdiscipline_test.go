package simlint

import "testing"

func TestLockDiscipline(t *testing.T) {
	fixture := map[string]map[string]string{
		"fix/internal/harness": {"t.go": `package harness

import "sync"

type T struct {
	mu sync.Mutex
	cb func()
	ch chan int
}

func (t *T) bad() {
	t.mu.Lock()
	t.ch <- 1
	t.cb()
	t.mu.Unlock()
	t.cb()
}

func (t *T) deferred() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cb()
}

func (t *T) good() {
	var f func()
	t.mu.Lock()
	f = t.cb
	t.mu.Unlock()
	f()
}
`},
	}
	diags := runFixture(t, fixture, "fix/internal/harness", LockDiscipline)
	wantDiags(t, diags, []struct {
		Line     int
		Fragment string
	}{
		{13, "channel send while t.mu is held"},
		{14, `call through function value "t.cb" while t.mu is held`},
		// defer t.mu.Unlock() keeps the lock held to scope end.
		{22, `call through function value "t.cb" while t.mu is held`},
		// good() copies under the lock and calls after — no findings.
	})
}

func TestLockDisciplineAtomicMixing(t *testing.T) {
	fixture := map[string]map[string]string{
		"fix/internal/metrics": {"m.go": `package metrics

import "sync/atomic"

type A struct {
	n int64
	m int64
}

func (a *A) inc()       { atomic.AddInt64(&a.n, 1) }
func (a *A) read() int64 { return atomic.LoadInt64(&a.n) }
func (a *A) leak() int64 { return a.n }

func (a *A) plainOnly() int64 { a.m++; return a.m }
`},
	}
	diags := runFixture(t, fixture, "fix/internal/metrics", LockDiscipline)
	wantDiags(t, diags, []struct {
		Line     int
		Fragment string
	}{
		{12, "n is accessed plainly but also through sync/atomic"},
	})
}

// TestLockDisciplineScope checks the analyzer stays out of packages that are
// not on the concurrency-bearing list: the same violations in a simulation
// package produce nothing (single-threaded code may hold locks however it
// likes — there are none).
func TestLockDisciplineScope(t *testing.T) {
	fixture := map[string]map[string]string{
		"fix/internal/core": {"c.go": `package core

import "sync"

type C struct {
	mu sync.Mutex
	cb func()
}

func (c *C) f() {
	c.mu.Lock()
	c.cb()
	c.mu.Unlock()
}
`},
	}
	diags := runFixture(t, fixture, "fix/internal/core", LockDiscipline)
	wantDiags(t, diags, nil)
}
