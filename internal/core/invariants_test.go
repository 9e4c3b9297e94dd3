package core

import (
	"math/rand"
	"strings"
	"testing"
)

// runUntil advances the core until cond holds (or the cycle budget runs
// out, which fails the test).
func runUntil(t *testing.T, c *Core, cond func() bool) {
	t.Helper()
	for i := 0; i < 50_000; i++ {
		if cond() {
			return
		}
		c.Cycle()
	}
	t.Fatal("condition never reached within the cycle budget")
}

// TestInvariantsHoldEveryCycle sweeps the full invariant set (deep every
// cycle — affordable at test scale) across a random program in every mode.
func TestInvariantsHoldEveryCycle(t *testing.T) {
	for _, mode := range []Mode{ModeNone, ModeTraditional, ModeBufferCC, ModeHybrid} {
		p := randomProgram(rand.New(rand.NewSource(7)))
		c := New(testConfig(mode), p)
		c.SetCycleHook(func() {
			if err := c.CheckInvariants(true); err != nil {
				t.Fatalf("mode %v, cycle %d: %v\n%s", mode, c.Now(), err, c.DebugDump())
			}
		})
		c.Run(3_000)
	}
}

// The corruption tests seed a specific inconsistency into a live machine and
// assert the matching check names it — proof the invariants can actually
// fire, not just that the machine happens to satisfy them.

func TestInvariantsCatchDoubleFree(t *testing.T) {
	c := New(testConfig(ModeNone), simpleLoop())
	runUntil(t, c, func() bool { return c.rob.size() >= 4 })
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("pre-corruption: %v", err)
	}
	// Push an already-free register back onto the free list: a double
	// release. The fast count check sees the imbalance; the deep partition
	// would name the register.
	c.ren.release(c.ren.free[0])
	err := c.CheckInvariants(false)
	if err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("double free not caught: %v", err)
	}
}

func TestInvariantsCatchDoubleClaim(t *testing.T) {
	c := New(testConfig(ModeNone), simpleLoop())
	runUntil(t, c, func() bool { return c.rob.size() >= 4 })
	// Alias two RAT entries to one physical register. The old rat[5] mapping
	// leaks and rat[4]'s is double-claimed, but the counts stay balanced —
	// only the exact partition scan can see it.
	c.ren.rat[5] = c.ren.rat[4]
	if err := c.CheckInvariants(false); err != nil {
		t.Fatalf("fast check should stay balanced: %v", err)
	}
	err := c.CheckInvariants(true)
	if err == nil || !strings.Contains(err.Error(), "claimed by both") {
		t.Fatalf("double claim not caught: %v", err)
	}
}

func TestInvariantsCatchSeqCorruption(t *testing.T) {
	c := New(testConfig(ModeNone), simpleLoop())
	runUntil(t, c, func() bool { return c.rob.size() >= 2 })
	c.rob.at(1).Seq = c.rob.at(0).Seq
	err := c.CheckInvariants(false)
	if err == nil || !strings.Contains(err.Error(), "seq order") {
		t.Fatalf("seq corruption not caught: %v", err)
	}
}

func TestInvariantsCatchQueueMiscount(t *testing.T) {
	c := New(testConfig(ModeNone), storeLoadLoop())
	runUntil(t, c, func() bool { return c.rob.size() >= 2 })
	c.lqCount++
	err := c.CheckInvariants(false)
	if err == nil || !strings.Contains(err.Error(), "load-queue") {
		t.Fatalf("load-queue miscount not caught: %v", err)
	}
}

// TestInvariantsCatchSchedBitmapCorruption corrupts each scheduler bitmap in
// a window holding loads behind an unknown-address store; the deep check
// must name each corruption.
func TestInvariantsCatchSchedBitmapCorruption(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(c *Core, held *DynInst)
	}{
		{"lost wakeup", "lost wakeup", func(c *Core, held *DynInst) { c.sched.ready.unset(held.ROBPos) }},
		{"bit at an empty slot", "at empty ROB slot", func(c *Core, _ *DynInst) {
			c.sched.ready.set((c.rob.head + c.rob.count) % len(c.rob.entries))
		}},
		{"dropped unknown store", "missing from the unknown-store bitmap", func(c *Core, _ *DynInst) {
			n, head := len(c.rob.entries), c.rob.head
			end := head + c.rob.count
			c.sched.unknown.unset(c.sched.unknown.next(nil, head, end, end, n) % n)
		}},
		{"unmasked held load", "missing from the load bitmap", func(c *Core, held *DynInst) { c.sched.loads.unset(held.ROBPos) }},
	} {
		c := New(testConfig(ModeNone), sleepKernel(false))
		var held []schedRef
		runUntil(t, c, func() bool {
			held = heldLoads(c, held[:0])
			return len(held) > 0 && !c.rob.full()
		})
		if err := c.CheckInvariants(true); err != nil {
			t.Fatalf("%s: pre-corruption: %v", tc.name, err)
		}
		tc.corrupt(c, held[0].d)
		err := c.CheckInvariants(true)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: bitmap corruption not caught: %v", tc.name, err)
		}
	}
}
