package core

import (
	"testing"

	"runaheadsim/internal/allocmeter"
	"runaheadsim/internal/isa"
	"runaheadsim/internal/prog"
)

// Most tests here drive execLoad and the hierarchy by hand on a core whose
// pipeline never runs: each builds its loads directly, issues them, and
// ticks the memory system until they complete. That isolates the L1D miss
// path — the token a load travels as, its early-miss notice and its
// completion — from everything else a cycle does. The sleeping-load gate
// runs whole cycles instead: the held loads it covers only appear in a
// running window.

// rigLoadUop is a load whose effective address is its immediate.
func rigLoadUop(addr uint64) *isa.Uop {
	return &isa.Uop{Op: isa.LD, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Imm: int64(addr)}
}

// newRig returns a core for hand-driven loads.
func newRig() *Core { return New(testConfig(ModeNone), simpleLoop()) }

// rigLoad returns an issued, source-ready load of u, fresh from the pool.
func (c *Core) rigLoad(u *isa.Uop) *DynInst {
	c.seq++
	d := c.newDyn()
	d.Seq = c.seq
	d.U = u
	d.PDst, d.PSrc1, d.PSrc2, d.POld = noPhys, noPhys, noPhys, noPhys
	d.Renamed, d.Issued = true, true
	return d
}

// tickUntil advances the hierarchy until done reports true.
func (c *Core) tickUntil(t testing.TB, done func() bool) {
	t.Helper()
	for lim := c.now + 10_000; !done(); {
		if c.now++; c.now > lim {
			t.Fatal("memory access did not complete within 10k cycles")
		}
		c.h.Tick(c.now)
	}
}

// conflictLines are nine lines 128KB apart: they share one L1D set and one
// LLC set, so visiting them round-robin misses both levels every time (eight
// ways each).
var conflictLines = func() []*isa.Uop {
	us := make([]*isa.Uop, 9)
	for i := range us {
		us[i] = rigLoadUop(0x4000_0000 + uint64(i)<<17)
	}
	return us
}()

// missRoundTrip issues one load that misses to DRAM and ticks until it has
// completed and the hierarchy holds nothing for it.
func (c *Core) missRoundTrip(t testing.TB, u *isa.Uop) {
	d := c.rigLoad(u)
	c.execLoad(d)
	if !d.memIssued {
		t.Fatal("load refused with free MSHRs")
	}
	c.tickUntil(t, func() bool { return d.Executed && c.h.Drained() })
	c.freeDyn(d)
}

// TestL1DMissRoundTripAllocatesNothing gates the accepted miss: issue,
// DRAM-bound notice, LLC fill, L1 fill and completion allocate nothing.
func TestL1DMissRoundTripAllocatesNothing(t *testing.T) {
	c := newRig()
	i := 0
	allocs := allocmeter.Mallocs(200, func() {
		c.missRoundTrip(t, conflictLines[i%len(conflictLines)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("L1D miss round trip allocates %d times, want 0", allocs)
	}
	if st := c.Stats(); st.LoadRetries != 0 || st.PoisonedUops != 0 {
		t.Fatalf("retries/poisoned = %d/%d, want a plain miss each time", st.LoadRetries, st.PoisonedUops)
	}
}

// TestRefusedLoadRetryAllocatesNothing gates held loads in steady state: on
// stormKernel, with a small L1D MSHR file that refuses loads on most
// cycles, sleepBlock-cycle blocks of refusals, bulk-counted retries and
// wakes allocate nothing. Alongside, a reference core that re-runs every
// held load (perLoadRetry) must count the same refusals, both as load
// retries and as hierarchy loads, and no retry may sit on the event wheel:
// the only loads there have not yet run execLoad, which computes the
// address of every load it refuses.
func TestRefusedLoadRetryAllocatesNothing(t *testing.T) {
	cfg := testConfig(ModeBufferCC)
	cfg.Mem.L1DMSHRs = 12
	c, ref := New(cfg, stormKernel()), New(cfg, stormKernel())
	ref.perLoadRetry = true
	for _, m := range []*Core{c, ref} {
		ownPages(m.Mem(), stormStreamLo, stormStreamHi)
	}
	for i := 0; i < 100_000; i++ {
		c.Cycle()
		ref.Cycle()
	}
	retries, held := c.st.LoadRetries, 0
	allocs := allocmeter.Mallocs(50, func() {
		for i := 0; i < sleepBlock; i++ {
			held += len(c.held)
			c.Cycle()
			ref.Cycle()
			for s := range c.events {
				for _, ev := range c.events[s] {
					if ev.kind == evExecLoad && ev.d.gen == ev.gen && ev.d.EAValid {
						t.Fatalf("cycle %d: a load that already computed its address waits on the event wheel", c.now)
					}
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%d cycles of refused loads allocate %d times, want 0", sleepBlock, allocs)
	}
	if held == 0 || c.st.LoadRetries == retries {
		t.Fatalf("%d loads held, %d refusals over the measured blocks; the rig does not refuse loads", held, c.st.LoadRetries-retries)
	}
	if c.Now() != ref.Now() || c.st.LoadRetries != ref.st.LoadRetries || c.h.Loads != ref.h.Loads {
		t.Fatalf("cycle %d/%d: %d retries and %d loads counted, the per-load reference %d and %d",
			c.Now(), ref.Now(), c.st.LoadRetries, c.h.Loads, ref.st.LoadRetries, ref.h.Loads)
	}
}

// ownPages gives m its own copy of every page in [lo, hi), as a store
// reaching each page for the first time would: the storm kernel stores to a
// new page every few iterations, and the program's memory image growing is
// not what the gate measures.
func ownPages(m *prog.Memory, lo, hi uint64) {
	for a := lo; a < hi; a += 1 << 12 {
		m.Write64(a, m.Read64(a))
	}
}

// TestNoWaitMissAllocatesNothing gates the runahead miss: a no-wait load
// completes poisoned at its early-miss notice, and the fill that follows
// allocates nothing either.
func TestNoWaitMissAllocatesNothing(t *testing.T) {
	c := newRig()
	c.ra.active = true
	i := 0
	allocs := allocmeter.Mallocs(200, func() {
		d := c.rigLoad(conflictLines[i%len(conflictLines)])
		i++
		c.execLoad(d)
		c.tickUntil(t, func() bool { return d.Executed })
		if !d.Poisoned || !d.DRAMBound {
			t.Fatal("no-wait miss did not complete poisoned at its DRAM-bound notice")
		}
		c.tickUntil(t, c.h.Drained)
		c.freeDyn(d)
	})
	if allocs != 0 {
		t.Fatalf("no-wait miss allocates %d times, want 0", allocs)
	}
}

// TestStaleTokenBlockingLoadStillExits covers a completion that outlives its
// load: runahead pseudo-retires the blocking load while its DRAM fill is
// outstanding, and the slot is recycled for another uop. The fill must still
// end runahead — matched by sequence number — and must leave the slot's new
// occupant alone.
func TestStaleTokenBlockingLoadStillExits(t *testing.T) {
	c := newRig()
	d := c.rigLoad(rigLoadUop(0x4000_0000))
	c.execLoad(d)
	c.ra.active, c.ra.blockingSeq = true, d.Seq
	c.freeDyn(d) // pseudo-retired
	n := c.rigLoad(rigLoadUop(0x5000_0000))
	if n != d {
		t.Fatal("the pool did not hand the recycled slot back")
	}
	c.tickUntil(t, c.h.Drained)
	if !c.ra.pendingExit {
		t.Fatal("the blocking load's late fill did not request runahead exit")
	}
	if n.Executed || n.DRAMBound || n.Poisoned || n.MemLevel != 0 {
		t.Fatalf("the late fill touched the slot's new occupant: %+v", *n)
	}
}

// TestStaleTokenEarlyMissRecordsAge covers a DRAM-bound notice that arrives
// after its load left the machine: the slot is recycled, yet the line's miss
// age must still be recorded on a core whose runahead enhancements read it.
func TestStaleTokenEarlyMissRecordsAge(t *testing.T) {
	cfg := testConfig(ModeTraditional)
	cfg.Enhancements = true
	c := New(cfg, simpleLoop())
	const addr = 0x4000_0000
	d := c.rigLoad(rigLoadUop(addr))
	c.execLoad(d)
	c.squash(d) // squashed off the wrong path; its request flies on
	n := c.rigLoad(rigLoadUop(0x5000_0000))
	if n != d {
		t.Fatal("the pool did not hand the recycled slot back")
	}
	c.tickUntil(t, c.h.Drained)
	if _, ok := c.missAge[addr&^63]; !ok {
		t.Fatal("the late DRAM-bound notice did not record the line's miss age")
	}
	if n.DRAMBound || n.Executed {
		t.Fatalf("the late notice touched the slot's new occupant: %+v", *n)
	}
}

// TestNoMissAgeWithoutEnhancements checks that a core whose runahead
// enhancements are off, the only reader of miss ages, records none.
func TestNoMissAgeWithoutEnhancements(t *testing.T) {
	c := newRig()
	for _, u := range conflictLines {
		c.missRoundTrip(t, u)
	}
	if c.Stats().LoadRetries != 0 || c.h.Req(c.memReq).DRAMReadsDemand == 0 {
		t.Fatal("the rig's loads did not miss to DRAM")
	}
	if n := len(c.missAge); n != 0 {
		t.Fatalf("a core without Enhancements recorded %d miss ages, want 0", n)
	}
}

// BenchmarkL1DMissRoundTrip times one DRAM-bound L1D miss from issue to
// completion; allocs/op must read 0.
func BenchmarkL1DMissRoundTrip(b *testing.B) {
	c := newRig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.missRoundTrip(b, conflictLines[i%len(conflictLines)])
	}
}

// sleepRig returns a core on the L1-resident sleep kernel, run until every
// waiter list and address bucket has reached its working capacity and every
// page the kernel stores to has been copied out of the program's shared
// image.
func sleepRig() *Core {
	c := New(testConfig(ModeNone), sleepKernel(false))
	for i := 0; i < 20_000; i++ {
		c.Cycle()
	}
	return c
}

// sleepBlock is the unit the sleeping-load gates measure. The gates count
// every allocation over all measured blocks (allocmeter.Mallocs), so one
// made on a single cycle of the measurement shows.
const sleepBlock = 64

// TestSleepingLoadsAllocatesNothing gates the load mask in steady state:
// loads held behind an unknown-address store, and released when it
// resolves, allocate nothing.
func TestSleepingLoadsAllocatesNothing(t *testing.T) {
	c := sleepRig()
	slept, woke := 0, 0
	buf := make([]schedRef, 0, c.cfg.ROBSize)
	allocs := allocmeter.Mallocs(50, func() {
		for i := 0; i < sleepBlock; i++ {
			before := len(heldLoads(c, buf))
			c.Cycle()
			if n := len(heldLoads(c, buf)); n > before {
				slept++
			} else if n < before {
				woke++
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%d sleeping-load cycles allocate %d times, want 0", sleepBlock, allocs)
	}
	if slept == 0 || woke == 0 {
		t.Fatalf("loads were held on %d cycles and released on %d; the window does not exercise the load mask", slept, woke)
	}
}

// BenchmarkSleepingLoadsCycles times sleepBlock steady-state cycles of a
// window whose loads are held and released behind unknown-address stores;
// allocs/op must read 0.
func BenchmarkSleepingLoadsCycles(b *testing.B) {
	c := sleepRig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < sleepBlock; j++ {
			c.Cycle()
		}
	}
}
