package core

import (
	"sort"

	"runaheadsim/internal/memsys"
)

// depTracker implements the dependence-walk instrumentation behind the
// paper's analysis figures:
//
//   - Figure 2: fraction of demand DRAM misses whose address-generation
//     chain contains no other concurrently-windowed DRAM miss ("source data
//     available on-chip").
//   - Figure 3: fraction of uops executed during traditional runahead that
//     lie on the dependence chain of some runahead-generated miss.
//   - Figure 4: unique vs repeated miss chains within a runahead interval.
//   - Figure 5: miss dependence-chain length.
//
// It keeps a ring of lightweight per-uop records keyed by sequence number;
// chains are recovered by walking producer tags recorded at execute time.
// The producer tags themselves live here too, so a core without DepTrack
// neither stores nor maintains them: regProd names each physical register's
// latest producer, and prov holds each in-flight uop's source producers,
// indexed by DynInst.slot.
type depTracker struct {
	ring    []depRec
	regProd []uint64  // per physical register: seq of its producer, 0 = none
	prov    []depProv // per DynInst slot

	// Per-runahead-interval state; the maps are cleared, not remade, at
	// every entry.
	intervalStart  uint64 // first seq of the interval
	intervalSigs   map[uint64]int
	intervalUops   map[uint64]bool // seqs of uops on some miss chain
	intervalActive bool
}

// depProv is one uop's provenance: the seqs producing its register sources
// and, for a load, the store it forwarded from (0 = none).
type depProv struct {
	prod1, prod2, prodStore uint64
}

type depRec struct {
	seq        uint64
	pc         uint64
	prod1      uint64
	prod2      uint64
	prodStore  uint64
	isLoad     bool
	level      memsys.Level
	runahead   bool
	fromBuffer bool
}

const depRingSize = 1 << 13

func newDepTracker(numPhys int) *depTracker {
	return &depTracker{
		ring:         make([]depRec, depRingSize),
		regProd:      make([]uint64, numPhys),
		intervalSigs: map[uint64]int{},
		intervalUops: map[uint64]bool{},
	}
}

// rename starts d's provenance at dispatch and makes d the producer of its
// destination register.
func (t *depTracker) rename(d *DynInst) {
	t.prov[d.slot] = depProv{}
	if d.PDst != noPhys {
		t.regProd[d.PDst] = d.Seq
	}
}

// srcProd returns the producer of physical register p (0 = none).
func (t *depTracker) srcProd(p PhysReg) uint64 {
	if p == noPhys {
		return 0
	}
	return t.regProd[p]
}

// noteSrcs records the producers of d's register sources as d reads them.
// It is a no-op on a core without DepTrack.
func (c *Core) noteSrcs(d *DynInst) {
	if t := c.dep; t != nil {
		p := &t.prov[d.slot]
		p.prod1, p.prod2 = t.srcProd(d.PSrc1), t.srcProd(d.PSrc2)
	}
}

func (t *depTracker) record(c *Core, d *DynInst) {
	p := &t.prov[d.slot]
	t.ring[d.Seq%depRingSize] = depRec{
		seq:        d.Seq,
		pc:         d.PC,
		prod1:      p.prod1,
		prod2:      p.prod2,
		prodStore:  p.prodStore,
		isLoad:     d.U.Op.IsLoad(),
		level:      d.MemLevel,
		runahead:   d.Runahead,
		fromBuffer: d.FromBuffer,
	}
	if d.Runahead && c.ra.active && !c.ra.usingBuffer {
		c.st.RATotalUops++
	}
	if !c.ra.active && !d.Runahead && d.U.Op.IsLoad() && d.MemLevel == memsys.LevelMem && !d.Squashed {
		t.classifyDemandMiss(c, d)
	}
}

func (t *depTracker) lookup(seq uint64) (*depRec, bool) {
	if seq == 0 {
		return nil, false
	}
	r := &t.ring[seq%depRingSize]
	if r.seq != seq {
		return nil, false
	}
	return r, true
}

// walk collects the ancestor set of seq (inclusive), bounded by maxNodes and
// by minSeq (ancestors older than minSeq are outside the window of
// interest). The result is sorted by sequence number.
func (t *depTracker) walk(seq, minSeq uint64, maxNodes int) []*depRec {
	var out []*depRec
	seen := map[uint64]bool{}
	stack := []uint64{seq}
	for len(stack) > 0 && len(out) < maxNodes {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s == 0 || s < minSeq || seen[s] {
			continue
		}
		seen[s] = true
		r, ok := t.lookup(s)
		if !ok {
			continue
		}
		out = append(out, r)
		stack = append(stack, r.prod1, r.prod2, r.prodStore)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// classifyDemandMiss implements Figure 2: the miss has "source data on chip"
// unless an ancestor within ROB reach is itself a DRAM miss.
func (t *depTracker) classifyDemandMiss(c *Core, d *DynInst) {
	c.st.DemandDRAMMisses++
	minSeq := uint64(1)
	if d.Seq > uint64(c.cfg.ROBSize) {
		minSeq = d.Seq - uint64(c.cfg.ROBSize)
	}
	chain := t.walk(d.Seq, minSeq, 64)
	for _, r := range chain {
		if r.seq == d.Seq {
			continue
		}
		if r.isLoad && r.level == memsys.LevelMem {
			return // off-chip source
		}
	}
	c.st.MissSourcesOnChip++
}

// beginInterval starts per-interval bookkeeping at runahead entry.
func (t *depTracker) beginInterval(c *Core) {
	t.intervalStart = c.seq
	clear(t.intervalSigs)
	clear(t.intervalUops)
	t.intervalActive = true
}

// onRunaheadMiss records the dependence chain of a miss generated during
// (traditional) runahead: its length (Fig 5), its novelty within the
// interval (Fig 4), and its members (Fig 3).
func (t *depTracker) onRunaheadMiss(c *Core, d *DynInst) {
	if !t.intervalActive || c.ra.usingBuffer {
		return
	}
	chain := t.walk(d.Seq, t.intervalStart, 128)
	if len(chain) == 0 {
		return
	}
	// The chain's identity and length are in static terms — the distinct
	// operations that must execute per iteration — matching what Algorithm 1
	// would extract; the dynamic slice revisits the same PCs across loop
	// iterations.
	pcs := make([]uint64, 0, len(chain))
	seen := map[uint64]bool{}
	for _, r := range chain {
		t.intervalUops[r.seq] = true
		if !seen[r.pc] {
			seen[r.pc] = true
			pcs = append(pcs, r.pc)
		}
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	c.st.ChainLengths.Observe(uint64(len(pcs)))
	sig := uint64(1469598103934665603)
	for _, pc := range pcs {
		sig ^= pc
		sig *= 1099511628211
	}
	if t.intervalSigs[sig] > 0 {
		c.st.RAChainsRepeated++
	} else {
		c.st.RAChainsUnique++
	}
	t.intervalSigs[sig]++
}

// endInterval folds the interval's chain-membership set into Figure 3's
// counters.
func (t *depTracker) endInterval(c *Core) {
	if !t.intervalActive {
		return
	}
	c.st.RAChainUops += uint64(len(t.intervalUops))
	t.intervalActive = false
}
