package core

import "runaheadsim/internal/isa"

// generateChain implements Algorithm 1: the pseudo-wakeup walk that filters
// the dependence chain of a cache miss out of the reorder buffer.
//
// match is a dynamic instance of the blocking load found by the PC CAM; the
// chain is written into dst, reusing its uop storage. The walk maintains a
// source-register search list (bounded at SRSLSize); each dequeued register
// searches the ROB's destination-register CAM for the youngest older
// producer. Producing loads additionally search the store queue by address
// so spill/fill pairs pull the store (and its sources) into the chain.
// Membership is tracked with a bit vector over ROB positions; the final chain
// is read out in program order. The bit vector and the search list are
// per-core buffers, so a warm core generates without allocating.
//
// It returns the number of destination-CAM searches performed (for timing
// and energy) and whether the walk was truncated by the MaxChainLength cap.
//
//simlint:hotpath
func (c *Core) generateChain(match *DynInst, dst *Chain) (searches int, truncated bool) {
	n := c.rob.size()
	if len(c.inChain) < n {
		c.inChain = newChainMembership(c.cfg.ROBSize)
	}
	inChain := c.inChain[:n]
	clear(inChain)
	matchIdx := c.robIndexOf(match)
	inChain[matchIdx] = true
	chainLen := 1

	q := &c.srsl
	q.reset()
	q.push(match.U, matchIdx, c.cfg.SRSLSize)
	for q.len() > 0 && chainLen < c.cfg.MaxChainLength {
		w := q.pop()
		searches++
		c.st.DestCAMSearches++
		// Youngest producer older than the consumer.
		prodIdx := -1
		for i := w.consumer - 1; i >= 0; i-- {
			e := c.rob.at(i)
			if e.U.Dst != isa.RegNone && e.U.Dst == w.reg {
				prodIdx = i
				break
			}
		}
		if prodIdx < 0 {
			continue // value comes from before the window (architectural)
		}
		if inChain[prodIdx] {
			continue
		}
		p := c.rob.at(prodIdx)
		if p.U.Op.IsBranch() {
			continue // control ops are never part of the chain (Figure 7)
		}
		inChain[prodIdx] = true
		chainLen++
		q.push(p.U, prodIdx, c.cfg.SRSLSize)

		// Register fills: a producing load may take its value from an older
		// store in the window (common for x86 spill/fill traffic).
		if p.U.Op.IsLoad() && p.EAValid && chainLen < c.cfg.MaxChainLength {
			c.st.SQCAMSearches++
			for i := prodIdx - 1; i >= 0; i-- {
				s := c.rob.at(i)
				if !s.U.Op.IsStore() || !s.EAValid || !overlaps(s.EA, p.EA) {
					continue
				}
				if !inChain[i] {
					inChain[i] = true
					chainLen++
					q.push(s.U, i, c.cfg.SRSLSize)
				}
				break
			}
		}
	}
	truncated = q.len() > 0 || chainLen >= c.cfg.MaxChainLength

	// Read the chain out of the ROB in program order.
	dst.BlockingPC = match.PC
	dst.Uops = dst.Uops[:0]
	for i := 0; i < n; i++ {
		if !inChain[i] {
			continue
		}
		e := c.rob.at(i)
		dst.Uops = append(dst.Uops, ChainUop{U: *e.U, PC: e.PC, Index: e.Index})
		c.st.ROBChainReads++
	}
	dst.Signature = chainSignature(dst.Uops)
	return searches, truncated
}

// newChainMembership sizes the membership vector at the core's first chain.
// It is kept out of line so generateChain carries no allocation.
//
//go:noinline
func newChainMembership(robSize int) []bool { return make([]bool, robSize) }

// srslQueue is Algorithm 1's source-register search list: a head-indexed
// queue whose backing array is rewound, never trimmed from the front, so its
// capacity carries over from one walk to the next.
type srslQueue struct {
	q    []srslWant
	head int
}

// srslWant asks for the producer of reg, searching strictly older than the
// consumer's ROB index.
type srslWant struct {
	reg      isa.Reg
	consumer int
}

func (s *srslQueue) reset()            { s.q, s.head = s.q[:0], 0 }
func (s *srslQueue) len() int          { return len(s.q) - s.head }
func (s *srslQueue) pop() (w srslWant) { w = s.q[s.head]; s.head++; return w }

// push enqueues u's source registers for the consumer at ROB index idx,
// dropping those that do not fit in a list of limit entries.
func (s *srslQueue) push(u *isa.Uop, idx, limit int) {
	for _, r := range [2]isa.Reg{u.Src1, u.Src2} {
		if r != isa.RegNone && s.len() < limit {
			s.q = append(s.q, srslWant{reg: r, consumer: idx})
		}
	}
}
