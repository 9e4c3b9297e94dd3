// Package bpred implements the hybrid branch predictor of the simulated core
// (Table 1: "Hybrid Branch Predictor"): a bimodal table and a gshare table
// arbitrated by a chooser, plus a branch target buffer and a return address
// stack. The global history register is updated speculatively at predict
// time and restored from per-branch snapshots on misprediction or runahead
// exit, exactly the state the paper says runahead must checkpoint.
package bpred

import "runaheadsim/internal/isa"

// Config sizes the predictor structures. All table sizes must be powers of
// two.
type Config struct {
	BimodalEntries int
	GshareEntries  int
	ChooserEntries int
	HistoryBits    int
	BTBEntries     int
	RASEntries     int
}

// DefaultConfig matches the simulated core: 8K-entry components, 16 bits of
// global history, a 4K-entry BTB and a 16-entry RAS.
func DefaultConfig() Config {
	return Config{
		BimodalEntries: 8192,
		GshareEntries:  8192,
		ChooserEntries: 8192,
		HistoryBits:    16,
		BTBEntries:     4096,
		RASEntries:     16,
	}
}

// Predictor is the hybrid direction predictor with BTB and RAS.
type Predictor struct {
	cfg     Config
	bimodal []uint8 // 2-bit saturating counters
	gshare  []uint8
	chooser []uint8 // >= 2 selects gshare
	ghr     uint64
	ghrMask uint64

	btb []btbEntry
	ras *RAS

	// Statistics.
	Lookups     uint64
	Mispredicts uint64
	BTBMisses   uint64
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// New returns a predictor with all counters weakly not-taken.
func New(cfg Config) *Predictor {
	for _, n := range []int{cfg.BimodalEntries, cfg.GshareEntries, cfg.ChooserEntries, cfg.BTBEntries} {
		if n <= 0 || n&(n-1) != 0 {
			panic("bpred: table sizes must be positive powers of two")
		}
	}
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]uint8, cfg.BimodalEntries),
		gshare:  make([]uint8, cfg.GshareEntries),
		chooser: make([]uint8, cfg.ChooserEntries),
		ghrMask: (1 << cfg.HistoryBits) - 1,
		btb:     make([]btbEntry, cfg.BTBEntries),
		ras:     NewRAS(cfg.RASEntries),
	}
	for i := range p.bimodal {
		p.bimodal[i] = 1 // weakly not-taken
	}
	for i := range p.gshare {
		p.gshare[i] = 1
	}
	for i := range p.chooser {
		p.chooser[i] = 2 // weakly prefer gshare
	}
	return p
}

func (p *Predictor) bimodalIdx(pc uint64) int {
	return int((pc >> 3) & uint64(p.cfg.BimodalEntries-1))
}

func (p *Predictor) gshareIdx(pc uint64) int {
	return int(((pc >> 3) ^ p.ghr) & uint64(p.cfg.GshareEntries-1))
}

func (p *Predictor) gshareIdxWithGHR(pc, ghr uint64) int {
	return int(((pc >> 3) ^ ghr) & uint64(p.cfg.GshareEntries-1))
}

func (p *Predictor) chooserIdx(pc uint64) int {
	return int((pc >> 3) & uint64(p.cfg.ChooserEntries-1))
}

// Prediction is the result of a direction lookup, carrying everything needed
// to update the tables later under the history that produced the prediction.
type Prediction struct {
	Taken      bool
	GHRBefore  uint64 // history before the speculative update
	UsedGshare bool
}

// PredictDirection predicts the direction of the conditional branch at pc and
// speculatively shifts the outcome into the global history.
func (p *Predictor) PredictDirection(pc uint64) Prediction {
	p.Lookups++
	bi := p.bimodal[p.bimodalIdx(pc)] >= 2
	gs := p.gshare[p.gshareIdx(pc)] >= 2
	useG := p.chooser[p.chooserIdx(pc)] >= 2
	taken := bi
	if useG {
		taken = gs
	}
	pr := Prediction{Taken: taken, GHRBefore: p.ghr, UsedGshare: useG}
	p.pushHistory(taken)
	return pr
}

// NoteUnconditional shifts a taken outcome into the history for an
// unconditional branch without consulting the tables.
func (p *Predictor) NoteUnconditional() { p.pushHistory(true) }

func (p *Predictor) pushHistory(taken bool) {
	p.ghr = (p.ghr << 1) & p.ghrMask
	if taken {
		p.ghr |= 1
	}
}

// Resolve updates the predictor for a resolved conditional branch. pr must be
// the Prediction returned by PredictDirection for this dynamic branch; the
// gshare update is performed under the history that produced the prediction.
func (p *Predictor) Resolve(pc uint64, pr Prediction, taken bool) {
	if taken != pr.Taken {
		p.Mispredicts++
	}
	bIdx := p.bimodalIdx(pc)
	gIdx := p.gshareIdxWithGHR(pc, pr.GHRBefore)
	cIdx := p.chooserIdx(pc)
	bCorrect := (p.bimodal[bIdx] >= 2) == taken
	gCorrect := (p.gshare[gIdx] >= 2) == taken
	p.bimodal[bIdx] = bump(p.bimodal[bIdx], taken)
	p.gshare[gIdx] = bump(p.gshare[gIdx], taken)
	if bCorrect != gCorrect {
		p.chooser[cIdx] = bump(p.chooser[cIdx], gCorrect)
	}
}

// RepairHistory restores the global history to ghrBefore with the corrected
// outcome shifted in; the core calls this when recovering from a mispredicted
// conditional branch.
func (p *Predictor) RepairHistory(ghrBefore uint64, taken bool) {
	p.ghr = ghrBefore
	p.pushHistory(taken)
}

// GHR returns the current global history (for checkpointing).
func (p *Predictor) GHR() uint64 { return p.ghr }

// SetGHR restores a checkpointed global history.
func (p *Predictor) SetGHR(v uint64) { p.ghr = v & p.ghrMask }

func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// LookupBTB returns the predicted target for the branch at pc, if any.
func (p *Predictor) LookupBTB(pc uint64) (uint64, bool) {
	e := &p.btb[(pc>>3)&uint64(p.cfg.BTBEntries-1)]
	if e.valid && e.tag == pc {
		return e.target, true
	}
	p.BTBMisses++
	return 0, false
}

// UpdateBTB records the taken target of the branch at pc.
func (p *Predictor) UpdateBTB(pc, target uint64) {
	e := &p.btb[(pc>>3)&uint64(p.cfg.BTBEntries-1)]
	e.tag, e.target, e.valid = pc, target, true
}

// Train applies one correct-path branch to the predictor the way the
// detailed core does between predicting it at fetch and resolving it: a
// conditional branch predicts, trains the tables under the history that
// produced the prediction, and on a direction mispredict repairs the history
// to the actual outcome; an unconditional branch shifts in a taken bit; CALL
// pushes its return address and RET pops one; every taken branch but RET
// writes its target into the BTB. next is the branch's correct-path
// successor. Train reports whether a conditional branch's direction was
// mispredicted.
func (p *Predictor) Train(op isa.Opcode, pc, next uint64, taken bool) bool {
	mispred := false
	switch op {
	case isa.JMP, isa.CALL:
		p.NoteUnconditional()
		if op == isa.CALL {
			p.ras.Push(pc + isa.UopBytes)
		}
	case isa.RET:
		p.NoteUnconditional()
		p.ras.Pop()
	default:
		pr := p.PredictDirection(pc)
		p.Resolve(pc, pr, taken)
		if pr.Taken != taken {
			mispred = true
			p.RepairHistory(pr.GHRBefore, taken)
		}
	}
	if taken && op != isa.RET {
		p.UpdateBTB(pc, next)
	}
	return mispred
}

// CopyFrom overwrites p's tables, history, BTB and RAS with src's, leaving
// p's statistics alone. It is how a functionally trained predictor is
// installed into a detailed core; the two must share a configuration.
func (p *Predictor) CopyFrom(src *Predictor) {
	if src.cfg != p.cfg {
		panic("bpred: copying a predictor of a different configuration")
	}
	copy(p.bimodal, src.bimodal)
	copy(p.gshare, src.gshare)
	copy(p.chooser, src.chooser)
	p.ghr = src.ghr
	copy(p.btb, src.btb)
	copy(p.ras.entries, src.ras.entries)
	p.ras.top, p.ras.depth = src.ras.top, src.ras.depth
}

// Clone returns an independent copy of p's tables, history, BTB and RAS,
// with zeroed statistics.
func (p *Predictor) Clone() *Predictor {
	c := New(p.cfg)
	c.CopyFrom(p)
	return c
}

// RAS returns the predictor's return address stack.
func (p *Predictor) RAS() *RAS { return p.ras }

// RAS is a circular return address stack. Overflow wraps (overwriting the
// oldest entry) and underflow returns garbage-but-valid zero, like hardware.
type RAS struct {
	entries []uint64
	top     int // index of the next push slot
	depth   int // current valid depth, capped at len(entries)
}

// NewRAS returns a return address stack with n entries.
func NewRAS(n int) *RAS {
	if n <= 0 {
		panic("bpred: RAS needs at least one entry")
	}
	return &RAS{entries: make([]uint64, n)}
}

// Push records a return address (on CALL).
func (r *RAS) Push(addr uint64) {
	r.entries[r.top] = addr
	r.top = (r.top + 1) % len(r.entries)
	if r.depth < len(r.entries) {
		r.depth++
	}
}

// Pop predicts the target of a RET.
func (r *RAS) Pop() uint64 {
	if r.depth == 0 {
		return 0
	}
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	return r.entries[r.top]
}

// Snapshot captures the full RAS state (it is small; the paper checkpoints
// the RAS on runahead entry).
func (r *RAS) Snapshot() RASSnapshot {
	s := RASSnapshot{top: r.top, depth: r.depth}
	s.entries = append(s.entries, r.entries...)
	return s
}

// Restore rewinds the RAS to a snapshot.
func (r *RAS) Restore(s RASSnapshot) {
	copy(r.entries, s.entries)
	r.top, r.depth = s.top, s.depth
}

// RASSnapshot is a saved RAS state.
type RASSnapshot struct {
	entries []uint64
	top     int
	depth   int
}

// ResetStats zeroes the statistics counters, preserving predictor state.
func (p *Predictor) ResetStats() {
	p.Lookups, p.Mispredicts, p.BTBMisses = 0, 0, 0
}
