package bpred

import "runaheadsim/internal/snapshot"

// SnapshotTo serializes the predictor: geometry first (so a restore into a
// differently-sized predictor fails loudly), then tables, history, BTB, RAS
// and statistics, in declaration order.
func (p *Predictor) SnapshotTo(w *snapshot.Writer) error {
	w.Mark("bpred")
	w.Int(p.cfg.BimodalEntries)
	w.Int(p.cfg.GshareEntries)
	w.Int(p.cfg.ChooserEntries)
	w.Int(p.cfg.HistoryBits)
	w.Int(p.cfg.BTBEntries)
	w.Int(p.cfg.RASEntries)
	w.Bytes64(p.bimodal)
	w.Bytes64(p.gshare)
	w.Bytes64(p.chooser)
	w.U64(p.ghr)
	for i := range p.btb {
		e := &p.btb[i]
		w.U64(e.tag)
		w.U64(e.target)
		w.Bool(e.valid)
	}
	for _, a := range p.ras.entries {
		w.U64(a)
	}
	w.Int(p.ras.top)
	w.Int(p.ras.depth)
	w.U64(p.Lookups)
	w.U64(p.Mispredicts)
	w.U64(p.BTBMisses)
	return nil
}

// RestoreFrom reads state written by SnapshotTo into p, which must have the
// same configuration.
func (p *Predictor) RestoreFrom(r *snapshot.Reader) error {
	r.Expect("bpred")
	for _, g := range []struct {
		name string
		have int
	}{
		{"bimodal entries", p.cfg.BimodalEntries},
		{"gshare entries", p.cfg.GshareEntries},
		{"chooser entries", p.cfg.ChooserEntries},
		{"history bits", p.cfg.HistoryBits},
		{"BTB entries", p.cfg.BTBEntries},
		{"RAS entries", p.cfg.RASEntries},
	} {
		if got := r.Int(); r.Err() == nil && got != g.have {
			r.Failf("bpred: %s is %d, snapshot has %d", g.name, g.have, got)
		}
	}
	if r.Err() != nil {
		return r.Err()
	}
	for _, t := range []struct {
		name string
		dst  []uint8
	}{{"bimodal", p.bimodal}, {"gshare", p.gshare}, {"chooser", p.chooser}} {
		b := r.Bytes64()
		if r.Err() != nil {
			return r.Err()
		}
		if len(b) != len(t.dst) {
			r.Failf("bpred: %s table is %d entries, snapshot has %d", t.name, len(t.dst), len(b))
			return r.Err()
		}
		copy(t.dst, b)
	}
	p.ghr = r.U64() & p.ghrMask
	for i := range p.btb {
		e := &p.btb[i]
		e.tag = r.U64()
		e.target = r.U64()
		e.valid = r.Bool()
	}
	for i := range p.ras.entries {
		p.ras.entries[i] = r.U64()
	}
	p.ras.top = r.Int()
	p.ras.depth = r.Int()
	if n := len(p.ras.entries); r.Err() == nil && (p.ras.top < 0 || p.ras.top >= n || p.ras.depth < 0 || p.ras.depth > n) {
		r.Failf("bpred: RAS top %d and depth %d do not fit %d entries", p.ras.top, p.ras.depth, n)
	}
	p.Lookups = r.U64()
	p.Mispredicts = r.U64()
	p.BTBMisses = r.U64()
	return r.Err()
}
