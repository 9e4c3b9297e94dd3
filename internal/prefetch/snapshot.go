package prefetch

import "runaheadsim/internal/snapshot"

// SnapshotTo serializes the stream engine: FDP level, streams, allocation
// history, the pollution filter (packed as bits), interval counters and
// cumulative statistics, in declaration order.
func (p *Prefetcher) SnapshotTo(w *snapshot.Writer) error {
	w.Mark("pf-stream")
	w.Int(p.cfg.Streams)
	w.Int(p.level)
	for i := range p.streams {
		s := &p.streams[i]
		w.Bool(s.valid)
		w.I64(s.dir)
		w.U64(s.last)
		w.U64(s.next)
		w.U64(s.lastUse)
	}
	w.Int(len(p.history))
	for _, h := range p.history {
		w.U64(h)
	}
	w.U64(p.stamp)
	packed := make([]byte, len(p.filter)/8)
	for i, b := range p.filter {
		if b {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	w.Bytes64(packed)
	w.U64(p.accesses)
	w.U64(p.issuedIvl)
	w.U64(p.usefulIvl)
	w.U64(p.lateIvl)
	w.U64(p.pollutIvl)
	w.U64(p.demMissIvl)
	w.U64(p.Issued)
	w.U64(p.Useful)
	w.U64(p.Late)
	w.U64(p.Pollution)
	w.U64(p.LevelUps)
	w.U64(p.LevelDns)
	return nil
}

// RestoreFrom reads state written by SnapshotTo into p, which must have the
// same stream count.
func (p *Prefetcher) RestoreFrom(r *snapshot.Reader) error {
	r.Expect("pf-stream")
	if got := r.Int(); r.Err() == nil && got != p.cfg.Streams {
		r.Failf("prefetch: %d streams, snapshot has %d", p.cfg.Streams, got)
	}
	if r.Err() != nil {
		return r.Err()
	}
	p.level = r.Int()
	for i := range p.streams {
		s := &p.streams[i]
		s.valid = r.Bool()
		s.dir = r.I64()
		s.last = r.U64()
		s.next = r.U64()
		s.lastUse = r.U64()
	}
	n := r.Count("prefetch history", 8)
	if r.Err() == nil && n > historyLen {
		r.Failf("prefetch: history holds %d lines, snapshot has %d", historyLen, n)
	}
	if r.Err() != nil {
		return r.Err()
	}
	p.history = make([]uint64, n)
	for i := range p.history {
		p.history[i] = r.U64()
	}
	p.stamp = r.U64()
	packed := r.Bytes64()
	if r.Err() != nil {
		return r.Err()
	}
	if len(packed) != len(p.filter)/8 {
		r.Failf("prefetch: pollution filter is %d bits, snapshot has %d bytes", len(p.filter), len(packed))
		return r.Err()
	}
	for i := range p.filter {
		p.filter[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	p.accesses = r.U64()
	p.issuedIvl = r.U64()
	p.usefulIvl = r.U64()
	p.lateIvl = r.U64()
	p.pollutIvl = r.U64()
	p.demMissIvl = r.U64()
	p.Issued = r.U64()
	p.Useful = r.U64()
	p.Late = r.U64()
	p.Pollution = r.U64()
	p.LevelUps = r.U64()
	p.LevelDns = r.U64()
	return r.Err()
}

// SnapshotTo serializes the delta engine: regions, stamp and statistics.
func (d *Delta) SnapshotTo(w *snapshot.Writer) error {
	w.Mark("pf-delta")
	w.Int(len(d.regions))
	for i := range d.regions {
		g := &d.regions[i]
		w.Bool(g.valid)
		w.U64(g.tag)
		w.I64(g.lastLine)
		w.I64(g.delta)
		w.U8(g.conf)
		w.U64(g.lastUse)
	}
	w.U64(d.stamp)
	w.U64(d.issued)
	w.U64(d.useful)
	w.U64(d.late)
	w.U64(d.pollution)
	return nil
}

// RestoreFrom reads state written by SnapshotTo into d, which must have the
// same region count.
func (d *Delta) RestoreFrom(r *snapshot.Reader) error {
	r.Expect("pf-delta")
	if got := r.Int(); r.Err() == nil && got != len(d.regions) {
		r.Failf("prefetch: %d delta regions, snapshot has %d", len(d.regions), got)
	}
	if r.Err() != nil {
		return r.Err()
	}
	for i := range d.regions {
		g := &d.regions[i]
		g.valid = r.Bool()
		g.tag = r.U64()
		g.lastLine = r.I64()
		g.delta = r.I64()
		g.conf = r.U8()
		g.lastUse = r.U64()
	}
	d.stamp = r.U64()
	d.issued = r.U64()
	d.useful = r.U64()
	d.late = r.U64()
	d.pollution = r.U64()
	return r.Err()
}
