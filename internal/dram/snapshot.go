package dram

import (
	"fmt"

	"runaheadsim/internal/snapshot"
)

// SnapshotTo serializes the controller. Queued requests carry completion
// closures and cannot be serialized, so the queues must be empty — memsys
// drains them before snapshotting. Bank timing fields (readyAt, busAt,
// nextRef) are absolute core cycles; they stay meaningful because the machine
// snapshot carries the core clock and resumes it, never rewinding to zero.
func (c *Controller) SnapshotTo(w *snapshot.Writer) error {
	w.Mark("dram")
	if c.queued != 0 {
		return fmt.Errorf("dram: snapshotting controller with %d queued requests", c.queued)
	}
	w.Int(c.cfg.Channels)
	w.Int(c.cfg.BanksPerChannel)
	for ch := range c.banks {
		for b := range c.banks[ch] {
			bk := &c.banks[ch][b]
			w.U64(bk.openRow)
			w.Bool(bk.hasOpen)
			w.I64(bk.readyAt)
		}
	}
	for _, v := range c.busAt {
		w.I64(v)
	}
	for _, v := range c.nextRef {
		w.I64(v)
	}
	w.U64(c.Refreshes)
	w.U64(c.Reads)
	w.U64(c.Writes)
	w.U64(c.RowHits)
	w.U64(c.RowMisses)
	w.U64(c.RowConflicts)
	w.U64(c.Rejects)
	w.Int(len(c.PerRequestor))
	for i := range c.PerRequestor {
		rs := &c.PerRequestor[i]
		w.U64(rs.Reads)
		w.U64(rs.Writes)
		w.U64(rs.RowHits)
		w.U64(rs.RowConflicts)
		w.U64(rs.WaitCycles)
	}
	for ch := range c.BankGrants {
		for b := range c.BankGrants[ch] {
			w.U64(c.BankGrants[ch][b])
			w.U64(c.BankConflicts[ch][b])
		}
	}
	return c.Latency.SnapshotTo(w)
}

// RestoreFrom reads state written by SnapshotTo into c, which must have the
// same geometry and an empty queue.
func (c *Controller) RestoreFrom(r *snapshot.Reader) error {
	r.Expect("dram")
	if c.queued != 0 {
		r.Failf("dram: restoring into controller with %d queued requests", c.queued)
		return r.Err()
	}
	if got := r.Int(); r.Err() == nil && got != c.cfg.Channels {
		r.Failf("dram: %d channels, snapshot has %d", c.cfg.Channels, got)
	}
	if got := r.Int(); r.Err() == nil && got != c.cfg.BanksPerChannel {
		r.Failf("dram: %d banks/channel, snapshot has %d", c.cfg.BanksPerChannel, got)
	}
	if r.Err() != nil {
		return r.Err()
	}
	for ch := range c.banks {
		for b := range c.banks[ch] {
			bk := &c.banks[ch][b]
			bk.openRow = r.U64()
			bk.hasOpen = r.Bool()
			bk.readyAt = r.I64()
		}
	}
	for i := range c.busAt {
		c.busAt[i] = r.I64()
	}
	for i := range c.nextRef {
		c.nextRef[i] = r.I64()
	}
	c.Refreshes = r.U64()
	c.Reads = r.U64()
	c.Writes = r.U64()
	c.RowHits = r.U64()
	c.RowMisses = r.U64()
	c.RowConflicts = r.U64()
	c.Rejects = r.U64()
	n := r.Count("dram requestor", 5*8)
	if r.Err() != nil {
		return r.Err()
	}
	c.EnsureRequestors(n)
	if len(c.PerRequestor) != n {
		r.Failf("dram: controller tracks %d requestors, snapshot has %d", len(c.PerRequestor), n)
		return r.Err()
	}
	for i := range c.PerRequestor {
		rs := &c.PerRequestor[i]
		rs.Reads = r.U64()
		rs.Writes = r.U64()
		rs.RowHits = r.U64()
		rs.RowConflicts = r.U64()
		rs.WaitCycles = r.U64()
	}
	for ch := range c.BankGrants {
		for b := range c.BankGrants[ch] {
			c.BankGrants[ch][b] = r.U64()
			c.BankConflicts[ch][b] = r.U64()
		}
	}
	return c.Latency.RestoreFrom(r)
}
