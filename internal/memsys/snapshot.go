package memsys

import (
	"fmt"

	"runaheadsim/internal/snapshot"
)

// SnapshotTo serializes the hierarchy. Scheduled events, MSHR waiters and
// queued DRAM requests have no wire format, so the whole hierarchy must be
// drained first (core.Drain runs the machine to such a
// point). Layout: shared clock/seq, the requestor count, each front's L1
// caches + MSHR files + per-requestor stats, then the shared LLC, LLC MSHRs,
// DRAM, prefetcher, and aggregate stats. The prefetch engine kind is
// recorded and verified so a snapshot taken with one engine cannot silently
// restore into another.
func (h *Hierarchy) SnapshotTo(w *snapshot.Writer) error {
	w.Mark("memsys")
	if !h.Drained() {
		return fmt.Errorf("memsys: snapshotting an undrained hierarchy (events=%d dramWait=%d llcRetry=%d arb=%d pending=%d llcMSHRs=%d)",
			len(h.events), h.dramWait.len(), len(h.llcRetry), h.arb.pending,
			h.mem.Pending(), h.llcMSHR.Outstanding())
	}
	w.I64(h.now)
	w.U64(h.seq)
	w.Int(len(h.fr))
	w.Int(h.arb.next)
	for i := range h.fr {
		f := &h.fr[i]
		for _, c := range []interface {
			SnapshotTo(*snapshot.Writer) error
		}{f.l1i, f.l1d, f.l1iMSHR, f.l1dMSHR} {
			if err := c.SnapshotTo(w); err != nil {
				return err
			}
		}
		st := &f.st
		for _, v := range []uint64{
			st.Loads, st.Stores, st.Fetches,
			st.LLCDemandAccesses, st.LLCDemandMisses,
			st.DRAMReadsDemand, st.DRAMReadsPrefetch, st.DRAMWrites,
			st.LLCArbGrants, st.LLCArbWaitCycles,
		} {
			w.U64(v)
		}
	}
	for _, c := range []interface {
		SnapshotTo(*snapshot.Writer) error
	}{h.llc, h.llcMSHR, h.mem} {
		if err := c.SnapshotTo(w); err != nil {
			return err
		}
	}
	w.U8(h.pfKind())
	if h.pf != nil {
		if err := h.pf.SnapshotTo(w); err != nil {
			return err
		}
	}
	w.U64(h.Loads)
	w.U64(h.Stores)
	w.U64(h.Fetches)
	w.U64(h.LLCDemandAccesses)
	w.U64(h.LLCDemandMisses)
	w.U64(h.DRAMReadsDemand)
	w.U64(h.DRAMReadsPrefetch)
	w.U64(h.DRAMWrites)
	return nil
}

// pfKind encodes the configured prefetch engine for verification on restore.
func (h *Hierarchy) pfKind() uint8 {
	switch h.pf.(type) {
	case nil:
		return 0
	default:
		if h.cfg.PrefetchKind == "delta" {
			return 2
		}
		return 1
	}
}

// RestoreFrom reads state written by SnapshotTo into h, which must be built
// from the same configuration (including requestor count) and be drained.
func (h *Hierarchy) RestoreFrom(r *snapshot.Reader) error {
	r.Expect("memsys")
	if !h.Drained() {
		r.Failf("memsys: restoring into an undrained hierarchy")
		return r.Err()
	}
	h.now = r.I64()
	h.seq = r.U64()
	if got := r.Int(); r.Err() == nil && got != len(h.fr) {
		r.Failf("memsys: hierarchy has %d requestors, snapshot has %d", len(h.fr), got)
	}
	h.arb.next = r.Int()
	if r.Err() == nil && (h.arb.next < 0 || h.arb.next >= len(h.fr)) {
		r.Failf("memsys: arbiter points at requestor %d of %d", h.arb.next, len(h.fr))
	}
	if r.Err() != nil {
		return r.Err()
	}
	for i := range h.fr {
		f := &h.fr[i]
		for _, c := range []interface {
			RestoreFrom(*snapshot.Reader) error
		}{f.l1i, f.l1d, f.l1iMSHR, f.l1dMSHR} {
			if err := c.RestoreFrom(r); err != nil {
				return err
			}
		}
		st := &f.st
		for _, p := range []*uint64{
			&st.Loads, &st.Stores, &st.Fetches,
			&st.LLCDemandAccesses, &st.LLCDemandMisses,
			&st.DRAMReadsDemand, &st.DRAMReadsPrefetch, &st.DRAMWrites,
			&st.LLCArbGrants, &st.LLCArbWaitCycles,
		} {
			*p = r.U64()
		}
	}
	for _, c := range []interface {
		RestoreFrom(*snapshot.Reader) error
	}{h.llc, h.llcMSHR, h.mem} {
		if err := c.RestoreFrom(r); err != nil {
			return err
		}
	}
	kind := r.U8()
	if r.Err() != nil {
		return r.Err()
	}
	if kind != h.pfKind() {
		r.Failf("memsys: snapshot has prefetch engine kind %d, hierarchy has %d", kind, h.pfKind())
		return r.Err()
	}
	if h.pf != nil {
		if err := h.pf.RestoreFrom(r); err != nil {
			return err
		}
	}
	h.Loads = r.U64()
	h.Stores = r.U64()
	h.Fetches = r.U64()
	h.LLCDemandAccesses = r.U64()
	h.LLCDemandMisses = r.U64()
	h.DRAMReadsDemand = r.U64()
	h.DRAMReadsPrefetch = r.U64()
	h.DRAMWrites = r.U64()
	return r.Err()
}
