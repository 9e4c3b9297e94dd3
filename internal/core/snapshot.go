package core

import (
	"fmt"
	"reflect"
	"sort"

	"runaheadsim/internal/prog"
	"runaheadsim/internal/snapshot"
	"runaheadsim/internal/stats"
)

// MachineKind is the container kind of a whole-machine snapshot.
const MachineKind = "machine"

// NewStats returns a zeroed Stats with its histograms allocated — the same
// shape newStats gives a fresh core. The sampled-simulation engine merges
// per-interval results into one of these.
func NewStats() *Stats { return newStats() }

// NewPlaceholderStats returns a Stats that stands in for a run that has not
// happened yet: histograms allocated, and the denominators (cycles,
// committed instructions) set to 1 so figure builders that divide don't
// trip. The stat-ownership rule keeps these writes inside the core package.
func NewPlaceholderStats() *Stats {
	st := newStats()
	st.Cycles, st.Committed = 1, 1
	return st
}

// SnapshotTo serializes every counter by reflection in declaration order,
// with the field name on the wire: a restore into a build whose Stats struct
// drifted fails on the first mismatched name instead of silently shearing
// every later counter.
func (s *Stats) SnapshotTo(w *snapshot.Writer) error {
	w.Mark("stats")
	v := reflect.ValueOf(s).Elem()
	t := v.Type()
	w.Int(t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := v.Field(i)
		w.Str(t.Field(i).Name)
		switch f.Kind() {
		case reflect.Int64:
			w.I64(f.Int())
		case reflect.Uint64:
			w.U64(f.Uint())
		case reflect.Array: // CPIStack
			w.Int(f.Len())
			for j := 0; j < f.Len(); j++ {
				w.I64(f.Index(j).Int())
			}
		case reflect.Ptr: // *stats.Histogram
			h, ok := f.Interface().(*stats.Histogram)
			if !ok || h == nil {
				return fmt.Errorf("core: stats field %s is not a histogram", t.Field(i).Name)
			}
			if err := h.SnapshotTo(w); err != nil {
				return err
			}
		default:
			return fmt.Errorf("core: stats field %s has unserializable kind %v", t.Field(i).Name, f.Kind())
		}
	}
	return nil
}

// RestoreFrom reads counters written by SnapshotTo into s.
func (s *Stats) RestoreFrom(r *snapshot.Reader) error {
	r.Expect("stats")
	v := reflect.ValueOf(s).Elem()
	t := v.Type()
	if n := r.Int(); r.Err() == nil && n != t.NumField() {
		r.Failf("core: stats has %d fields, snapshot has %d", t.NumField(), n)
	}
	if r.Err() != nil {
		return r.Err()
	}
	for i := 0; i < t.NumField(); i++ {
		f := v.Field(i)
		name := r.Str()
		if r.Err() != nil {
			return r.Err()
		}
		if name != t.Field(i).Name {
			r.Failf("core: stats field %d is %s, snapshot has %s", i, t.Field(i).Name, name)
			return r.Err()
		}
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(r.I64())
		case reflect.Uint64:
			f.SetUint(r.U64())
		case reflect.Array:
			if n := r.Int(); r.Err() == nil && n != f.Len() {
				r.Failf("core: stats array %s has %d entries, snapshot has %d", name, f.Len(), n)
			}
			if r.Err() != nil {
				return r.Err()
			}
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetInt(r.I64())
			}
		case reflect.Ptr:
			h := f.Interface().(*stats.Histogram)
			if err := h.RestoreFrom(r); err != nil {
				return err
			}
		}
	}
	return r.Err()
}

// Merge folds o's counters into s: scalar counters and the CPI stack add,
// histograms merge. The sampled-simulation engine uses it to combine
// per-interval measurements into whole-program figures.
func (s *Stats) Merge(o *Stats) {
	v := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, of := v.Field(i), ov.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(f.Int() + of.Int())
		case reflect.Uint64:
			f.SetUint(f.Uint() + of.Uint())
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetInt(f.Index(j).Int() + of.Index(j).Int())
			}
		case reflect.Ptr:
			if h, ok := f.Interface().(*stats.Histogram); ok && h != nil {
				if oh, ok := of.Interface().(*stats.Histogram); ok && oh != nil {
					h.Merge(oh)
				}
			}
		}
	}
}

// MergeScaled folds o's counters into s scaled by the rational num/den
// (round-to-nearest): the phase-weighted sampled engine extrapolates one
// representative window's counters to the full uop weight of its phase.
// MergeScaled(o, w, w) is exactly Merge(o). Histogram MaxSeen fields are
// extrema, not counts, and merge unscaled.
func (s *Stats) MergeScaled(o *Stats, num, den uint64) {
	if num == den {
		s.Merge(o)
		return
	}
	v := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, of := v.Field(i), ov.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(f.Int() + stats.ScaleI64(of.Int(), num, den))
		case reflect.Uint64:
			f.SetUint(f.Uint() + stats.ScaleU64(of.Uint(), num, den))
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetInt(f.Index(j).Int() + stats.ScaleI64(of.Index(j).Int(), num, den))
			}
		case reflect.Ptr:
			if h, ok := f.Interface().(*stats.Histogram); ok && h != nil {
				if oh, ok := of.Interface().(*stats.Histogram); ok && oh != nil {
					h.MergeScaled(oh, num, den)
				}
			}
		}
	}
}

// configFingerprint digests the full configuration. Config is maps-free, so
// the %+v rendering is deterministic, and any parameter difference — pipeline
// widths, cache geometry, runahead mode — changes the digest. The Scheduler,
// ClockMode, DRAM Reference, and FlightRecorderEvents fields are zeroed
// first: they differ only in simulator speed or observability, never in
// simulated behavior, so snapshots taken under any combination interoperate
// (and the equivalence tests compare digests across them directly).
func configFingerprint(cfg Config) uint64 {
	cfg.Scheduler = SchedEvent
	cfg.ClockMode = ClockWarp
	cfg.Mem.DRAM.Reference = false
	cfg.FlightRecorderEvents = 0
	return snapshot.HashString(fmt.Sprintf("%+v", cfg))
}

// Snapshot serializes the whole machine into a self-verifying container. The
// core must be quiesced (call Drain first); dependence-walk instrumentation
// holds cross-interval state with no wire format, so DepTrack cores refuse to
// snapshot.
func (c *Core) Snapshot() ([]byte, error) {
	if c.cfg.DepTrack {
		return nil, fmt.Errorf("core: DepTrack cores cannot be snapshotted (dependence tracker state has no wire format)")
	}
	if !c.Quiesced() {
		return nil, fmt.Errorf("core: snapshotting a non-quiesced core; call Drain first\n%s", c.dump())
	}
	c.normalizeDrained()
	w := &snapshot.Writer{}
	if err := c.snapshotTo(w); err != nil {
		return nil, err
	}
	return snapshot.Encode(MachineKind, w.Bytes()), nil
}

func (c *Core) snapshotTo(w *snapshot.Writer) error {
	if err := c.snapshotCoreTo(w); err != nil {
		return err
	}
	return c.h.SnapshotTo(w)
}

// SnapshotCoreTo serializes the core-only state (pipeline, runahead
// controller, predictor, architectural memory) without the memory hierarchy.
// The multi-core container writes one such section per core followed by a
// single shared-hierarchy section; single-core snapshots append the private
// hierarchy to the same bytes. The core must be quiesced and drained.
func (c *Core) SnapshotCoreTo(w *snapshot.Writer) error {
	if c.cfg.DepTrack {
		return fmt.Errorf("core: DepTrack cores cannot be snapshotted (dependence tracker state has no wire format)")
	}
	if !c.Quiesced() {
		return fmt.Errorf("core: snapshotting a non-quiesced core\n%s", c.dump())
	}
	c.normalizeDrained()
	return c.snapshotCoreTo(w)
}

func (c *Core) snapshotCoreTo(w *snapshot.Writer) error {
	w.Mark("core")
	w.U64(configFingerprint(c.cfg))
	w.Str(c.p.Name)
	w.Int(c.p.NumUops())
	w.U64(c.p.TextDigest())

	w.I64(c.now)
	w.U64(c.seq)
	for _, v := range c.archVal {
		w.I64(v)
	}
	w.U64(c.fetchPC)
	w.I64(c.fetchStallUntil)
	w.U64(c.fetchGen)
	w.U64(c.lastFetchLine)
	w.I64(c.lastProgress)
	w.I64(c.statsZero)
	w.I64(c.branchRecoverUntil)
	w.I64(c.raRecoverUntil)

	// Persistent runahead-controller state: everything else in raState is
	// (re)written at the next interval entry or only read while active.
	w.Mark("ra")
	w.U64(c.ra.lastAttempt)
	w.I64(c.ra.retryAt)
	w.Bool(c.ra.noRetry)
	w.U64(c.ra.furthestReach)
	w.Bool(c.ra.haveFurthestReach)

	w.Mark("missage")
	ages := make([]uint64, 0, len(c.missAge))
	//simlint:allow determinism -- keys are sorted before use
	for line := range c.missAge {
		ages = append(ages, line)
	}
	sort.Slice(ages, func(i, j int) bool { return ages[i] < ages[j] })
	w.Int(len(ages))
	for _, line := range ages {
		w.U64(line)
		w.I64(c.missAge[line])
	}

	w.Mark("pcscore")
	pcs := make([]uint64, 0, len(c.pcScore))
	//simlint:allow determinism -- keys are sorted before use
	for pc := range c.pcScore {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	w.Int(len(pcs))
	for _, pc := range pcs {
		w.U64(pc)
		w.U8(c.pcScore[pc])
	}

	if err := c.st.SnapshotTo(w); err != nil {
		return err
	}

	// Chain cache: chains store decoded uops; only (index, PC) goes on the
	// wire and the uop is rebuilt from the program text on restore.
	w.Mark("ccache")
	w.U64(c.ccache.stamp)
	w.U64(c.ccache.HitCount)
	w.U64(c.ccache.MissCount)
	w.Int(len(c.ccache.entries))
	for i := range c.ccache.entries {
		e := &c.ccache.entries[i]
		w.Bool(e.valid)
		w.U64(e.pc)
		w.U64(e.lastUse)
		w.U64(e.chain.BlockingPC)
		w.U64(e.chain.Signature)
		w.Int(len(e.chain.Uops))
		for _, cu := range e.chain.Uops {
			w.Int(cu.Index)
			w.U64(cu.PC)
		}
	}

	// Runahead cache: contents are reset on every runahead exit and written
	// only during runahead, so at quiescence only stamp and statistics carry
	// state.
	w.Mark("racache")
	w.U64(c.racache.stamp)
	w.U64(c.racache.Writes)
	w.U64(c.racache.Hits)
	w.U64(c.racache.Misses)

	if err := c.bp.SnapshotTo(w); err != nil {
		return err
	}
	return c.mem.SnapshotTo(w)
}

// RestoreCore decodes a whole-machine snapshot into a fresh core built from
// cfg and p. The configuration fingerprint and program text digest must match
// the snapshot's; a restored core continues bit-for-bit identically to the
// machine that was snapshotted.
func RestoreCore(data []byte, cfg Config, p *prog.Program) (*Core, error) {
	if cfg.DepTrack {
		return nil, fmt.Errorf("core: DepTrack cores cannot be restored from a snapshot")
	}
	payload, err := snapshot.Decode(data, MachineKind)
	if err != nil {
		return nil, err
	}
	c := New(cfg, p)
	r := snapshot.NewReader(payload)
	if err := c.restoreFrom(r); err != nil {
		return nil, err
	}
	if rest := r.Rest(); len(rest) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after machine snapshot", len(rest))
	}
	return c, nil
}

func (c *Core) restoreFrom(r *snapshot.Reader) error {
	if err := c.restoreCoreFrom(r); err != nil {
		return err
	}
	if err := c.h.RestoreFrom(r); err != nil {
		return err
	}
	c.normalizeDrained()
	return nil
}

// RestoreCoreFrom reads the core-only state written by SnapshotCoreTo into
// c, which must be freshly built (from the same configuration and program)
// and not yet run. The caller restores the shared hierarchy separately.
func (c *Core) RestoreCoreFrom(r *snapshot.Reader) error {
	if c.cfg.DepTrack {
		return fmt.Errorf("core: DepTrack cores cannot be restored from a snapshot")
	}
	if err := c.restoreCoreFrom(r); err != nil {
		return err
	}
	c.normalizeDrained()
	return nil
}

func (c *Core) restoreCoreFrom(r *snapshot.Reader) error {
	r.Expect("core")
	if fp := r.U64(); r.Err() == nil && fp != configFingerprint(c.cfg) {
		r.Failf("core: snapshot was taken under a different configuration (fingerprint %#x, this core %#x)", fp, configFingerprint(c.cfg))
	}
	if name := r.Str(); r.Err() == nil && name != c.p.Name {
		r.Failf("core: snapshot is of program %q, this core runs %q", name, c.p.Name)
	}
	if n := r.Int(); r.Err() == nil && n != c.p.NumUops() {
		r.Failf("core: snapshot program has %d uops, this core's has %d", n, c.p.NumUops())
	}
	if d := r.U64(); r.Err() == nil && d != c.p.TextDigest() {
		r.Failf("core: snapshot program text digest mismatch (snapshot %#x, this core %#x)", d, c.p.TextDigest())
	}
	if r.Err() != nil {
		return r.Err()
	}

	c.now = r.I64()
	c.seq = r.U64()
	for i := range c.archVal {
		c.archVal[i] = r.I64()
	}
	c.fetchPC = r.U64()
	c.fetchStallUntil = r.I64()
	c.fetchGen = r.U64()
	c.lastFetchLine = r.U64()
	c.lastProgress = r.I64()
	c.statsZero = r.I64()
	c.branchRecoverUntil = r.I64()
	c.raRecoverUntil = r.I64()

	r.Expect("ra")
	c.ra.lastAttempt = r.U64()
	c.ra.retryAt = r.I64()
	c.ra.noRetry = r.Bool()
	c.ra.furthestReach = r.U64()
	c.ra.haveFurthestReach = r.Bool()

	// Every count below comes from the input: Reader.Count bounds it by what
	// the rest of the payload can hold before it sizes anything.
	r.Expect("missage")
	n := r.Count("missage", 16)
	if r.Err() != nil {
		return r.Err()
	}
	c.missAge = make(map[uint64]int64, n)
	for i := 0; i < n; i++ {
		line := r.U64()
		c.missAge[line] = r.I64()
	}

	r.Expect("pcscore")
	n = r.Count("pcscore", 9)
	if r.Err() != nil {
		return r.Err()
	}
	// An absent table and an empty one behave identically; restore count==0
	// as nil so a re-snapshot of the restored core is byte-identical.
	c.pcScore = nil
	if n > 0 {
		c.pcScore = make(map[uint64]uint8, n)
		for i := 0; i < n; i++ {
			pc := r.U64()
			c.pcScore[pc] = r.U8()
		}
	}

	if err := c.st.RestoreFrom(r); err != nil {
		return err
	}

	r.Expect("ccache")
	c.ccache.stamp = r.U64()
	c.ccache.HitCount = r.U64()
	c.ccache.MissCount = r.U64()
	if n := r.Int(); r.Err() == nil && n != len(c.ccache.entries) {
		r.Failf("core: chain cache has %d entries, snapshot has %d", len(c.ccache.entries), n)
	}
	if r.Err() != nil {
		return r.Err()
	}
	for i := range c.ccache.entries {
		e := &c.ccache.entries[i]
		e.valid = r.Bool()
		e.pc = r.U64()
		e.lastUse = r.U64()
		e.chain.BlockingPC = r.U64()
		e.chain.Signature = r.U64()
		nu := r.Count("chain uop", 16)
		if r.Err() != nil {
			return r.Err()
		}
		e.chain.Uops = make([]ChainUop, nu)
		for j := range e.chain.Uops {
			idx := r.Int()
			pc := r.U64()
			if r.Err() != nil {
				return r.Err()
			}
			if idx < 0 || idx >= c.p.NumUops() {
				r.Failf("core: cached chain references uop index %d of %d", idx, c.p.NumUops())
				return r.Err()
			}
			e.chain.Uops[j] = ChainUop{U: c.p.Uops[idx], PC: pc, Index: idx}
		}
	}

	r.Expect("racache")
	c.racache.stamp = r.U64()
	c.racache.Writes = r.U64()
	c.racache.Hits = r.U64()
	c.racache.Misses = r.U64()

	if err := c.bp.RestoreFrom(r); err != nil {
		return err
	}
	if err := c.mem.RestoreFrom(r); err != nil {
		return err
	}
	return r.Err()
}
