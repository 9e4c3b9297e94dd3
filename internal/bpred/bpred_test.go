package bpred

import (
	"testing"
	"testing/quick"

	"runaheadsim/internal/isa"
)

func newTest() *Predictor {
	cfg := DefaultConfig()
	cfg.BimodalEntries = 256
	cfg.GshareEntries = 256
	cfg.ChooserEntries = 256
	cfg.BTBEntries = 64
	return New(cfg)
}

func TestAlwaysTakenLearns(t *testing.T) {
	p := newTest()
	pc := uint64(0x400100)
	wrong := 0
	for i := 0; i < 100; i++ {
		pr := p.PredictDirection(pc)
		if !pr.Taken {
			wrong++
		}
		p.Resolve(pc, pr, true)
	}
	if wrong > 3 {
		t.Fatalf("always-taken branch mispredicted %d/100 times", wrong)
	}
}

func TestAlternatingPatternLearnedByGshare(t *testing.T) {
	p := newTest()
	pc := uint64(0x400200)
	taken := false
	wrong := 0
	for i := 0; i < 400; i++ {
		pr := p.PredictDirection(pc)
		if pr.Taken != taken {
			wrong++
			// The core repairs the speculative history on every
			// misprediction; without this the gshare history never matches
			// the path that trained it.
			p.RepairHistory(pr.GHRBefore, taken)
		}
		p.Resolve(pc, pr, taken)
		taken = !taken
	}
	// Bimodal cannot learn T/N/T/N; gshare + chooser must pick it up, so the
	// steady-state accuracy should be high.
	if wrong > 60 {
		t.Fatalf("alternating pattern mispredicted %d/400 times", wrong)
	}
}

func TestMispredictCounting(t *testing.T) {
	p := newTest()
	pc := uint64(0x400300)
	pr := p.PredictDirection(pc)
	p.Resolve(pc, pr, !pr.Taken)
	if p.Mispredicts != 1 {
		t.Fatalf("Mispredicts = %d, want 1", p.Mispredicts)
	}
	if p.Lookups != 1 {
		t.Fatalf("Lookups = %d, want 1", p.Lookups)
	}
}

func TestHistoryRepair(t *testing.T) {
	p := newTest()
	pc := uint64(0x400400)
	pr := p.PredictDirection(pc)
	// Pretend more speculative branches polluted the history.
	p.NoteUnconditional()
	p.NoteUnconditional()
	p.RepairHistory(pr.GHRBefore, true)
	want := (pr.GHRBefore << 1) | 1
	if p.GHR() != want&p.ghrMask {
		t.Fatalf("GHR after repair = %#x, want %#x", p.GHR(), want)
	}
}

func TestGHRBounded(t *testing.T) {
	p := newTest()
	f := func(n uint8) bool {
		for i := 0; i < int(n); i++ {
			p.NoteUnconditional()
		}
		return p.GHR() <= p.ghrMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetGHRMasks(t *testing.T) {
	p := newTest()
	p.SetGHR(^uint64(0))
	if p.GHR() != p.ghrMask {
		t.Fatalf("SetGHR did not mask: %#x", p.GHR())
	}
}

func TestBTB(t *testing.T) {
	p := newTest()
	if _, ok := p.LookupBTB(0x400500); ok {
		t.Fatal("empty BTB must miss")
	}
	if p.BTBMisses != 1 {
		t.Fatal("BTB miss not counted")
	}
	p.UpdateBTB(0x400500, 0x400800)
	tgt, ok := p.LookupBTB(0x400500)
	if !ok || tgt != 0x400800 {
		t.Fatalf("BTB lookup = %#x,%v", tgt, ok)
	}
	// A conflicting PC (same index, different tag) must evict.
	conflict := 0x400500 + uint64(64*8)
	p.UpdateBTB(conflict, 0x400900)
	if _, ok := p.LookupBTB(0x400500); ok {
		t.Fatal("direct-mapped BTB should have evicted the old entry")
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := uint64(3); want >= 1; want-- {
		if got := r.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if got := r.Pop(); got != 0 {
		t.Fatalf("underflow Pop = %d, want 0", got)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if got := r.Pop(); got != 3 {
		t.Fatalf("Pop = %d, want 3", got)
	}
	if got := r.Pop(); got != 2 {
		t.Fatalf("Pop = %d, want 2", got)
	}
	if got := r.Pop(); got != 0 {
		t.Fatalf("beyond capacity Pop = %d, want 0", got)
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(4)
	r.Push(10)
	r.Push(20)
	snap := r.Snapshot()
	r.Pop()
	r.Push(99)
	r.Push(98)
	r.Restore(snap)
	if got := r.Pop(); got != 20 {
		t.Fatalf("after restore Pop = %d, want 20", got)
	}
	if got := r.Pop(); got != 10 {
		t.Fatalf("after restore Pop = %d, want 10", got)
	}
}

func TestNewValidatesSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two table size must panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.BimodalEntries = 100
	New(cfg)
}

func TestBumpSaturates(t *testing.T) {
	if bump(3, true) != 3 {
		t.Fatal("bump must saturate at 3")
	}
	if bump(0, false) != 0 {
		t.Fatal("bump must saturate at 0")
	}
	if bump(1, true) != 2 || bump(2, false) != 1 {
		t.Fatal("bump must move by one")
	}
}

// Distinct PCs train independently in the bimodal table (no aliasing for
// adjacent uop addresses within table reach).
func TestNoAliasingForAdjacentPCs(t *testing.T) {
	p := newTest()
	pcA, pcB := uint64(0x400000), uint64(0x400008)
	for i := 0; i < 50; i++ {
		prA := p.PredictDirection(pcA)
		p.Resolve(pcA, prA, true)
		prB := p.PredictDirection(pcB)
		p.Resolve(pcB, prB, false)
	}
	if pr := p.PredictDirection(pcA); !pr.Taken {
		t.Fatal("pcA should predict taken")
	}
	if pr := p.PredictDirection(pcB); pr.Taken {
		t.Fatal("pcB should predict not-taken")
	}
}

// TestTrainCallRetAndCopy checks the correct-path training of unconditional
// branches — CALL pushes its return address and writes the BTB, RET pops and
// leaves the BTB alone, both shift a taken bit — and that Clone (through
// CopyFrom) carries tables, history, BTB and RAS but no statistics.
func TestTrainCallRetAndCopy(t *testing.T) {
	p := newTest()
	call, fn := uint64(0x400100), uint64(0x400800)
	ret := fn + 3*isa.UopBytes
	if p.Train(isa.CALL, call, fn, true) {
		t.Fatal("an unconditional branch reported a direction mispredict")
	}
	if tgt, ok := p.LookupBTB(call); !ok || tgt != fn {
		t.Fatalf("BTB after CALL: %#x, %v; want %#x", tgt, ok, fn)
	}
	p.Train(isa.RET, ret, call+isa.UopBytes, true)
	if _, ok := p.LookupBTB(ret); ok {
		t.Fatal("RET wrote the BTB")
	}
	if p.GHR()&3 != 3 {
		t.Fatalf("history %b: CALL and RET must each shift in a taken bit", p.GHR())
	}
	p.Train(isa.CALL, call, fn, true)
	for i := 0; i < 20; i++ {
		p.Train(isa.BNEZ, 0x400200, 0x400180, true)
	}

	q := p.Clone()
	if q.Lookups != 0 || q.Mispredicts != 0 || q.BTBMisses != 0 {
		t.Fatalf("Clone copied statistics: %d lookups, %d mispredicts, %d BTB misses", q.Lookups, q.Mispredicts, q.BTBMisses)
	}
	if q.GHR() != p.GHR() {
		t.Fatalf("history %b, want %b", q.GHR(), p.GHR())
	}
	if got := q.RAS().Pop(); got != call+isa.UopBytes {
		t.Fatalf("copied RAS pops %#x, want %#x", got, call+isa.UopBytes)
	}
	if !q.PredictDirection(0x400200).Taken {
		t.Fatal("copied tables forgot a trained always-taken branch")
	}
}
