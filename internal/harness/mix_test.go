package harness

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func testMixOptions() Options {
	return Options{MeasureUops: 8_000, WarmupUops: 4_000}
}

// TestRunMixDeterministic: two independent runners over the same mix must
// agree on every metric — the cluster is deterministic and the fairness math
// is pure.
func TestRunMixDeterministic(t *testing.T) {
	mix := []string{"libquantum", "mcf"}
	a := NewRunner(testMixOptions()).RunMix(mix, Buffer)
	b := NewRunner(testMixOptions()).RunMix(mix, Buffer)
	if a.WeightedSpeedup != b.WeightedSpeedup || a.HmeanSlowdown != b.HmeanSlowdown || a.MaxSlowdown != b.MaxSlowdown {
		t.Fatalf("mix metrics diverge across identical runs: %+v vs %+v", a, b)
	}
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			t.Fatalf("core %d diverges: %+v vs %+v", i, a.Cores[i], b.Cores[i])
		}
	}
}

// TestRunMixMemoized: the same runner must simulate each (mix, config) pair
// once and return the identical result thereafter.
func TestRunMixMemoized(t *testing.T) {
	r := NewRunner(testMixOptions())
	mix := []string{"milc", "omnetpp"}
	a := r.RunMix(mix, Baseline)
	if b := r.RunMix(mix, Baseline); a != b {
		t.Fatal("second RunMix did not return the memoized result")
	}
}

// TestRunMixMetricsSane bounds the fairness arithmetic: weighted speedup in
// (0, N], slowdowns positive, every core finished, per-core rows present.
func TestRunMixMetricsSane(t *testing.T) {
	mix := DefaultMix(2)
	res := NewRunner(testMixOptions()).RunMix(mix, Buffer)
	n := float64(len(mix))
	if res.WeightedSpeedup <= 0 || res.WeightedSpeedup > n*1.5 {
		t.Fatalf("weighted speedup %.2f out of range (0, %.1f]", res.WeightedSpeedup, n*1.5)
	}
	if res.HmeanSlowdown <= 0 || res.MaxSlowdown <= 0 || res.HmeanSlowdown > res.MaxSlowdown+1e-9 {
		t.Fatalf("slowdown summary inconsistent: hmean=%.2f max=%.2f", res.HmeanSlowdown, res.MaxSlowdown)
	}
	if len(res.Cores) != len(mix) {
		t.Fatalf("%d core rows for a %d-core mix", len(res.Cores), len(mix))
	}
	for _, c := range res.Cores {
		if c.FinishCycles <= 0 || c.IPCShared <= 0 || c.IPCAlone <= 0 {
			t.Fatalf("core %d has degenerate metrics: %+v", c.Core, c)
		}
	}
}

// TestMixResultJSONKeyedByCore pins the report contract: per-core stats
// serialize under a "cores" object keyed by core ID, not as a bare array.
func TestMixResultJSONKeyedByCore(t *testing.T) {
	res := NewRunner(testMixOptions()).RunMix([]string{"libquantum", "mcf"}, Baseline)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Mix   []string           `json:"mix"`
		Cores map[string]MixCore `json:"cores"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("mix JSON is not an object with a cores map: %v\n%s", err, data)
	}
	for _, id := range []string{"0", "1"} {
		if _, ok := decoded.Cores[id]; !ok {
			t.Fatalf("cores map missing key %q: %s", id, data)
		}
	}
	if decoded.Cores["1"].Bench != "mcf" {
		t.Fatalf("core 1 should run mcf: %s", data)
	}
}

// recordingMonitor collects per-core units (the Monitor interval slot
// carries the core index for mixes). The alone-IPC reference runs
// report through the same Monitor with interval -1, so assertions filter on
// the mix's "/mc" config label.
type recordingMonitor struct {
	mu     sync.Mutex
	phases map[string][]int // "bench|config" -> intervals seen
	starts []string
}

func (m *recordingMonitor) RunStart(bench, config string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.starts = append(m.starts, bench+"|"+config)
}
func (m *recordingMonitor) RunDone(bench, config string) {}
func (m *recordingMonitor) Phase(bench, config string, interval int, phase string, total uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.phases == nil {
		m.phases = make(map[string][]int)
	}
	k := bench + "|" + config
	m.phases[k] = append(m.phases[k], interval)
}
func (m *recordingMonitor) Done(bench, config string, interval int) {}

// TestMixMonitorPerCoreLabels: a mix run must report one unit per core to
// the Monitor — bench = the member kernel, interval = the core index.
func TestMixMonitorPerCoreLabels(t *testing.T) {
	mon := &recordingMonitor{}
	opts := testMixOptions()
	opts.Monitor = mon
	mix := []string{"libquantum", "mcf"}
	NewRunner(opts).RunMix(mix, Buffer)

	mon.mu.Lock()
	defer mon.mu.Unlock()
	var mixStart bool
	for _, s := range mon.starts {
		if strings.Contains(s, "libquantum+mcf") {
			mixStart = true
		}
	}
	if !mixStart {
		t.Fatalf("mix run never RunStarted under the joined mix name: %v", mon.starts)
	}
	for i, b := range mix {
		ivs := mon.phases[b+"|RB/mc2"]
		if len(ivs) == 0 {
			t.Fatalf("no Phase reports for mix member %s under the mix label (saw %v)", b, mon.phases)
		}
		for _, iv := range ivs {
			if iv != i {
				t.Fatalf("%s reported interval %d, want core index %d", b, iv, i)
			}
		}
	}
}
