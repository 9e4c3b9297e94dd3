package harness

import (
	"fmt"

	"runaheadsim/internal/stats"
)

// sensitivityBenches is the subset the sensitivity sweeps run over: the
// buffer's best case (mcf), a long-chain case (sphinx3), a stencil
// (zeusmp) and a stream (GemsFDTD).
var sensitivityBenches = []string{"zeusmp", "GemsFDTD", "sphinx3", "mcf"}

// SensBufferSize reproduces the Section 5 sensitivity analysis behind the
// 32-uop runahead buffer: sweep the buffer size (and with it the chain
// length cap) and report the IPC gain of the RB+CC system over baseline.
func SensBufferSize(r *Runner) Table {
	sizes := []int{8, 16, 32, 64, 128}
	t := Table{ID: "sens-buffer", Title: "IPC gain of RB+CC vs runahead buffer size (uops)",
		Columns: []string{"Benchmark"}}
	for _, s := range sizes {
		t.Columns = append(t.Columns, fmt.Sprint(s))
	}
	benches := r.filter(sensitivityBenches)
	gmeans := make([][]float64, len(sizes))
	for _, name := range benches {
		base := r.Result(name, Baseline)
		row := []string{name}
		for i, size := range sizes {
			rc := BufferCC
			rc.MaxChain = size
			v := r.Result(name, rc)
			ratio := v.IPC / base.IPC
			gmeans[i] = append(gmeans[i], ratio)
			row = append(row, pct(100*(ratio-1)))
		}
		t.AddRow(row...)
	}
	row := []string{"GMean"}
	for i := range sizes {
		row = append(row, pct(100*(stats.GeoMean(gmeans[i])-1)))
	}
	t.AddRow(row...)
	t.Notes = append(t.Notes, "the paper picked 32 uops through this analysis (Section 5); below ~16 long chains truncate, far above 32 nothing more is gained")
	return t
}

// SensChainCache sweeps the chain cache size. The paper keeps it at two
// entries deliberately so stale chains age out (Section 4.4).
func SensChainCache(r *Runner) Table {
	sizes := []int{1, 2, 4, 8}
	t := Table{ID: "sens-chaincache", Title: "IPC gain of RB+CC vs chain cache entries",
		Columns: []string{"Benchmark"}}
	for _, s := range sizes {
		t.Columns = append(t.Columns, fmt.Sprint(s))
	}
	benches := r.filter(sensitivityBenches)
	gmeans := make([][]float64, len(sizes))
	for _, name := range benches {
		base := r.Result(name, Baseline)
		row := []string{name}
		for i, size := range sizes {
			rc := BufferCC
			rc.CCEntries = size
			v := r.Result(name, rc)
			ratio := v.IPC / base.IPC
			gmeans[i] = append(gmeans[i], ratio)
			row = append(row, pct(100*(ratio-1)))
		}
		t.AddRow(row...)
	}
	row := []string{"GMean"}
	for i := range sizes {
		row = append(row, pct(100*(stats.GeoMean(gmeans[i])-1)))
	}
	t.AddRow(row...)
	return t
}

// ExtPrefetchers compares the paper's stream prefetcher against a
// region-delta (stride) prefetcher — the related-work alternative of
// Section 2 — and against the hybrid runahead policy, over the medium+high
// suite. The point the paper makes indirectly: address-prediction
// prefetchers each cover one pattern class, while runahead covers whatever
// the program's own code computes.
func ExtPrefetchers(r *Runner) Table {
	configs := []RunConfig{Baseline.WithPF(), DeltaPF, Hybrid}
	t := Table{ID: "ext-prefetchers", Title: "% IPC over no-PF baseline: stream PF vs delta (stride) PF vs hybrid runahead",
		Columns: []string{"Benchmark", "StreamPF", "DeltaPF", "Hybrid"}}
	gmeans := make([][]float64, len(configs))
	for _, name := range r.mhNames() {
		base := r.Result(name, Baseline)
		row := []string{name}
		for i, rc := range configs {
			v := r.Result(name, rc)
			ratio := v.IPC / base.IPC
			gmeans[i] = append(gmeans[i], ratio)
			row = append(row, pct(100*(ratio-1)))
		}
		t.AddRow(row...)
	}
	row := []string{"GMean"}
	for i := range configs {
		row = append(row, pct(100*(stats.GeoMean(gmeans[i])-1)))
	}
	t.AddRow(row...)
	t.Notes = append(t.Notes,
		"extension beyond the paper: the delta engine covers the strided stencils the stream engine misses, but neither covers the gathers — runahead does")
	return t
}

// ExtAdaptive compares the paper's hybrid policy against the adaptive
// extension over the medium+high suite.
func ExtAdaptive(r *Runner) Table {
	configs := []RunConfig{Hybrid, AdaptiveHybrid}
	t := Table{ID: "ext-adaptive", Title: "% IPC over no-PF baseline: Figure 8 hybrid vs feedback-directed adaptive hybrid",
		Columns: append(columns(configs), "Demotions")}
	gmeans := make([][]float64, len(configs))
	for _, name := range r.mhNames() {
		base := r.Result(name, Baseline)
		row := []string{name}
		for i, rc := range configs {
			v := r.Result(name, rc)
			ratio := v.IPC / base.IPC
			gmeans[i] = append(gmeans[i], ratio)
			row = append(row, pct(100*(ratio-1)))
		}
		row = append(row, fmt.Sprint(r.Result(name, AdaptiveHybrid).Stats.AdaptiveDemotions))
		t.AddRow(row...)
	}
	row := []string{"GMean"}
	for i := range configs {
		row = append(row, pct(100*(stats.GeoMean(gmeans[i])-1)))
	}
	t.AddRow(append(row, "")...)
	t.Notes = append(t.Notes,
		"extension beyond the paper: per-PC feedback skips runahead intervals whose chains historically generate no buffer-driven misses")
	return t
}
