// The analytical-twin entry points of runahead-sweep: -calibrate fits the
// interval model against detailed runs and persists the artifact,
// -screen runs a screened sweep (twin predictions everywhere, detailed
// simulation only on promoted regions), and -bench-twin measures the twin's
// accuracy and the screened sweep's cost against the full-detail reference.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"runaheadsim/internal/harness"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/twin"
)

// screenFlags carries the -screen-* knobs.
type screenFlags struct {
	topK      int
	uncertain float64
	critical  []string
}

func (sf screenFlags) options(model *twin.Model) harness.ScreenOptions {
	return harness.ScreenOptions{Model: model, TopK: sf.topK, UncertainPct: sf.uncertain, Critical: sf.critical}
}

// runCalibrate handles -calibrate: run the detailed calibration matrix, fit
// the twin, persist the artifact, and print the accuracy scores.
func runCalibrate(path string, opts harness.Options, benchSet []string, workers int, stderr io.Writer) int {
	r := harness.NewRunner(opts)
	model, points, err := r.Calibrate(benchSet, nil, workers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := model.Save(path); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "calibrate: %d points, %d groups, IPC MAPE %.2f%%, Pearson r %.4f, energy MAPE %.2f%% -> %s\n",
		len(points), len(model.Groups), model.Scores.MAPEPct, model.Scores.PearsonR, model.Scores.EnergyMAPEPct, path)
	for _, row := range model.Scores.PerWorkload {
		fmt.Fprintf(stderr, "calibrate: %-12s %d points, MAPE %5.2f%%\n", row.Name, row.Points, row.MAPEPct)
	}
	return 0
}

// loadTwin loads and fingerprint-checks the calibration artifact, warning
// when the run's measured length differs from the calibration's (the
// coefficients are largely scale-free but the accuracy scores are not).
func loadTwin(path string, measureUops uint64, stderr io.Writer) (*twin.Model, bool) {
	model, err := twin.Load(path, harness.TwinFingerprint())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, false
	}
	if model.MeasureUops != 0 && model.MeasureUops != measureUops {
		fmt.Fprintf(stderr, "warning: %s was calibrated at %d measured uops, this run uses %d: accuracy scores do not transfer, consider recalibrating\n",
			path, model.MeasureUops, measureUops)
	}
	return model, true
}

// twinReport is the BENCH_twin.json schema: the twin's calibration accuracy
// plus the screened sweep's cost and fidelity against full detail.
type twinReport struct {
	Experiments     string      `json:"experiments"`
	Benches         int         `json:"benches"`
	CalibrationRuns int         `json:"calibration_runs"`
	Scores          twin.Scores `json:"scores"`

	Screen twinScreenReport `json:"screen"`
}

// twinScreenReport compares the screened sweep against the full-detail one.
type twinScreenReport struct {
	TopK         int      `json:"topk"`
	UncertainPct float64  `json:"uncertain_pct"`
	Promoted     []string `json:"promoted"`
	DetailedRuns int      `json:"detailed_runs"`
	TwinRuns     int      `json:"twin_runs"`

	// Wall cost: the full-detail sweep vs the screened one (promoted
	// detailed runs + interpreter-speed profiling + twin evaluation).
	WallFullDetailSec float64 `json:"wall_full_detail_sec"`
	WallScreenedSec   float64 `json:"wall_screened_sec"`
	ProfileWallSec    float64 `json:"profile_wall_sec"`
	WallRatio         float64 `json:"wall_ratio"`

	// RankingMatch: the promoted benches order identically by RB-vs-baseline
	// IPC delta under the screened and the full-detail sweep — and since
	// promoted runs are bit-identical detailed simulations, the deltas agree
	// exactly, not just in order.
	RankingMatch         bool `json:"ranking_match"`
	PromotedBitIdentical bool `json:"promoted_bit_identical"`

	// Twin prediction error on the non-promoted (twin-answered) pairs
	// against the full-detail reference.
	TwinMaxIPCRelErrPct  float64 `json:"twin_max_ipc_rel_err_pct"`
	TwinMeanIPCRelErrPct float64 `json:"twin_mean_ipc_rel_err_pct"`
}

// runBenchTwin handles -bench-twin: full-detail reference sweep, calibration
// (reusing the reference's memoized runs), then a fresh screened sweep —
// reporting accuracy, promoted-region fidelity, and the wall-time ratio.
func runBenchTwin(path, twinPath string, opts harness.Options, sf screenFlags, workers int, stderr io.Writer) int {
	selected, err := selectExperiments("figure9")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ref := harness.NewRunner(opts)
	plan := ref.Plan(func(r *harness.Runner) {
		for _, e := range selected {
			e.Build(r)
		}
	})
	t0 := time.Now()
	ref.Prewarm(plan, workers)
	wallFull := time.Since(t0).Seconds()

	var benchSet []string
	seen := map[string]bool{}
	for _, pr := range plan {
		if !seen[pr.Bench] {
			seen[pr.Bench] = true
			benchSet = append(benchSet, pr.Bench)
		}
	}
	model, points, err := ref.Calibrate(benchSet, nil, workers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := model.Save(twinPath); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	scr := harness.NewRunner(opts)
	t0 = time.Now()
	sc, err := harness.BuildScreen(scr, plan, sf.options(model), workers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	scr.SetScreen(sc)
	promoted := sc.Promoted(plan)
	scr.Prewarm(promoted, workers)
	// Twin-answered pairs evaluate lazily at render time; force them here so
	// the screened wall time includes every cost a real sweep pays.
	for _, pr := range plan {
		scr.Result(pr.Bench, pr.Config)
	}
	wallScreened := time.Since(t0).Seconds()

	rep := &twinReport{
		Experiments:     "figure9",
		Benches:         len(benchSet),
		CalibrationRuns: len(points),
		Scores:          model.Scores,
		Screen: twinScreenReport{
			TopK:              sf.topK,
			UncertainPct:      sf.uncertain,
			DetailedRuns:      len(promoted),
			TwinRuns:          len(plan) - len(promoted),
			WallFullDetailSec: wallFull,
			WallScreenedSec:   wallScreened,
			ProfileWallSec:    scr.ProfileWallSec(),
			WallRatio:         stats.Div(wallFull, wallScreened),
		},
	}

	// Promoted-region fidelity: every promoted pair must be bit-identical to
	// the reference (it ran the same detailed simulation), and the promoted
	// benches must rank identically by RB-vs-baseline IPC delta.
	var promotedBenches []string
	for _, row := range sc.Rows() {
		if row.Provenance == harness.ProvenanceDetailed {
			promotedBenches = append(promotedBenches, row.Bench)
		}
	}
	rep.Screen.Promoted = promotedBenches
	bitIdent := true
	for _, pr := range promoted {
		a, b := ref.Result(pr.Bench, pr.Config), scr.Result(pr.Bench, pr.Config)
		if a.Stats.Cycles != b.Stats.Cycles || a.IPC != b.IPC {
			bitIdent = false
			fmt.Fprintf(stderr, "bench-twin: promoted %s/%s diverged: %d vs %d cycles\n",
				pr.Bench, pr.Config.Label(), a.Stats.Cycles, b.Stats.Cycles)
		}
	}
	rep.Screen.PromotedBitIdentical = bitIdent
	rep.Screen.RankingMatch = bitIdent && rankingMatches(ref, scr, promotedBenches)

	var errSum, errMax float64
	var n int
	for _, pr := range plan {
		if sc.WantsDetailed(pr.Bench, pr.Config) {
			continue
		}
		e := 100 * stats.Div(math.Abs(scr.Result(pr.Bench, pr.Config).IPC-ref.Result(pr.Bench, pr.Config).IPC),
			ref.Result(pr.Bench, pr.Config).IPC)
		errSum += e
		n++
		if e > errMax {
			errMax = e
		}
	}
	rep.Screen.TwinMaxIPCRelErrPct = errMax
	rep.Screen.TwinMeanIPCRelErrPct = stats.Div(errSum, float64(n))

	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "bench-twin: IPC MAPE %.2f%%, r %.4f; screened %d/%d runs detailed, wall %.2fs vs %.2fs full (%.1fx), ranking match %v\n",
		rep.Scores.MAPEPct, rep.Scores.PearsonR, rep.Screen.DetailedRuns, len(plan),
		wallScreened, wallFull, rep.Screen.WallRatio, rep.Screen.RankingMatch)
	return 0
}

// rankingMatches reports whether the promoted benches order identically by
// RB-vs-baseline IPC delta under both runners (ties broken by name, as the
// screening ranking does).
func rankingMatches(a, b *harness.Runner, benches []string) bool {
	order := func(r *harness.Runner) []string {
		type d struct {
			bench string
			delta float64
		}
		ds := make([]d, 0, len(benches))
		for _, bench := range benches {
			base := r.Result(bench, harness.Baseline).IPC
			rb := r.Result(bench, harness.Buffer).IPC
			ds = append(ds, d{bench, 100 * stats.Div(rb-base, base)})
		}
		sort.SliceStable(ds, func(i, j int) bool {
			if ds[i].delta != ds[j].delta {
				return ds[i].delta > ds[j].delta
			}
			return ds[i].bench < ds[j].bench
		})
		out := make([]string, len(ds))
		for i, x := range ds {
			out[i] = x.bench
		}
		return out
	}
	oa, ob := order(a), order(b)
	for i := range oa {
		if oa[i] != ob[i] {
			return false
		}
	}
	return true
}
