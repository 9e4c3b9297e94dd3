package twin

import (
	"fmt"
	"math"
	"sort"

	"runaheadsim/internal/core"
)

// Calibration: fit the per-term coefficients of each (mode, class-group)
// against detailed-run targets by relative-error-weighted least squares.
// Weighting each squared residual by 1/y² makes the optimizer minimize
// *relative* error — which is what MAPE and the screening tier care about —
// instead of letting the slowest workloads dominate.
//
// The fit is hierarchical: each mode first fits one pooled coefficient set
// over all its points (weak ridge toward zero), then each class group
// refits with a ridge *toward the pooled set*. Class groups are small (a
// dozen points against eight features), so an unshrunk fit interpolates with
// wild mutually-canceling coefficients that generalize badly; shrinkage
// keeps a group's coefficients at the pooled values except where its own
// points carry real evidence.
//
// On top of the coefficients sit per-workload anchors ([BenchScale]): after
// the fit, each workload is anchored once at its geomean
// detailed/predicted ratio. The anchors absorb
// workload-level costs the features cannot see (e.g. bandwidth contention
// of a dense store stream); because one anchor is shared by all of a
// workload's modes, cross-config deltas — what screening ranks on — remain
// purely structural.

// minGroupPoints is the fewest calibration points a (mode, class-group)
// needs for its own fit; smaller groups pool into the mode's "all" group.
const minGroupPoints = NumFeatures + 2

// Ridge strengths, relative to trace(XᵀWX)/nf: the pooled fit is nearly
// unregularized; class-group fits shrink gently toward the pooled set —
// just enough to damp the mutual cancellation an interpolating fit would
// produce, since the per-workload anchors already absorb bench-level
// offsets.
const (
	pooledLambda = 1e-6
	groupLambda  = 3e-4
)

// Scores reports calibration quality: overall and sliced per workload, per
// configuration (mode), and per workload class, each as IPC MAPE and
// Pearson correlation between twin and detailed IPC.
type Scores struct {
	MAPEPct       float64 `json:"ipc_mape_pct"`
	PearsonR      float64 `json:"pearson_r"`
	EnergyMAPEPct float64 `json:"energy_mape_pct"`

	PerWorkload []ScoreRow `json:"per_workload"`
	PerConfig   []ScoreRow `json:"per_config"`
	PerClass    []ScoreRow `json:"per_class"`
}

// ScoreRow is one slice of the calibration scores.
type ScoreRow struct {
	Name     string  `json:"name"`
	Points   int     `json:"points"`
	MAPEPct  float64 `json:"ipc_mape_pct"`
	PearsonR float64 `json:"pearson_r"`
}

// Fit calibrates a model against points carrying detailed targets
// (DetCycles, DetIPC, DetEnergyUJ). Points are grouped by (mode,
// class-group); groups with too few points pool into a per-mode "all"
// group. The returned model carries the fitted coefficients and the
// training-set scores.
func Fit(points []Point, machine Machine, fingerprint uint64, measureUops uint64) (*Model, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("twin: no calibration points")
	}
	m := &Model{
		Version:     ArtifactVersion,
		Fingerprint: fingerprint,
		MeasureUops: measureUops,
		IssueWidth:  machine.IssueWidth,
	}

	type gkey struct {
		mode core.Mode
		cg   string
	}
	var keys []gkey
	idx := func(k gkey) int {
		for i, have := range keys {
			if have == k {
				return i
			}
		}
		keys = append(keys, k)
		return len(keys) - 1
	}
	buckets := make([][]Point, 0, 8)
	for _, pt := range points {
		if pt.DetCycles <= 0 {
			return nil, fmt.Errorf("twin: calibration point %s/%s has no detailed cycles", pt.Bench, pt.Mode)
		}
		i := idx(gkey{pt.Mode, ClassGroup(pt.Class)})
		for len(buckets) <= i {
			buckets = append(buckets, nil)
		}
		buckets[i] = append(buckets[i], pt)
	}
	// Pool undersized class groups into per-mode "all" groups.
	pooled := make([][]Point, 0, 8)
	var pooledKeys []gkey
	pidx := func(k gkey) int {
		for i, have := range pooledKeys {
			if have == k {
				return i
			}
		}
		pooledKeys = append(pooledKeys, k)
		pooled = append(pooled, nil)
		return len(pooledKeys) - 1
	}
	for i, pts := range buckets {
		k := keys[i]
		if len(pts) < minGroupPoints {
			k = gkey{k.mode, "all"}
		}
		j := pidx(k)
		pooled[j] = append(pooled[j], pts...)
	}
	// Pooling only the undersized groups would fit "all" on a skewed
	// subset, so when any class group of a mode pooled, the "all" group
	// gets every point of that mode.
	for j, k := range pooledKeys {
		if k.cg != "all" {
			continue
		}
		pooled[j] = nil
		for _, pt := range points {
			if pt.Mode == k.mode {
				pooled[j] = append(pooled[j], pt)
			}
		}
	}

	// Stage one: pooled per-mode coefficients over every point of the mode.
	var pooledModes []core.Mode
	var pooledTheta, pooledETheta [][]float64
	pooledFor := func(mode core.Mode) ([]float64, []float64, error) {
		for i, have := range pooledModes {
			if have == mode {
				return pooledTheta[i], pooledETheta[i], nil
			}
		}
		var pts []Point
		for _, pt := range points {
			if pt.Mode == mode {
				pts = append(pts, pt)
			}
		}
		theta, err := wlsFit(pts, cycleRow, NumFeatures, cycleTarget, nil, pooledLambda)
		if err != nil {
			return nil, nil, fmt.Errorf("twin: fitting mode %s: %w", mode, err)
		}
		etheta, err := wlsFit(pts, energyRow, NumEnergyFeatures, energyTarget, nil, pooledLambda)
		if err != nil {
			return nil, nil, fmt.Errorf("twin: fitting energy for mode %s: %w", mode, err)
		}
		pooledModes = append(pooledModes, mode)
		pooledTheta = append(pooledTheta, theta)
		pooledETheta = append(pooledETheta, etheta)
		return theta, etheta, nil
	}

	// Stage two: each class group refits shrunk toward its mode's pooled
	// coefficients; "all" groups just take the pooled set.
	for j, k := range pooledKeys {
		pts := pooled[j]
		prior, ePrior, err := pooledFor(k.mode)
		if err != nil {
			return nil, err
		}
		theta, etheta := prior, ePrior
		if k.cg != "all" {
			theta, err = wlsFit(pts, cycleRow, NumFeatures, cycleTarget, prior, groupLambda)
			if err != nil {
				return nil, fmt.Errorf("twin: fitting mode %s/%s: %w", k.mode, k.cg, err)
			}
			etheta, err = wlsFit(pts, energyRow, NumEnergyFeatures, energyTarget, ePrior, groupLambda)
			if err != nil {
				return nil, fmt.Errorf("twin: fitting energy for mode %s/%s: %w", k.mode, k.cg, err)
			}
		}
		m.Groups = append(m.Groups, Group{
			Mode:        k.mode,
			ClassGroup:  k.cg,
			Theta:       theta,
			EnergyTheta: etheta,
			Points:      len(pts),
		})
	}

	// One anchor pass: each workload's multiplicative anchor absorbs the
	// workload-level offset the coefficients leave.
	scales, err := m.computeScales(points)
	if err != nil {
		return nil, err
	}
	m.Scales = scales

	sc, err := m.Score(points)
	if err != nil {
		return nil, err
	}
	m.Scores = sc
	return m, nil
}

// computeScales measures each workload's multiplicative anchor: the
// geometric mean of detailed over predicted cycles (and energy) across the
// workload's calibration points. Fit calls it before m.Scales is set, so
// the anchors are relative to the bare coefficients.
func (m *Model) computeScales(points []Point) ([]BenchScale, error) {
	var names []string
	type acc struct {
		cyc, en float64
		n, nE   int
	}
	var accs []acc
	find := func(n string) int {
		for i, have := range names {
			if have == n {
				return i
			}
		}
		names = append(names, n)
		accs = append(accs, acc{})
		return len(names) - 1
	}
	for _, pt := range points {
		pred, err := m.Predict(pt)
		if err != nil {
			return nil, err
		}
		if pt.DetCycles <= 0 || pred.Cycles <= 0 {
			continue
		}
		a := &accs[find(pt.Bench)]
		a.cyc += math.Log(pt.DetCycles / float64(pred.Cycles))
		a.n++
		if pt.DetEnergyUJ > 0 && pred.EnergyUJ > 0 {
			a.en += math.Log(pt.DetEnergyUJ / pred.EnergyUJ)
			a.nE++
		}
	}
	out := make([]BenchScale, 0, len(names))
	for i, n := range names {
		s := BenchScale{Bench: n, Cycles: 1, Energy: 1}
		if accs[i].n > 0 {
			s.Cycles = math.Exp(accs[i].cyc / float64(accs[i].n))
		}
		if accs[i].nE > 0 {
			s.Energy = math.Exp(accs[i].en / float64(accs[i].nE))
		}
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Bench < out[b].Bench })
	return out, nil
}

func cycleRow(pt Point) []float64 { return pt.X }

func cycleTarget(pt Point) float64 { return pt.DetCycles }

func energyTarget(pt Point) float64 { return pt.DetEnergyUJ }

func energyRow(pt Point) []float64 {
	ex := make([]float64, NumEnergyFeatures)
	copy(ex, pt.EX)
	// Energy is fitted with the *detailed* cycles in the ECycles slot; at
	// predict time the model substitutes its own cycle prediction, so
	// energy error compounds cycle error honestly.
	ex[ECycles] = pt.DetCycles
	return ex
}

// wlsFit solves the 1/y²-weighted ridge regression over the group's points.
// The ridge pulls the solution toward prior (zero when nil) with strength
// lambdaRel·trace(XᵀWX)/nf: (XᵀWX + λI)θ = XᵀWy + λ·prior.
func wlsFit(pts []Point, row func(Point) []float64, nf int, target func(Point) float64, prior []float64, lambdaRel float64) ([]float64, error) {
	a := make([][]float64, nf) // normal matrix XᵀWX
	for i := range a {
		a[i] = make([]float64, nf)
	}
	b := make([]float64, nf)
	var used int
	for _, pt := range pts {
		y := target(pt)
		if y <= 0 {
			continue // target not observed (e.g. energy disabled): skip
		}
		x := row(pt)
		w := 1 / (y * y)
		for i := 0; i < nf; i++ {
			for j := 0; j < nf; j++ {
				a[i][j] += w * x[i] * x[j]
			}
			b[i] += w * x[i] * y
		}
		used++
	}
	if used == 0 {
		if prior != nil {
			return append([]float64(nil), prior...), nil
		}
		return make([]float64, nf), nil
	}
	// Ridge scaled to the normal matrix so the penalty is unitless.
	var trace float64
	for i := 0; i < nf; i++ {
		trace += a[i][i]
	}
	lambda := lambdaRel * trace / float64(nf)
	if lambda <= 0 {
		lambda = 1e-12
	}
	for i := 0; i < nf; i++ {
		a[i][i] += lambda
		if prior != nil {
			b[i] += lambda * prior[i]
		}
	}
	return solve(a, b)
}

// solve runs Gaussian elimination with partial pivoting on a copy-free
// normal system (a is already scratch).
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-30 {
			return nil, fmt.Errorf("twin: singular normal matrix at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		v := b[r]
		for c := r + 1; c < n; c++ {
			v -= a[r][c] * x[c]
		}
		x[r] = v / a[r][r]
	}
	return x, nil
}

// Score evaluates the model against points with detailed targets and
// returns the sliced MAPE/Pearson scores.
func (m *Model) Score(points []Point) (Scores, error) {
	type obs struct {
		name              string
		predIPC, detIPC   float64
		relErr, energyRel float64
		hasEnergy         bool
		class, modeLabel  string
	}
	all := make([]obs, 0, len(points))
	for _, pt := range points {
		pred, err := m.Predict(pt)
		if err != nil {
			return Scores{}, err
		}
		detIPC := pt.DetIPC
		if detIPC == 0 && pt.DetCycles > 0 {
			detIPC = float64(pt.Uops) / pt.DetCycles
		}
		o := obs{
			name:      pt.Bench,
			predIPC:   pred.IPC,
			detIPC:    detIPC,
			class:     pt.Class,
			modeLabel: pt.Mode.String(),
		}
		if detIPC > 0 {
			o.relErr = math.Abs(pred.IPC-detIPC) / detIPC
		}
		if pt.DetEnergyUJ > 0 {
			o.hasEnergy = true
			o.energyRel = math.Abs(pred.EnergyUJ-pt.DetEnergyUJ) / pt.DetEnergyUJ
		}
		all = append(all, o)
	}

	var sc Scores
	var sumRel, sumERel float64
	var nE int
	var xs, ys []float64
	for _, o := range all {
		sumRel += o.relErr
		xs = append(xs, o.predIPC)
		ys = append(ys, o.detIPC)
		if o.hasEnergy {
			sumERel += o.energyRel
			nE++
		}
	}
	sc.MAPEPct = 100 * sumRel / float64(len(all))
	sc.PearsonR = pearson(xs, ys)
	if nE > 0 {
		sc.EnergyMAPEPct = 100 * sumERel / float64(nE)
	}

	slice := func(key func(obs) string) []ScoreRow {
		var names []string
		find := func(n string) int {
			for i, have := range names {
				if have == n {
					return i
				}
			}
			names = append(names, n)
			return len(names) - 1
		}
		type agg struct {
			sum    float64
			xs, ys []float64
		}
		aggs := make([]agg, 0, 32)
		for _, o := range all {
			i := find(key(o))
			for len(aggs) <= i {
				aggs = append(aggs, agg{})
			}
			aggs[i].sum += o.relErr
			aggs[i].xs = append(aggs[i].xs, o.predIPC)
			aggs[i].ys = append(aggs[i].ys, o.detIPC)
		}
		rows := make([]ScoreRow, len(names))
		for i, n := range names {
			rows[i] = ScoreRow{
				Name:     n,
				Points:   len(aggs[i].xs),
				MAPEPct:  100 * aggs[i].sum / float64(len(aggs[i].xs)),
				PearsonR: pearson(aggs[i].xs, aggs[i].ys),
			}
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].Name < rows[b].Name })
		return rows
	}
	sc.PerWorkload = slice(func(o obs) string { return o.name })
	sc.PerConfig = slice(func(o obs) string { return o.modeLabel })
	sc.PerClass = slice(func(o obs) string { return o.class })
	return sc, nil
}

// WorkloadMAPE returns the calibration-time per-workload IPC MAPE, or -1
// when the workload was not in the calibration set (the screening tier
// treats unknown workloads as maximally uncertain).
func (m *Model) WorkloadMAPE(bench string) float64 {
	for _, r := range m.Scores.PerWorkload {
		if r.Name == bench {
			return r.MAPEPct
		}
	}
	return -1
}

// pearson returns the sample correlation coefficient (0 when degenerate).
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx <= 0 || syy <= 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
