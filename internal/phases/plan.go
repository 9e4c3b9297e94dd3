package phases

import "fmt"

// Phase is one behavior cluster of the measured region. Its representative
// window is simulated in detail and stands in for every member window,
// weighted by the uops the phase covers.
type Phase struct {
	Rep     int     // representative window index (closest to the centroid)
	Members []int   // member window indices, ascending
	Weight  uint64  // total uops across member windows
	AvgDist float64 // uop-weighted mean Manhattan distance of members to the centroid, in [0, 2]
}

// Plan is the outcome of phase analysis: the window grid, the per-window
// phase assignment, and the phases in ascending representative-start order.
type Plan struct {
	Windows []Window
	Assign  []int // window index -> index into Phases
	Phases  []Phase
}

// Build runs phase analysis over per-window BBVs. vecs[i] is the normalized
// basic-block vector of windows[i]; maxK caps the BIC search and forceK,
// when positive, pins the phase count (the -phases override). The returned
// plan is deterministic: same inputs, same plan.
func Build(windows []Window, vecs []Vector, maxK, forceK int) *Plan {
	if len(windows) != len(vecs) {
		panic(fmt.Sprintf("phases: %d windows but %d vectors", len(windows), len(vecs)))
	}
	cl := cluster(vecs, maxK, forceK)
	p := &Plan{Windows: windows, Assign: make([]int, len(windows))}
	if len(windows) == 0 {
		return p
	}

	// Gather members per cluster in window order, pick representatives, and
	// drop clusters that ended empty (k exceeded the distinct vectors).
	type draft struct {
		members []int
		rep     int
	}
	drafts := make([]draft, cl.k)
	for i, a := range cl.assign {
		drafts[a].members = append(drafts[a].members, i)
	}
	var kept []draft
	for j := range drafts {
		if len(drafts[j].members) == 0 {
			continue
		}
		// Representative: member closest to the centroid, lowest window
		// index on ties (strict < over an ascending scan).
		rep, repD := drafts[j].members[0], sqDist(vecs[drafts[j].members[0]], cl.centroids[j])
		for _, i := range drafts[j].members[1:] {
			if d := sqDist(vecs[i], cl.centroids[j]); d < repD {
				rep, repD = i, d
			}
		}
		kept = append(kept, draft{members: drafts[j].members, rep: rep})
	}
	// Order phases by representative window start so the fast-forward streams
	// checkpoints in ascending uop order.
	for i := 1; i < len(kept); i++ {
		for j := i; j > 0 && windows[kept[j].rep].Start < windows[kept[j-1].rep].Start; j-- {
			kept[j], kept[j-1] = kept[j-1], kept[j]
		}
	}
	for _, d := range kept {
		ph := Phase{Rep: d.rep, Members: d.members}
		centroid := centroidOf(vecs, d.members)
		var distSum float64
		for _, i := range d.members {
			ph.Weight += windows[i].Len
			distSum += float64(windows[i].Len) * Manhattan(vecs[i], centroid)
		}
		if ph.Weight > 0 {
			ph.AvgDist = distSum / float64(ph.Weight)
		}
		idx := len(p.Phases)
		for _, i := range d.members {
			p.Assign[i] = idx
		}
		p.Phases = append(p.Phases, ph)
	}
	return p
}

// centroidOf recomputes the mean vector of the given members in index order.
func centroidOf(vecs []Vector, members []int) Vector {
	c := make(Vector, len(vecs[members[0]]))
	for _, i := range members {
		for d, x := range vecs[i] {
			c[d] += x
		}
	}
	inv := 1 / float64(len(members))
	for d := range c {
		c[d] *= inv
	}
	return c
}

// K returns the number of phases.
func (p *Plan) K() int { return len(p.Phases) }

// AvgDispersion returns the uop-weighted mean Manhattan distance of windows
// to their phase centroid across the whole plan — the [0, 2] dissimilarity
// the sampling confidence intervals feed on.
func (p *Plan) AvgDispersion() float64 {
	var sum float64
	var w uint64
	for _, ph := range p.Phases {
		sum += float64(ph.Weight) * ph.AvgDist
		w += ph.Weight
	}
	if w == 0 {
		return 0
	}
	return sum / float64(w)
}
