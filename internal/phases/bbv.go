// Package phases implements SimPoint-style phase analysis for the sampled
// simulation engine: basic-block vectors (BBVs) collected per fixed-length
// window of the functional fast-forward, deterministic k-means clustering
// over them, BIC-guided selection of the phase count, and a sampling plan
// that names one representative window per phase with the uop weight it
// stands in for.
//
// Everything in this package is bit-deterministic by construction: no maps
// are iterated, no randomness is consulted (centroid seeding is a maximin
// farthest-point walk from window zero), and every tie — nearest centroid,
// representative choice, BIC score — breaks toward the lowest index. Two
// runs over the same program produce identical plans, which the
// clustering-determinism CI test pins.
package phases

import "math"

// Vector is one window's basic-block vector: per-block executed-uop counts
// normalized to sum 1 (uop-weighted block frequencies, the SimPoint form).
type Vector []float64

// Window is one fixed-length slice of the measured region, in committed-uop
// coordinates of the full run.
type Window struct {
	Start uint64 // committed-uop offset of the window's first uop
	Len   uint64 // uops in the window
}

// Normalize converts raw per-block uop counts into a Vector. The total is
// passed in (the window length) so an all-zero count slice — impossible for
// a real window, but cheap to guard — normalizes to the zero vector instead
// of NaN.
func Normalize(counts []uint64) Vector {
	var total uint64
	for _, c := range counts {
		total += c
	}
	v := make(Vector, len(counts))
	if total == 0 {
		return v
	}
	inv := 1 / float64(total)
	for i, c := range counts {
		v[i] = float64(c) * inv
	}
	return v
}

// sqDist returns the squared Euclidean distance between a and b.
func sqDist(a, b Vector) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Manhattan returns the L1 distance between a and b. For unit-normalized
// vectors it lies in [0, 2]; half of it is the fraction of execution the two
// windows spend in different blocks, the dissimilarity measure the
// confidence intervals use.
func Manhattan(a, b Vector) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}
