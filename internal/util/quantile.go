package util

import "math"

// Quantile returns the p-quantile of an ascending sample set by the
// nearest-rank rule: the value at rank ceil(p·n), 1-based, clamped to the
// sample range. It always returns a sample, never an interpolation, so the
// p99 of 100 samples is the 99th and of 101 the 100th; an empty set reads
// as the zero value. It is the one percentile rule of the repository — the
// experiment tables and the hostile scenarios' fingerprints both use it.
func Quantile[T ~int64](sorted []T, p float64) T {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon absorbs the float error of p·n (0.99·n is not exact), so
	// the rank equals the integer formula (n·99+99)/100 for every n.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
