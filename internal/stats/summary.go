package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of the slice.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. The input need not be sorted.
//
// Guards: non-finite samples (NaN, ±Inf) are ignored — they would
// otherwise poison the sort and the interpolation; an input with no
// finite samples returns 0 (matching the empty-input convention); p is
// clamped to [0, 100]; a NaN p returns NaN. With at least one finite
// sample and a finite p the result is always finite and lies within
// [min, max] of the finite samples (the fuzz target in fuzz_test.go
// holds this contract).
func Percentile(xs []float64, p float64) float64 {
	sorted := sortedFinite(xs)
	return percentileSorted(sorted, p)
}

// Percentiles returns the percentile for each p over a single sort of the
// input — the multi-quantile call sites (P50/P95/P99 reporting) pay one
// O(n log n) pass instead of one per quantile. Each element follows the
// same guarded contract as Percentile.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	sorted := sortedFinite(xs)
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// Percentiles3 returns the 50th, 95th, and 99th percentiles — the
// latency triple every serving fold reports — without allocating a
// result slice. Values are identical to Percentiles(xs, 50, 95, 99): the
// interpolation reads at most six order statistics, so it selects those
// instead of sorting.
func Percentiles3(xs []float64) (p50, p95, p99 float64) {
	a := finiteCopy(xs)
	if n := len(a); n > 0 {
		// Order statistics in ascending rank order: each is selected in the
		// window above the previous one, which already holds no smaller
		// element.
		from := 0
		for _, p := range [...]float64{50, 95, 99} {
			rank := p / 100 * float64(n-1)
			for _, k := range [...]int{int(math.Floor(rank)), int(math.Ceil(rank))} {
				if k >= from {
					selectKth(a[from:], k-from)
					from = k + 1
				}
			}
		}
	}
	return percentileSorted(a, 50), percentileSorted(a, 95), percentileSorted(a, 99)
}

// selectKth reorders a so that a[k] holds the value sorting a would
// put there, with no greater element before it and no smaller one after
// it: quickselect with a three-way partition, so runs of equal values
// end a round, falling back to sorting a window that has not shrunk
// within 2·log2(len(a)) rounds.
func selectKth(a []float64, k int) {
	lo, hi := 0, len(a)
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 1; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo:hi])
			return
		}
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
		}
		pivot := max(x, y) // the median of the three
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				gt--
				a[i], a[gt] = a[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// sortedFinite returns a sorted copy of the finite samples in xs.
func sortedFinite(xs []float64) []float64 {
	sorted := finiteCopy(xs)
	sort.Float64s(sorted)
	return sorted
}

// finiteCopy returns a copy of the finite samples in xs.
func finiteCopy(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

// percentileSorted interpolates the p-th percentile over pre-sorted
// finite samples.
func percentileSorted(sorted []float64, p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MAPE returns the mean absolute percentage error between predictions and
// actuals, expressed as a fraction (0.02 == 2%). Pairs with a zero actual
// are skipped; mismatched lengths or no valid pairs return NaN.
func MAPE(predicted, actual []float64) float64 {
	if len(predicted) != len(actual) {
		return math.NaN()
	}
	sum, n := 0.0, 0
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs((predicted[i] - actual[i]) / actual[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// RSquared returns the coefficient of determination of predictions against
// actuals. A constant actual vector returns NaN.
func RSquared(predicted, actual []float64) float64 {
	if len(predicted) != len(actual) || len(actual) == 0 {
		return math.NaN()
	}
	mean := Mean(actual)
	ssRes, ssTot := 0.0, 0.0
	for i := range actual {
		r := actual[i] - predicted[i]
		ssRes += r * r
		d := actual[i] - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
