package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// TestSummarizeBasics summarizes a fixed sample with the kept helpers.
func TestSummarizeBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Mean(xs); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := Sum(xs); got != 15 {
		t.Errorf("Sum = %v, want 15", got)
	}
	if lo, hi := Percentile(xs, 0), Percentile(xs, 100); lo != 1 || hi != 5 {
		t.Errorf("min/max = %v/%v, want 1/5", lo, hi)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if Mean(nil) != 0 || Sum(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Errorf("empty input: Mean = %v, Sum = %v, median = %v, want 0, 0 and 0",
			Mean(nil), Sum(nil), Percentile(nil, 50))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestMAPE(t *testing.T) {
	pred := []float64{110, 90}
	act := []float64{100, 100}
	if got := MAPE(pred, act); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("MAPE = %v, want 0.10", got)
	}
}

func TestMAPESkipsZeroActuals(t *testing.T) {
	got := MAPE([]float64{5, 110}, []float64{0, 100})
	if math.Abs(got-0.10) > 1e-12 {
		t.Errorf("MAPE = %v, want 0.10 (zero actual skipped)", got)
	}
}

func TestMAPEMismatchedReturnsNaN(t *testing.T) {
	if !math.IsNaN(MAPE([]float64{1}, []float64{1, 2})) {
		t.Error("mismatched lengths should return NaN")
	}
}

func TestRSquaredPerfectFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := RSquared(xs, xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("RSquared of identical vectors = %v, want 1", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp wrong")
	}
}

// Property: the mean always lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := float64(a % 101)
		pb := float64(b % 101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPercentiles3MatchesSort checks the selecting Percentiles3, and the
// Percentiles3InPlace it wraps, against the sorting Percentiles over
// random samples of every size up to 5000: few distinct values (long
// runs of duplicates), signed zeros, NaN and ±Inf mixed in, and sorted
// or reversed runs. Values compare with ==, since -0 and +0 tie in both
// orders. Percentiles3 must not reorder its input.
func TestPercentiles3MatchesSort(t *testing.T) {
	rng := NewRNG(3, "stats/percentiles3")
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for trial := 0; trial < 600; trial++ {
		n := rng.IntN(5001)
		if trial < 40 {
			n = trial // every small size, the empty one included
		}
		distinct := 1 + rng.IntN(n+1)
		xs := make([]float64, n)
		for i := range xs {
			switch r := rng.Float64(); {
			case r < 0.05:
				xs[i] = special[rng.IntN(len(special))]
			case trial%3 == 0:
				xs[i] = float64(rng.IntN(distinct)) - float64(distinct)/2
			default:
				xs[i] = rng.Normal(0, 10)
			}
		}
		switch trial % 5 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		before := append([]float64(nil), xs...)
		p50, p95, p99 := Percentiles3(xs)
		want := Percentiles(xs, 50, 95, 99)
		if p50 != want[0] || p95 != want[1] || p99 != want[2] {
			t.Fatalf("trial %d (n=%d): Percentiles3 = %v %v %v, sort gives %v", trial, n, p50, p95, p99, want)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
				t.Fatalf("trial %d: Percentiles3 reordered its input at %d", trial, i)
			}
		}
		if q50, q95, q99 := Percentiles3InPlace(before); q50 != want[0] || q95 != want[1] || q99 != want[2] {
			t.Fatalf("trial %d (n=%d): Percentiles3InPlace = %v %v %v, sort gives %v", trial, n, q50, q95, q99, want)
		}
	}
}
