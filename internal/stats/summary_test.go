package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 {
		t.Fatalf("N = %d, want 5", s.N)
	}
	if s.Mean != 3 {
		t.Errorf("Mean = %v, want 3", s.Mean)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min, s.Max)
	}
	if s.Median != 3 {
		t.Errorf("Median = %v, want 3", s.Median)
	}
	wantStd := math.Sqrt(2.5)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary should be zero, got %+v", s)
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

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Fatalf("Linspace = %v, want %v", xs, want)
		}
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
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
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

// TestPercentiles3MatchesSort checks the selecting Percentiles3 against
// the sorting Percentiles over random samples of every size up to 5000:
// few distinct values (long runs of duplicates), signed zeros, NaN and
// ±Inf mixed in, and sorted or reversed runs. Values compare with ==,
// since -0 and +0 tie in both orders. The input must not be reordered.
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
	}
}
