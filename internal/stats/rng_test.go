package stats

import (
	"hash/fnv"
	"math"
	"strconv"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, "stream")
	b := NewRNG(42, "stream")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed+name must produce identical streams")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	a := NewRNG(42, "alpha")
	b := NewRNG(42, "beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different streams coincide %d/100 times", same)
	}
}

func TestLogNormalMeanApproximatesMean(t *testing.T) {
	r := NewRNG(1, "lognormal")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.LogNormalMean(500, 0.5)
	}
	got := sum / n
	if math.Abs(got-500)/500 > 0.02 {
		t.Errorf("lognormal mean = %v, want ~500", got)
	}
}

func TestLogNormalMeanZero(t *testing.T) {
	r := NewRNG(1, "ln0")
	if r.LogNormalMean(0, 0.5) != 0 {
		t.Error("mean 0 should yield 0")
	}
}

func TestBetaInUnitInterval(t *testing.T) {
	r := NewRNG(7, "beta")
	for i := 0; i < 10000; i++ {
		x := r.Beta(2, 5)
		if x < 0 || x > 1 {
			t.Fatalf("beta sample out of range: %v", x)
		}
	}
}

func TestBetaMean(t *testing.T) {
	r := NewRNG(7, "betamean")
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Beta(2, 3)
	}
	got := sum / n
	want := 2.0 / 5.0
	if math.Abs(got-want) > 0.01 {
		t.Errorf("Beta(2,3) mean = %v, want %v", got, want)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := NewRNG(3, "cat")
	weights := []float64{1, 2, 7}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(float64(counts[i])-want)/want > 0.05 {
			t.Errorf("category %d: count %d, want ~%v", i, counts[i], want)
		}
	}
}

func TestCategoricalPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty weights")
		}
	}()
	NewRNG(1, "x").Categorical(nil)
}

func TestCategoricalPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative weight")
		}
	}()
	NewRNG(1, "x").Categorical([]float64{1, -1})
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(1, "bern")
	if r.Bernoulli(0) {
		t.Error("p=0 must be false")
	}
	if !r.Bernoulli(1) {
		t.Error("p=1 must be true")
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(9, "bernrate")
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestHashJitterDeterministic(t *testing.T) {
	a := HashJitter(100, 0.1, 12345)
	b := HashJitter(100, 0.1, 12345)
	if a != b {
		t.Error("HashJitter must be deterministic for a fixed key")
	}
	if a < 90 || a > 110 {
		t.Errorf("HashJitter out of bounds: %v", a)
	}
	c := HashJitter(100, 0.1, 54321)
	if a == c {
		t.Error("different keys should (almost surely) differ")
	}
}

// Name is FNV-1a: the whole-string hash matches hash/fnv's, and a name
// extended by its digits hashes the same bytes as the whole string.
func TestNameMatchesFNV(t *testing.T) {
	r := NewRNG(3, "names")
	for n := 0; n < 200; n++ {
		b := make([]byte, r.IntN(40))
		for i := range b {
			b[i] = byte(r.IntN(256))
		}
		s := string(b)
		h := fnv.New64a()
		_, _ = h.Write(b)
		if got, want := NameOf(s), Name(h.Sum64()); got != want {
			t.Fatalf("NameOf(%q) = %#x, hash/fnv %#x", s, got, want)
		}
		for _, i := range []int{0, r.IntN(10), r.IntN(1 << 20), -r.IntN(1000), math.MaxInt, math.MinInt} {
			if got, want := NameOf(s).AddInt(i), NameOf(s+strconv.Itoa(i)); got != want {
				t.Fatalf("NameOf(%q).AddInt(%d) = %#x, want %#x", s, i, got, want)
			}
		}
	}
}

// Reseeding an RNG restarts it as the named stream a fresh one draws.
func TestReseedMatchesNewRNG(t *testing.T) {
	r := NewRNG(1, "scratch")
	for _, name := range []string{"", "a", "llm/x/y/base/q0", "llm/x/y/base/q14999"} {
		r.Float64()
		r.Reseed(42, NameOf(name))
		fresh := NewRNG(42, name)
		for i := 0; i < 50; i++ {
			if got, want := r.NormFloat64(), fresh.NormFloat64(); got != want {
				t.Fatalf("%q draw %d: reseeded %v, fresh %v", name, i, got, want)
			}
		}
	}
}
