// Package stats provides deterministic random number streams, summary
// statistics, error metrics, and the distribution samplers used across the
// EdgeReasoning simulator.
//
// Every experiment in this repository must be reproducible run-to-run, so
// all randomness flows through named, seeded streams created by NewRNG.
package stats

import (
	"math"
	"math/rand/v2"
	"strconv"
)

// RNG is a deterministic random stream. It wraps the stdlib PCG generator
// and adds the distribution samplers the simulator needs (lognormal, beta,
// categorical). The zero value is not usable; construct with NewRNG.
type RNG struct {
	pcg rand.PCG
	src *rand.Rand // draws from pcg
}

// NewRNG returns a deterministic stream derived from a global seed and a
// stream name. Two streams with different names are statistically
// independent; the same (seed, name) pair always yields the same sequence.
// Deriving streams by name (rather than sequential seeding) keeps
// experiments independent of the order in which they run.
func NewRNG(seed uint64, name string) *RNG {
	r := &RNG{}
	r.src = rand.New(&r.pcg)
	r.Reseed(seed, NameOf(name))
	return r
}

// Reseed restarts r as the stream NewRNG(seed, s) returns, for the name
// NameOf(s) or one built up to the same bytes, without allocating. A
// caller drawing many short named streams in turn reuses one RNG this
// way.
//
//edgereasoning:hotpath bench=BenchmarkTable12Cell
func (r *RNG) Reseed(seed uint64, name Name) {
	r.pcg.Seed(seed, uint64(name))
}

// Name is a stream name being hashed: the 64-bit FNV-1a state of the
// bytes folded in so far. A name extended by AddInt hashes the same bytes
// as the whole string, so a prefix shared by many streams is hashed once
// and each stream folds only its own index into a copy.
type Name uint64

const fnvPrime Name = 1099511628211

// NameOf hashes a stream name.
func NameOf(s string) Name {
	h := Name(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h = (h ^ Name(s[i])) * fnvPrime
	}
	return h
}

// AddInt folds n's decimal digits, as strconv.Itoa (and fmt's %d) write
// them, into the name.
//
//edgereasoning:hotpath bench=BenchmarkTable12Cell
func (h Name) AddInt(n int) Name {
	var buf [20]byte
	for _, b := range strconv.AppendInt(buf[:0], int64(n), 10) {
		h = (h ^ Name(b)) * fnvPrime
	}
	return h
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// NormFloat64 returns a standard normal sample.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Normal returns a normal sample with the given mean and standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// LogNormal returns a sample whose logarithm is normal with parameters mu
// and sigma. The mean of the distribution is exp(mu + sigma²/2).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// LogNormalMean returns a lognormal sample parameterized by its arithmetic
// mean and the sigma of the underlying normal. This is the form used for
// output-token-length distributions: the paper reports mean tokens per
// configuration, and sigma controls question-to-question spread.
func (r *RNG) LogNormalMean(mean, sigma float64) float64 {
	if mean <= 0 {
		return 0
	}
	mu := math.Log(mean) - sigma*sigma/2
	return r.LogNormal(mu, sigma)
}

// Beta returns a Beta(a, b) sample via Jöhnk/gamma composition. Both shape
// parameters must be positive.
func (r *RNG) Beta(a, b float64) float64 {
	x := r.gamma(a)
	y := r.gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// gamma draws from Gamma(shape, 1) using Marsaglia–Tsang for shape >= 1 and
// the boost transform for shape < 1.
func (r *RNG) gamma(shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.src.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Categorical returns an index sampled from the (unnormalized, non-negative)
// weight vector. It panics if the weights are empty or sum to zero.
func (r *RNG) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: negative categorical weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("stats: empty or zero categorical weights")
	}
	u := r.src.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// HashJitter returns x scaled by a deterministic factor in [1-frac, 1+frac]
// derived from the key. It consumes no stream state, so it is used where
// the paper observes deterministic-but-irregular effects (e.g. CUTLASS
// kernel-variant selection by GEMM shape).
func HashJitter(x, frac float64, key uint64) float64 {
	// SplitMix64 finalizer: cheap, well-distributed.
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / float64(1<<53) // [0,1)
	return x * (1 + frac*(2*u-1))
}
