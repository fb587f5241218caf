package llm

import (
	"fmt"
	"math"

	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/model"
	"edgereasoning/internal/stats"
)

// Generation is one sampled model response to one question.
type Generation struct {
	// OutputTokens = ThinkTokens + AnswerTokens (what the engine decodes).
	OutputTokens int
	ThinkTokens  int
	AnswerTokens int
	// Correct reports whether the extracted answer matches ground truth.
	Correct bool
	// Answer identifies the response for majority voting: 0 is the
	// correct answer; positive values identify wrong-answer clusters.
	Answer int
	// Truncated marks generations cut by a hard token limit.
	Truncated bool
}

// Twin samples generations that statistically match one model's measured
// behaviour on one benchmark.
type Twin struct {
	Spec  model.Spec
	Bench data.Benchmark
	seed  uint64
	// meanDifficulty centres the difficulty adjustment so bank-level
	// accuracy stays on calibration.
	meanDifficulty float64
	// difficultySlope couples per-question accuracy to difficulty.
	difficultySlope float64
}

// NewTwin builds a twin for a model on a benchmark bank. The bank is used
// only to centre the difficulty adjustment.
func NewTwin(spec model.Spec, bank *data.Bank, seed uint64) *Twin {
	md := 0.5
	if bank != nil && len(bank.Questions) > 0 {
		sum := 0.0
		for _, q := range bank.Questions {
			sum += q.Difficulty
		}
		md = sum / float64(len(bank.Questions))
	}
	bench := data.MMLURedux
	if bank != nil {
		bench = bank.Benchmark
	}
	return &Twin{
		Spec:            spec,
		Bench:           bench,
		seed:            seed,
		meanDifficulty:  md,
		difficultySlope: 0.55,
	}
}

// Behavior resolves the calibrated cell for a policy, or an error when
// neither the paper nor the interpolator covers the combination.
func (t *Twin) Behavior(pol control.Policy) (Behavior, error) {
	if err := pol.Validate(); err != nil {
		return Behavior{}, err
	}
	if beh, ok := Calibrated(t.Spec.ID, t.Bench, pol.Key()); ok {
		return beh, nil
	}
	// Arbitrary hard budgets interpolate along the model's budget curve.
	if pol.Kind == control.Hard {
		if beh, ok := InterpolateHardBudget(t.Spec.ID, t.Bench, pol.Budget); ok {
			return beh, nil
		}
	}
	return Behavior{}, fmt.Errorf("llm: no calibration for %s on %s with %s", t.Spec.ID, t.Bench, pol.Key())
}

// questionRNG derives the deterministic stream for one (question, config)
// pair; order of evaluation never changes results.
func (t *Twin) questionRNG(qIdx int, configKey string) *stats.RNG {
	name := fmt.Sprintf("llm/%s/%s/%s/q%d", t.Spec.ID, t.Bench, configKey, qIdx)
	return stats.NewRNG(t.seed, name)
}

// pCorrect samples the question's latent correctness probability for this
// model: the calibrated mean accuracy, tilted by question difficulty and
// dispersed by a Beta distribution (majority voting exploits exactly this
// heterogeneity).
func (t *Twin) pCorrect(q data.Question, beh Behavior, rng *stats.RNG) float64 {
	// The difficulty tilt shrinks near the accuracy extremes: a model at
	// 1% (Natural-Plan 1.5B) or 87% (MMLU 14B) has little headroom either
	// side, and an unscaled tilt plus clamping would bias the bank mean
	// away from calibration.
	acc := beh.Accuracy
	tilt := t.difficultySlope * 4 * acc * (1 - acc)
	mu := acc + tilt*(t.meanDifficulty-q.Difficulty)
	floor := 0.02
	if acc/2 < floor {
		floor = acc / 2
	}
	mu = stats.Clamp(mu, floor, 0.985)
	nu := beh.Dispersion
	if nu <= 0 {
		nu = 4.0
	}
	return rng.Beta(nu*mu, nu*(1-mu))
}

// lengthDist is one question's output-length distribution under one
// policy: lognormal around the calibrated mean, correlated with
// difficulty (harder questions think longer). Hard policies censor it at
// the cap, with mu solved so the post-truncation mean still matches the
// table. It is resolved once per question and drawn once per branch.
type lengthDist struct {
	mu, sigma float64
	cap       int  // hard output cap; 0 when uncapped
	atCap     bool // the target mean is at the cap: every branch is cut there
}

// lengths resolves the question's length distribution. A target at or
// above 0.995 of the cap needs no solve: every branch is the cap itself,
// and drawing it consumes no randomness.
func (t *Twin) lengths(q data.Question, beh Behavior, pol control.Policy) lengthDist {
	diffFactor := 0.75 + 0.5*(q.Difficulty-t.meanDifficulty+0.5)
	target := beh.MeanTokens * diffFactor
	if target < 1 {
		target = 1
	}
	d := lengthDist{sigma: beh.Sigma, cap: pol.Cap()}
	switch c := float64(d.cap); {
	case d.cap == 0:
		d.mu = math.Log(target) - beh.Sigma*beh.Sigma/2
	case target >= c*0.995:
		d.atCap = true
	default:
		d.mu = solveCensoredMu(target, beh.Sigma, c)
	}
	return d
}

// draw samples one branch's output length.
//
//edgereasoning:hotpath bench=BenchmarkSweep
func (d lengthDist) draw(rng *stats.RNG) (tokens int, truncated bool) {
	if d.atCap {
		return d.cap, true
	}
	x := rng.LogNormal(d.mu, d.sigma)
	if d.cap > 0 && x > float64(d.cap) {
		x = float64(d.cap)
	}
	n := int(math.Round(x))
	if n < 1 {
		n = 1
	}
	if d.cap > 0 && n >= d.cap {
		return d.cap, true
	}
	return n, false
}

// Generate samples one response (the SF=1 path).
func (t *Twin) Generate(q data.Question, pol control.Policy) (Generation, error) {
	gens, err := t.GenerateVotes(q, pol, 1)
	if err != nil {
		return Generation{}, err
	}
	return gens[0], nil
}

// GenerateVotes samples k parallel responses to one question. All k share
// the question's latent correctness probability and distractor profile
// (they are the same model on the same input); token sampling and answer
// choice are independent across branches — the setup of §V-E.
func (t *Twin) GenerateVotes(q data.Question, pol control.Policy, k int) ([]Generation, error) {
	if k < 1 {
		return nil, fmt.Errorf("llm: vote count must be >= 1, got %d", k)
	}
	beh, err := t.Behavior(pol)
	if err != nil {
		return nil, err
	}
	rng := t.questionRNG(q.Index, pol.Key())
	p := t.pCorrect(q, beh, rng)
	// The model's modal answer on this question: with probability VoteCorr
	// a branch repeats it rather than sampling fresh. The modal answer
	// follows the same distribution as a fresh sample, so single-sample
	// accuracy is exactly p regardless of the correlation.
	modal := sampleAnswer(q, p, -1, rng)
	dist := t.lengths(q, beh, pol)

	out := make([]Generation, k)
	for i := range out {
		tokens, truncated := dist.draw(rng)
		g := Generation{OutputTokens: tokens, Truncated: truncated}
		g.ThinkTokens, g.AnswerTokens = splitThinkAnswer(t.Spec, pol, tokens)
		if k > 1 && rng.Bernoulli(beh.VoteCorr) {
			g.Answer = modal
		} else {
			g.Answer = sampleAnswer(q, p, i, rng)
		}
		g.Correct = g.Answer == 0
		out[i] = g
	}
	return out, nil
}

// sampleAnswer draws the answer identity: 0 for correct, otherwise a
// wrong-answer cluster id. Multiple-choice questions spread wrong mass
// over the question's distractor profile; exact-match questions mostly
// produce unique wrong answers, colliding at the WrongAttractor rate.
func sampleAnswer(q data.Question, p float64, voteIdx int, rng *stats.RNG) int {
	if rng.Bernoulli(p) {
		return 0
	}
	if q.Choices > 1 && len(q.DistractorBias) > 0 {
		return 1 + rng.Categorical(q.DistractorBias)
	}
	// Exact match: wrong answers collide onto a shared attractor with
	// probability WrongAttractor, else are effectively unique.
	if rng.Bernoulli(q.WrongAttractor) {
		return 1
	}
	return 1000 + voteIdx // unique per branch: never forms a majority
}

// splitThinkAnswer decomposes an output into chain-of-thought and answer
// spans. Reasoning models spend nearly everything thinking; NR injects a
// stub thinking block; direct models do not think at all.
func splitThinkAnswer(spec model.Spec, pol control.Policy, tokens int) (think, answer int) {
	switch {
	case pol.Kind == control.Direct || spec.Class == model.NonReasoning:
		return 0, tokens
	case pol.Kind == control.NoReason:
		think = 10 // "<think> Okay, I think I have finished thinking. </think>"
		if think > tokens {
			think = tokens
		}
		return think, tokens - think
	default:
		answer = 24
		if answer > tokens/4 {
			answer = tokens / 4
		}
		if answer < 1 {
			answer = 1
		}
		return tokens - answer, answer
	}
}

// normCDF is the standard normal CDF.
func normCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// censoredMean returns E[min(X, c)] for X ~ LogNormal(mu, sigma), given
// logC = log(c).
func censoredMean(mu, sigma, c, logC float64) float64 {
	m := math.Exp(mu + sigma*sigma/2)
	return m*normCDF((logC-mu-sigma*sigma)/sigma) + c*(1-normCDF((logC-mu)/sigma))
}

// solveCensoredMu inverts censoredMean over mu via bisection. An
// iteration that leaves (lo, hi) unchanged is a fixed point, so the loop
// stops there: every later iteration would repeat it.
//
//edgereasoning:hotpath bench=BenchmarkSweep
func solveCensoredMu(target, sigma, c float64) float64 {
	logC := math.Log(c)
	lo := math.Log(target) - sigma*sigma/2 - 2 // censored mean < uncensored
	hi := logC + 4*sigma                       // pushes censored mean -> c
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if censoredMean(mid, sigma, c, logC) < target {
			if lo == mid {
				break
			}
			lo = mid
		} else {
			if hi == mid {
				break
			}
			hi = mid
		}
	}
	return (lo + hi) / 2
}
