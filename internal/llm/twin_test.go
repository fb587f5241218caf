package llm

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/model"
	"edgereasoning/internal/stats"
)

const testSeed = 7

// mustCell resolves a twin's cell for a policy.
func mustCell(t testing.TB, tw *Twin, pol control.Policy) *Cell {
	t.Helper()
	c, err := tw.Cell(pol)
	if err != nil {
		t.Fatalf("%s/%s/%s: %v", tw.Spec.ID, tw.Bench, pol.Key(), err)
	}
	return c
}

// evaluate runs a twin over a bank at SF=1 and returns (accuracy, mean
// output tokens).
func evaluate(t *testing.T, id model.ID, bench data.Benchmark, pol control.Policy) (float64, float64) {
	t.Helper()
	bank := data.MustLoad(bench, testSeed)
	c := mustCell(t, NewTwin(model.MustLookup(id), bank, testSeed), pol)
	correct, tokens := 0, 0
	for _, q := range bank.Questions {
		g := c.Generate(q)
		if g.Correct {
			correct++
		}
		tokens += g.OutputTokens
	}
	n := float64(bank.Size())
	return float64(correct) / n, float64(tokens) / n
}

// The twins must reproduce the paper's appendix tables. Accuracy within
// ±2.5 points and mean tokens within ±8% at 3k questions.
func TestTwinReproducesTableXAndXI(t *testing.T) {
	cases := []struct {
		id       model.ID
		pol      control.Policy
		wantAcc  float64 // percent
		wantToks float64
	}{
		{model.DSR1Qwen1_5B, control.BasePolicy(), 38.3, 740.2},
		{model.DSR1Llama8B, control.BasePolicy(), 61.7, 811.1},
		{model.DSR1Qwen14B, control.BasePolicy(), 80.6, 1317.8},
		{model.L1Max, control.BasePolicy(), 43.8, 312.6},
		{model.DSR1Llama8B, control.SoftLimit(128), 60.4, 437.0},
		{model.DSR1Llama8B, control.HardLimit(128), 37.9, 76.3},
		{model.DSR1Qwen1_5B, control.HardLimit(128), 15.9, 91.5},
		{model.DSR1Qwen14B, control.HardLimit(256), 58.6, 112.9},
		{model.DSR1Qwen14B, control.NoReasoning(), 69.0, 180.7},
		{model.Qwen25_7Bit, control.DirectAnswer(), 60.9, 40.2},
		{model.Llama31_8Bit, control.DirectAnswer(), 58.3, 63.5},
	}
	for _, c := range cases {
		acc, toks := evaluate(t, c.id, data.MMLURedux, c.pol)
		if math.Abs(acc*100-c.wantAcc) > 2.5 {
			t.Errorf("%s %s: accuracy = %.1f%%, want %.1f ±2.5", c.id, c.pol.Key(), acc*100, c.wantAcc)
		}
		if math.Abs(toks-c.wantToks)/c.wantToks > 0.08 {
			t.Errorf("%s %s: mean tokens = %.1f, want %.1f ±8%%", c.id, c.pol.Key(), toks, c.wantToks)
		}
	}
}

func TestHardLimitNeverExceedsCap(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	c := mustCell(t, NewTwin(model.MustLookup(model.DSR1Qwen14B), bank, testSeed), control.HardLimit(128))
	for _, q := range bank.Questions[:500] {
		g := c.Generate(q)
		if g.OutputTokens > 128 {
			t.Fatalf("hard-128 emitted %d tokens", g.OutputTokens)
		}
		if g.OutputTokens == 128 && !g.Truncated {
			t.Error("cap-length generation should be marked truncated")
		}
	}
}

func TestTwinDeterministic(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	q := bank.Questions[42]
	spec := model.MustLookup(model.DSR1Llama8B)
	a := mustCell(t, NewTwin(spec, bank, testSeed), control.BasePolicy()).Generate(q)
	b := mustCell(t, NewTwin(spec, bank, testSeed), control.BasePolicy()).Generate(q)
	if a != b {
		t.Errorf("same seed must reproduce: %+v vs %+v", a, b)
	}
}

func TestQuantizedTwinCells(t *testing.T) {
	// Table X quantized rows resolve through -w4 specs.
	acc, toks := evaluate(t, "dsr1-llama-8b-w4", data.MMLURedux, control.BasePolicy())
	if math.Abs(acc*100-57.9) > 2.5 {
		t.Errorf("8B-W4 accuracy = %.1f%%, want 57.9", acc*100)
	}
	if math.Abs(toks-549.1)/549.1 > 0.08 {
		t.Errorf("8B-W4 tokens = %.1f, want 549.1", toks)
	}
}

func TestMMLU15kCells(t *testing.T) {
	acc, toks := evaluate(t, model.DSR1Qwen14B, data.MMLU, control.BasePolicy())
	if math.Abs(acc*100-86.59) > 2.0 {
		t.Errorf("14B MMLU accuracy = %.2f%%, want 86.59", acc*100)
	}
	if math.Abs(toks-1145.4)/1145.4 > 0.08 {
		t.Errorf("14B MMLU tokens = %.1f, want 1145.4", toks)
	}
}

func TestNaturalPlanCells(t *testing.T) {
	acc, toks := evaluate(t, model.DSR1Qwen14B, data.NaturalPlanMeeting, control.BasePolicy())
	if math.Abs(acc*100-19.3) > 2.5 {
		t.Errorf("14B meeting accuracy = %.1f%%, want 19.3", acc*100)
	}
	if math.Abs(toks-1494)/1494 > 0.08 {
		t.Errorf("14B meeting tokens = %.0f, want 1494", toks)
	}
}

func TestUncalibratedCombinationErrors(t *testing.T) {
	bank := data.MustLoad(data.AIME2024, testSeed)
	tw := NewTwin(model.MustLookup(model.Gemma7Bit), bank, testSeed)
	if _, err := tw.Cell(control.BasePolicy()); err == nil {
		t.Error("expected error for uncalibrated model/benchmark pair")
	}
	if _, err := tw.GenerateVotes(bank.Questions[0], control.BasePolicy(), 1); err == nil {
		t.Error("GenerateVotes: expected error for uncalibrated model/benchmark pair")
	}
	if _, err := tw.Cell(control.Policy{Kind: control.Hard}); err == nil {
		t.Error("expected error for a hard policy without a budget")
	}
}

func TestGenerateVotesShareQuestionState(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	tw := NewTwin(model.MustLookup(model.DSR1Qwen14B), bank, testSeed)
	gens, err := tw.GenerateVotes(bank.Questions[7], control.HardLimit(128), 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 32 {
		t.Fatalf("want 32 votes, got %d", len(gens))
	}
	// Votes must vary (not all identical answers across a hard question)
	// over the bank; check globally that at least some questions split.
	split := 0
	for _, q := range bank.Questions[:200] {
		gs, err := tw.GenerateVotes(q, control.HardLimit(128), 8)
		if err != nil {
			t.Fatal(err)
		}
		first := gs[0].Answer
		for _, g := range gs[1:] {
			if g.Answer != first {
				split++
				break
			}
		}
	}
	if split < 50 {
		t.Errorf("only %d/200 questions produced split votes; voting would be vacuous", split)
	}
}

func TestVotesInvalidCount(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	tw := NewTwin(model.MustLookup(model.DSR1Qwen14B), bank, testSeed)
	if _, err := tw.GenerateVotes(bank.Questions[0], control.BasePolicy(), 0); err == nil {
		t.Error("k=0 must error")
	}
}

func TestThinkAnswerSplit(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	// Reasoning model: mostly thinking.
	tw := NewTwin(model.MustLookup(model.DSR1Llama8B), bank, testSeed)
	g := mustCell(t, tw, control.BasePolicy()).Generate(bank.Questions[0])
	if g.ThinkTokens <= g.AnswerTokens {
		t.Errorf("reasoning model should think more than it answers: %+v", g)
	}
	if g.ThinkTokens+g.AnswerTokens != g.OutputTokens {
		t.Error("split must conserve tokens")
	}
	// Direct model: no thinking.
	twd := NewTwin(model.MustLookup(model.Qwen25_7Bit), bank, testSeed)
	gd := mustCell(t, twd, control.DirectAnswer()).Generate(bank.Questions[0])
	if gd.ThinkTokens != 0 {
		t.Errorf("direct model must not think: %+v", gd)
	}
	// NR: stub think block.
	gnr := mustCell(t, tw, control.NoReasoning()).Generate(bank.Questions[1])
	if gnr.ThinkTokens == 0 || gnr.ThinkTokens > 16 {
		t.Errorf("NR think stub should be small and nonzero: %+v", gnr)
	}
}

func TestCensoredMeanMath(t *testing.T) {
	// With a cap far above the mean, the censored mean approaches the
	// uncensored one.
	mu, sigma := 5.0, 0.4
	uncensored := math.Exp(mu + sigma*sigma/2)
	if got := censoredMean(mu, sigma, 1e9, math.Log(1e9)); math.Abs(got-uncensored)/uncensored > 1e-9 {
		t.Errorf("censoredMean with huge cap = %v, want %v", got, uncensored)
	}
	// With the cap at the median, the mean must fall strictly below cap
	// and below the uncensored mean.
	capAt := math.Exp(mu)
	got := censoredMean(mu, sigma, capAt, math.Log(capAt))
	if got >= capAt || got >= uncensored {
		t.Errorf("censoredMean at median = %v, cap %v, uncensored %v", got, capAt, uncensored)
	}
}

func TestSolveCensoredMuRoundTrip(t *testing.T) {
	target, sigma, c := 91.5, 0.45, 128.0
	mu := solveCensoredMu(target, sigma, c)
	if got := censoredMean(mu, sigma, c, math.Log(c)); math.Abs(got-target)/target > 0.001 {
		t.Errorf("round trip: censoredMean(solve(%v)) = %v", target, got)
	}
}

// Every branch's draws after the question state do not depend on the vote
// count once k ≥ 2, so a k-vote draw extends every j-vote draw: this is
// what lets a scaling sweep draw its vote ladder once. The cases cover
// capped (including targets at the cap), uncapped, NR and direct policies
// on a multiple-choice and an exact-match bank.
func TestGenerateVotesPrefix(t *testing.T) {
	const maxK, questions = 32, 12
	mmlu := data.MustLoad(data.MMLURedux, testSeed)
	plan := data.MustLoad(data.NaturalPlanCalendar, testSeed)
	cases := []struct {
		bank *data.Bank
		id   model.ID
		pol  control.Policy
	}{
		{mmlu, model.DSR1Qwen14B, control.HardLimit(128)},
		{mmlu, model.DSR1Qwen14B, control.HardLimit(512)},
		{mmlu, model.DSR1Qwen14B, control.BasePolicy()},
		{mmlu, model.DSR1Qwen14B, control.NoReasoning()},
		{mmlu, model.Qwen25_7Bit, control.DirectAnswer()},
		{plan, model.DSR1Qwen1_5B, control.HardLimit(512)},
		{plan, model.DSR1Llama8B, control.BasePolicy()},
		{plan, model.Qwen25_14Bit, control.DirectAnswer()},
	}
	for _, c := range cases {
		tw := NewTwin(model.MustLookup(c.id), c.bank, testSeed)
		notPrefix := 0
		for _, q := range c.bank.Questions[:questions] {
			ladder := make([][]Generation, maxK+1)
			for k := 1; k <= maxK; k++ {
				gens, err := tw.GenerateVotes(q, c.pol, k)
				if err != nil {
					t.Fatalf("%s %s: %v", c.id, c.pol.Key(), err)
				}
				ladder[k] = gens
			}
			for k := 2; k <= maxK; k++ {
				for j := 2; j <= k; j++ {
					for i, g := range ladder[j] {
						if ladder[k][i] != g {
							t.Fatalf("%s %s q%d: vote %d of the %d-vote draw = %+v, of the %d-vote draw = %+v",
								c.id, c.pol.Key(), q.Index, i, k, ladder[k][i], j, g)
						}
					}
				}
			}
			if ladder[1][0] != ladder[maxK][0] {
				notPrefix++
			}
		}
		// A single vote skips the VoteCorr draw, so its answer comes
		// from a different point of the stream: j = 1 is not a prefix.
		if notPrefix == 0 {
			t.Errorf("%s %s: the 1-vote draw matched vote 0 of all %d 32-vote draws", c.id, c.pol.Key(), questions)
		}
	}
}

// censoredMeanRef and solveCensoredMuRef are the solver as it stood
// before log(c) was hoisted and the fixed-point stop was added: 60
// bisection steps, log(c) recomputed on each. The sampler's μ must keep
// their bits.
func censoredMeanRef(mu, sigma, c float64) float64 {
	lc := math.Log(c)
	m := math.Exp(mu + sigma*sigma/2)
	return m*normCDF((lc-mu-sigma*sigma)/sigma) + c*(1-normCDF((lc-mu)/sigma))
}

func solveCensoredMuRef(target, sigma, c float64) float64 {
	lo := math.Log(target) - sigma*sigma/2 - 2 // censored mean < uncensored
	hi := math.Log(c) + 4*sigma                // pushes censored mean -> c
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if censoredMeanRef(mid, sigma, c) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// calibratedSigmas lists the distinct length spreads of the calibration
// table, sorted.
func calibratedSigmas() []float64 {
	seen := map[float64]bool{}
	for _, beh := range calibration {
		seen[beh.Sigma] = true
	}
	out := make([]float64, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Float64s(out)
	return out
}

func TestSolveCensoredMuMatchesReference(t *testing.T) {
	sigmas := append(calibratedSigmas(), 0.1, 0.8, 1.5)
	for _, c := range []float64{128, 256, 512} {
		top := math.Nextafter(c*0.995, 0)
		for _, sigma := range sigmas {
			targets := []float64{top}
			for target := 1.0; target < top; target += 0.37 {
				targets = append(targets, target)
			}
			for _, target := range targets {
				got, want := solveCensoredMu(target, sigma, c), solveCensoredMuRef(target, sigma, c)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("solveCensoredMu(%v, %v, %v) = %v, reference %v", target, sigma, c, got, want)
				}
			}
		}
	}
}

// FuzzSolveCensoredMu checks the solver against the reference over the
// domain the sampler calls it on: a cap of at least 2 tokens, a target
// mean from 1 up to just under 0.995 of the cap.
func FuzzSolveCensoredMu(f *testing.F) {
	f.Add(91.5, 0.45, 128.0)
	f.Add(1.0, 0.45, 256.0)
	f.Add(509.4, 0.45, 512.0)
	f.Add(37.25, 1.2, 4096.0)
	f.Add(510.2890625, 2.6961734693877553, 514.0) // heavy censoring: a margin of ε·target is too thin
	f.Fuzz(func(t *testing.T, target, sigma, c float64) {
		if !(c >= 2 && c <= 1<<20 && sigma >= 0.01 && sigma <= 4 && target >= 1 && target < c*0.995) {
			t.Skip()
		}
		got, want := solveCensoredMu(target, sigma, c), solveCensoredMuRef(target, sigma, c)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("solveCensoredMu(%v, %v, %v) = %v, reference %v", target, sigma, c, got, want)
		}
	})
}

// Every μ the sampler solves for on the shipped banks keeps the
// reference's bits: each calibrated hard-budget cell, every question of
// its benchmark's bank, at two seeds.
func TestSolveCensoredMuOnCalibratedTraffic(t *testing.T) {
	for _, seed := range []uint64{7, 11} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			for key, beh := range calibration {
				if !strings.HasPrefix(key.config, "hard-") {
					continue
				}
				pol, err := control.ParseKey(key.config)
				if err != nil {
					t.Fatal(err)
				}
				bank := data.MustLoad(key.bench, seed)
				tw := NewTwin(model.MustLookup(key.model), bank, seed)
				c := float64(pol.Cap())
				for _, q := range bank.Questions {
					target := tw.meanTokens(q, beh)
					if target >= c*0.995 {
						continue // at the cap: lengths does not solve
					}
					got, want := solveCensoredMu(target, beh.Sigma, c), solveCensoredMuRef(target, beh.Sigma, c)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s/%s q%d: solveCensoredMu(%v, %v, %v) = %v, reference %v",
							key.model, key.bench, key.config, q.Index, target, beh.Sigma, c, got, want)
					}
				}
			}
		})
	}
}

// A cell folds each question's index into its resolved name prefix; the
// stream must be the one the whole name, formatted per question, seeds.
func TestCellStreamName(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	tw := NewTwin(model.MustLookup(model.DSR1Qwen14B), bank, testSeed)
	for _, pol := range []control.Policy{control.BasePolicy(), control.HardLimit(128), control.SoftLimit(256)} {
		c, err := tw.Cell(pol)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range []int{0, 7, 10, 99, 100, 2999, 14999, 123456789} {
			want := stats.NameOf(fmt.Sprintf("llm/%s/%s/%s/q%d", tw.Spec.ID, tw.Bench, pol.Key(), idx))
			if got := c.name.AddInt(idx); got != want {
				t.Errorf("%s q%d: name %#x, want %#x", pol.Key(), idx, got, want)
			}
		}
	}
}

// A resolved cell samples what the per-call API samples, and keeps no
// state from one question to the next: sampling in reverse order with
// a mix of vote counts gives the same responses.
func TestCellMatchesGenerateVotes(t *testing.T) {
	bank := data.MustLoad(data.NaturalPlanTrip, testSeed)
	tw := NewTwin(model.MustLookup(model.DSR1Llama8B), bank, testSeed)
	pol := control.HardLimit(512)
	c, err := tw.Cell(pol)
	if err != nil {
		t.Fatal(err)
	}
	qs := bank.Questions[:40]
	for i := len(qs) - 1; i >= 0; i-- {
		k := 1 + i%5
		want, err := tw.GenerateVotes(qs[i], pol, k)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Generation, k)
		c.Votes(qs[i], got)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("q%d vote %d of %d: cell %+v, GenerateVotes %+v", qs[i].Index, j, k, got[j], want[j])
			}
		}
		if k == 1 && c.Generate(qs[i]) != want[0] {
			t.Fatalf("q%d: Cell.Generate differs from a 1-vote GenerateVotes", qs[i].Index)
		}
	}
}

// VotesPair draws what two Votes calls draw: one length resolve serves
// both, in either order of sizes, under capped (solved), at-cap and
// uncapped policies.
func TestVotesPairMatchesVotes(t *testing.T) {
	bank := data.MustLoad(data.NaturalPlanTrip, testSeed)
	tw := NewTwin(model.MustLookup(model.DSR1Llama8B), bank, testSeed)
	for _, pol := range []control.Policy{control.HardLimit(512), control.HardLimit(128), control.BasePolicy()} {
		c, err := tw.Cell(pol)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range bank.Questions[:40] {
			ka, kb := 1+i%7, 1+(i/7)%3
			a, b := make([]Generation, ka), make([]Generation, kb)
			c.VotesPair(q, a, b)
			wantA, wantB := make([]Generation, ka), make([]Generation, kb)
			c.Votes(q, wantA)
			c.Votes(q, wantB)
			if !reflect.DeepEqual(a, wantA) || !reflect.DeepEqual(b, wantB) {
				t.Fatalf("%s q%d (%d, %d votes): VotesPair %+v %+v, Votes %+v %+v",
					pol.Key(), q.Index, ka, kb, a, b, wantA, wantB)
			}
		}
	}
}
