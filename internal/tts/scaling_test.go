package tts

import (
	"math"
	"strings"
	"testing"

	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
)

const seed = 7

func twinFor(id model.ID, bank *data.Bank) *llm.Twin {
	return llm.NewTwin(model.MustLookup(id), bank, seed)
}

func TestMajorityVoteBasics(t *testing.T) {
	gens := []llm.Generation{{Answer: 0}, {Answer: 1}, {Answer: 0}, {Answer: 2}, {Answer: 0}}
	a, v := MajorityVote(gens)
	if a != 0 || v != 3 {
		t.Errorf("vote = (%d, %d), want (0, 3)", a, v)
	}
}

func TestMajorityVoteTieBreaksOnFirstSeen(t *testing.T) {
	gens := []llm.Generation{{Answer: 2}, {Answer: 0}, {Answer: 2}, {Answer: 0}}
	a, v := MajorityVote(gens)
	if a != 2 || v != 2 {
		t.Errorf("tie should break to first-seen answer 2, got (%d, %d)", a, v)
	}
}

func TestMajorityVoteEmpty(t *testing.T) {
	if a, v := MajorityVote(nil); a != 0 || v != 0 {
		t.Errorf("empty vote = (%d, %d)", a, v)
	}
}

func TestMajorityVotePermutationInvariantCount(t *testing.T) {
	gens := []llm.Generation{{Answer: 1}, {Answer: 0}, {Answer: 0}, {Answer: 3}, {Answer: 0}, {Answer: 1}}
	_, v1 := MajorityVote(gens)
	rev := make([]llm.Generation, len(gens))
	for i := range gens {
		rev[len(gens)-1-i] = gens[i]
	}
	_, v2 := MajorityVote(rev)
	if v1 != v2 {
		t.Errorf("winning count must be permutation invariant: %d vs %d", v1, v2)
	}
}

// Fig 9a: at a 128-token budget, scaling 1x -> 32x lifts accuracy by
// roughly 1.5-1.8x for the 8B and 14B models.
func TestParallelScalingGainsAt128(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, seed)
	cases := []struct {
		id      model.ID
		minGain float64
		maxGain float64
	}{
		{model.DSR1Llama8B, 1.3, 2.2},
		{model.DSR1Qwen14B, 1.3, 2.1},
	}
	for _, c := range cases {
		tw := twinFor(c.id, bank)
		r1, err := EvaluateBank(tw, bank, control.HardLimit(128), 1)
		if err != nil {
			t.Fatal(err)
		}
		r32, err := EvaluateBank(tw, bank, control.HardLimit(128), 32)
		if err != nil {
			t.Fatal(err)
		}
		gain := r32.Accuracy / r1.Accuracy
		if gain < c.minGain || gain > c.maxGain {
			t.Errorf("%s: SF32/SF1 gain = %.2f (%.1f%% -> %.1f%%), want %.1f-%.1f",
				c.id, gain, r1.Accuracy*100, r32.Accuracy*100, c.minGain, c.maxGain)
		}
	}
}

// Fig 9b: at a 512-token budget the gains plateau — SF4 -> SF32 adds
// little for the large models.
func TestParallelScalingPlateauAt512(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, seed)
	tw := twinFor(model.DSR1Qwen14B, bank)
	r4, err := EvaluateBank(tw, bank, control.HardLimit(512), 4)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := EvaluateBank(tw, bank, control.HardLimit(512), 32)
	if err != nil {
		t.Fatal(err)
	}
	if r32.Accuracy-r4.Accuracy > 0.06 {
		t.Errorf("SF4->SF32 at 512 tokens gained %.1f points; paper reports a plateau",
			(r32.Accuracy-r4.Accuracy)*100)
	}
}

// Accuracy is (weakly) increasing over small scaling factors for mid-size
// models.
func TestScalingMonotoneEarly(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, seed)
	tw := twinFor(model.DSR1Llama8B, bank)
	rs, err := Sweep(tw, bank, control.HardLimit(128), []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if !(rs[1].Accuracy >= rs[0].Accuracy-0.01 && rs[2].Accuracy >= rs[1].Accuracy-0.01) {
		t.Errorf("accuracy should rise with SF: %.3f, %.3f, %.3f",
			rs[0].Accuracy, rs[1].Accuracy, rs[2].Accuracy)
	}
}

// L1's budget-tuned outputs are near-deterministic, so voting brings
// little (§V-E: "negligible benefits beyond 2x").
func TestL1LimitedVotingGains(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, seed)
	tw := twinFor(model.L1Max, bank)
	r1, err := EvaluateBank(tw, bank, control.HardLimit(128), 1)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := EvaluateBank(tw, bank, control.HardLimit(128), 32)
	if err != nil {
		t.Fatal(err)
	}
	gain := r32.Accuracy / r1.Accuracy
	// The 1.5B-class models gain far less than the big ones.
	if gain > 1.9 {
		t.Errorf("L1 voting gain = %.2f, should be modest", gain)
	}
}

func TestEvaluateBankTokenAccounting(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, seed).Subsample(100)
	tw := twinFor(model.DSR1Qwen14B, bank)
	r, err := EvaluateBank(tw, bank, control.HardLimit(128), 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanMaxTokens > 128 {
		t.Errorf("max branch tokens %.1f exceeds the hard cap", r.MeanMaxTokens)
	}
	if r.MeanTokens < r.MeanMaxTokens {
		t.Error("summed branch tokens must exceed the longest branch")
	}
	if r.MeanTokens > 8*128 {
		t.Error("summed tokens exceed SF x cap")
	}
	if r.MeanAgreement <= 0 || r.MeanAgreement > 1 {
		t.Errorf("agreement out of range: %v", r.MeanAgreement)
	}
}

func TestEvaluateBankRejectsBadSF(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, seed).Subsample(10)
	tw := twinFor(model.DSR1Qwen14B, bank)
	if _, err := EvaluateBank(tw, bank, control.BasePolicy(), 0); err == nil {
		t.Error("SF=0 must fail")
	}
}

func TestPaperScalingFactors(t *testing.T) {
	fs := PaperScalingFactors()
	want := []int{1, 2, 4, 8, 16, 32}
	if len(fs) != len(want) {
		t.Fatal("wrong factor count")
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Errorf("factors = %v, want %v", fs, want)
		}
	}
}

// Exact-match voting: unique wrong answers cannot form majorities, so two
// agreeing correct votes beat any number of scattered unique wrongs.
func TestExactMatchVotingDynamics(t *testing.T) {
	gens := []llm.Generation{
		{Answer: 1001}, {Answer: 0}, {Answer: 1003}, {Answer: 0}, {Answer: 1004},
	}
	a, v := MajorityVote(gens)
	if a != 0 || v != 2 {
		t.Errorf("repeated correct answer should win, got (%d, %d)", a, v)
	}
	// All-singleton ties break to the first-generated answer.
	single := []llm.Generation{{Answer: 1001}, {Answer: 0}}
	if a, _ := MajorityVote(single); a != 1001 {
		t.Errorf("singleton tie should break first-seen, got %d", a)
	}
}

// evaluateBankRef is the per-factor evaluation Sweep replaces: one
// GenerateVotes call per question at each factor, accumulated in question
// order.
func evaluateBankRef(t *testing.T, tw *llm.Twin, bank *data.Bank, pol control.Policy, sf int) BankResult {
	t.Helper()
	out := BankResult{SF: sf, Questions: bank.Size()}
	correct := 0
	for _, q := range bank.Questions {
		gens, err := tw.GenerateVotes(q, pol, sf)
		if err != nil {
			t.Fatal(err)
		}
		answer, votes := MajorityVote(gens)
		if answer == 0 {
			correct++
		}
		out.MeanAgreement += float64(votes) / float64(len(gens))
		tokens, longest := 0, 0
		for _, g := range gens {
			tokens += g.OutputTokens
			if g.OutputTokens > longest {
				longest = g.OutputTokens
			}
		}
		out.MeanTokens += float64(tokens)
		out.MeanMaxTokens += float64(longest)
	}
	n := float64(bank.Size())
	out.Accuracy = float64(correct) / n
	out.MeanAgreement /= n
	out.MeanTokens /= n
	out.MeanMaxTokens /= n
	return out
}

func sameBankResult(a, b BankResult) bool {
	return a.SF == b.SF && a.Questions == b.Questions &&
		math.Float64bits(a.Accuracy) == math.Float64bits(b.Accuracy) &&
		math.Float64bits(a.MeanAgreement) == math.Float64bits(b.MeanAgreement) &&
		math.Float64bits(a.MeanTokens) == math.Float64bits(b.MeanTokens) &&
		math.Float64bits(a.MeanMaxTokens) == math.Float64bits(b.MeanMaxTokens)
}

// Sweep draws each question's votes once and scores prefixes of them; its
// results must keep the bits of evaluating every factor on its own, for
// any factor order and with repeats.
func TestSweepMatchesEvaluateBank(t *testing.T) {
	mmlu := data.MustLoad(data.MMLURedux, seed).Subsample(150)
	plan := data.MustLoad(data.NaturalPlanMeeting, seed).Subsample(150)
	cases := []struct {
		bank *data.Bank
		id   model.ID
		pol  control.Policy
	}{
		{mmlu, model.DSR1Qwen14B, control.HardLimit(128)},
		{mmlu, model.L1Max, control.HardLimit(512)},
		{plan, model.DSR1Llama8B, control.HardLimit(512)},
	}
	for _, c := range cases {
		tw := twinFor(c.id, c.bank)
		ref := map[int]BankResult{}
		for _, sf := range PaperScalingFactors() {
			ref[sf] = evaluateBankRef(t, tw, c.bank, c.pol, sf)
		}
		for _, factors := range [][]int{PaperScalingFactors(), {32, 1, 8}, {4, 4}, {1}} {
			rs, err := Sweep(tw, c.bank, c.pol, factors)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != len(factors) {
				t.Fatalf("Sweep(%v) returned %d results", factors, len(rs))
			}
			for i, sf := range factors {
				if !sameBankResult(rs[i], ref[sf]) {
					t.Errorf("%s %s Sweep(%v)[%d] = %+v, per-factor evaluation %+v",
						c.id, c.pol.Key(), factors, i, rs[i], ref[sf])
				}
			}
		}
	}
}

// A factor below 1 anywhere in the list fails the sweep before any
// sample is drawn: on a twin with no calibration for the cell, the
// factor error wins over the calibration error.
func TestSweepRejectsBadFactorFirst(t *testing.T) {
	bank := data.MustLoad(data.AIME2024, seed)
	tw := twinFor(model.Gemma7Bit, bank)
	rs, err := Sweep(tw, bank, control.BasePolicy(), []int{1, 4, 0})
	if err == nil || !strings.Contains(err.Error(), "scaling factor") {
		t.Fatalf("Sweep with SF 0 = %v, want a scaling-factor error", err)
	}
	if rs != nil {
		t.Errorf("a rejected sweep returned results: %+v", rs)
	}
}

// BenchmarkSweep is Fig 9 panel a's shape: the four Fig 9 models over 150
// MMLU-Redux questions at a 128-token budget, SF 1 to 32.
func BenchmarkSweep(b *testing.B) {
	bank := data.MustLoad(data.MMLURedux, seed)
	sub := bank.Subsample(150)
	models := []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B, model.L1Max}
	twins := make([]*llm.Twin, len(models))
	for i, id := range models {
		twins[i] = twinFor(id, bank)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tw := range twins {
			if _, err := Sweep(tw, sub, control.HardLimit(128), PaperScalingFactors()); err != nil {
				b.Fatal(err)
			}
		}
	}
}
