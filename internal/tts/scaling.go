// Package tts implements test-time scaling evaluation (§II-B, §V-C, §V-E):
// sequential scaling (longer chains via token budgets) is exercised through
// the control policies; this package adds parallel scaling — SF samples
// decoded as one batch and aggregated by majority (plurality) voting —
// plus the accuracy/latency/energy accounting of Figs 9 and 10.
package tts

import (
	"fmt"

	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/llm"
)

// MajorityVote aggregates parallel generations by plurality over answer
// identities. Ties break toward the answer appearing earliest among the
// votes (a deterministic stand-in for vLLM's first-completion tie break).
// The second return is the winning cluster's vote count.
//
// Each vote counts its answer from there to the end, and only a strictly
// larger count takes the lead. An answer's first vote sees its full
// count; a later vote of the same answer sees fewer, so it can never take
// the lead its first vote did not.
//
//edgereasoning:hotpath bench=BenchmarkSweep
func MajorityVote(gens []llm.Generation) (answer int, votes int) {
	for i, g := range gens {
		if len(gens)-i <= votes {
			break // no answer can still get more votes
		}
		n := 1
		for _, later := range gens[i+1:] {
			if later.Answer == g.Answer {
				n++
			}
		}
		if n > votes {
			answer, votes = g.Answer, n
		}
	}
	return answer, votes
}

// QuestionResult is one question evaluated at a scaling factor.
type QuestionResult struct {
	Correct      bool
	VotedAnswer  int
	Agreement    float64 // winning votes / SF
	OutputTokens int     // summed across branches
	MaxTokens    int     // longest branch (drives latency)
}

// score votes over one question's generations.
func score(gens []llm.Generation) QuestionResult {
	answer, votes := MajorityVote(gens)
	res := QuestionResult{
		Correct:     answer == 0,
		VotedAnswer: answer,
		Agreement:   float64(votes) / float64(len(gens)),
	}
	for _, g := range gens {
		res.OutputTokens += g.OutputTokens
		if g.OutputTokens > res.MaxTokens {
			res.MaxTokens = g.OutputTokens
		}
	}
	return res
}

// BankResult aggregates a full benchmark at one scaling factor.
type BankResult struct {
	SF            int
	Accuracy      float64
	MeanAgreement float64
	MeanTokens    float64 // per question, summed over branches
	MeanMaxTokens float64 // per question, longest branch
	Questions     int
}

// EvaluateBank runs the whole bank at a scaling factor.
func EvaluateBank(tw *llm.Twin, bank *data.Bank, pol control.Policy, sf int) (BankResult, error) {
	rs, err := Sweep(tw, bank, pol, []int{sf})
	if err != nil {
		return BankResult{}, err
	}
	return rs[0], nil
}

// Sweep evaluates the bank across scaling factors (the Fig 9 x-axis).
// Each question's vote ladder is drawn once: for k ≥ 2 a branch's draws
// do not depend on k, so the first sf votes of a draw at the largest
// factor are the sf-vote draw. A single vote skips the branch-correlation
// draw, so SF 1 is drawn on its own.
func Sweep(tw *llm.Twin, bank *data.Bank, pol control.Policy, factors []int) ([]BankResult, error) {
	ladder, single := 0, false
	for _, sf := range factors {
		switch {
		case sf < 1:
			return nil, fmt.Errorf("tts: scaling factor must be >= 1, got %d", sf)
		case sf == 1:
			single = true
		case sf > ladder:
			ladder = sf
		}
	}
	out := make([]BankResult, len(factors))
	for i, sf := range factors {
		out[i] = BankResult{SF: sf, Questions: bank.Size()}
	}
	if bank.Size() == 0 {
		return out, nil
	}
	cell, err := tw.Cell(pol)
	if err != nil {
		return nil, err
	}
	correct := make([]int, len(factors))
	votes, one := make([]llm.Generation, ladder), make([]llm.Generation, 1)
	for _, q := range bank.Questions {
		switch {
		case ladder > 0 && single:
			cell.VotesPair(q, votes, one)
		case ladder > 0:
			cell.Votes(q, votes)
		default:
			cell.Votes(q, one)
		}
		for i, sf := range factors {
			gens := one
			if sf > 1 {
				gens = votes[:sf]
			}
			r := score(gens)
			if r.Correct {
				correct[i]++
			}
			out[i].MeanAgreement += r.Agreement
			out[i].MeanTokens += float64(r.OutputTokens)
			out[i].MeanMaxTokens += float64(r.MaxTokens)
		}
	}
	n := float64(bank.Size())
	for i := range out {
		out[i].Accuracy = float64(correct[i]) / n
		out[i].MeanAgreement /= n
		out[i].MeanTokens /= n
		out[i].MeanMaxTokens /= n
	}
	return out, nil
}

// PaperScalingFactors returns Fig 9/10's x-axis.
func PaperScalingFactors() []int { return []int{1, 2, 4, 8, 16, 32} }
