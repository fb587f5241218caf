package llm

import (
	"math"
	"sort"
	"testing"

	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/model"
)

// Per-question accuracy must correlate with difficulty: easy questions
// (bottom quartile) are answered correctly far more often than hard ones
// (top quartile).
func TestDifficultyCorrelation(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	c := mustCell(t, NewTwin(model.MustLookup(model.DSR1Llama8B), bank, testSeed), control.BasePolicy())

	qs := make([]data.Question, len(bank.Questions))
	copy(qs, bank.Questions)
	sort.Slice(qs, func(i, j int) bool { return qs[i].Difficulty < qs[j].Difficulty })
	quart := len(qs) / 4

	accOf := func(sub []data.Question) float64 {
		correct := 0
		for _, q := range sub {
			if c.Generate(q).Correct {
				correct++
			}
		}
		return float64(correct) / float64(len(sub))
	}
	easy := accOf(qs[:quart])
	hard := accOf(qs[len(qs)-quart:])
	if easy-hard < 0.10 {
		t.Errorf("easy-quartile acc %.3f vs hard-quartile %.3f: difficulty has no bite", easy, hard)
	}
}

// Harder questions elicit longer reasoning chains.
func TestLengthDifficultyCorrelation(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	c := mustCell(t, NewTwin(model.MustLookup(model.DSR1Qwen14B), bank, testSeed), control.BasePolicy())
	var lowSum, highSum, lowN, highN float64
	for _, q := range bank.Questions {
		g := c.Generate(q)
		if q.Difficulty < 0.3 {
			lowSum += float64(g.OutputTokens)
			lowN++
		} else if q.Difficulty > 0.7 {
			highSum += float64(g.OutputTokens)
			highN++
		}
	}
	if lowN == 0 || highN == 0 {
		t.Skip("bank has no extreme-difficulty questions at this seed")
	}
	if highSum/highN <= lowSum/lowN {
		t.Errorf("hard questions (%.0f toks) should out-think easy ones (%.0f toks)",
			highSum/highN, lowSum/lowN)
	}
}

// The paper's NR anomaly on the 1.5B (NR at 41.0%% beats Base at 38.3%%)
// is preserved by calibration.
func TestNRAnomalyOn1_5B(t *testing.T) {
	nr := MustCalibrated(model.DSR1Qwen1_5B, data.MMLURedux, "nr")
	base := MustCalibrated(model.DSR1Qwen1_5B, data.MMLURedux, "base")
	if nr.Accuracy <= base.Accuracy {
		t.Errorf("1.5B NR (%.3f) must beat Base (%.3f) per the paper", nr.Accuracy, base.Accuracy)
	}
	// And the opposite holds for the larger models.
	nr8 := MustCalibrated(model.DSR1Llama8B, data.MMLURedux, "nr")
	base8 := MustCalibrated(model.DSR1Llama8B, data.MMLURedux, "base")
	if nr8.Accuracy >= base8.Accuracy {
		t.Errorf("8B NR (%.3f) must trail Base (%.3f)", nr8.Accuracy, base8.Accuracy)
	}
}

// DeepScaleR on AIME2024: the Table III accuracy (43.1%) and chain length
// (~6,520 tokens) reproduce through the twin.
func TestDeepScaleRAIMECell(t *testing.T) {
	bank := data.MustLoad(data.AIME2024, testSeed)
	tw := NewTwin(model.MustLookup(model.DeepScaleR1_5), bank, testSeed)
	correct, tokens := 0, 0
	// 30 questions is small; average over repeated seeds for a stable
	// accuracy estimate.
	runs := 40
	for s := uint64(0); s < uint64(runs); s++ {
		c := mustCell(t, NewTwin(model.MustLookup(model.DeepScaleR1_5), bank, s), control.BasePolicy())
		for _, q := range bank.Questions {
			g := c.Generate(q)
			if g.Correct {
				correct++
			}
			tokens += g.OutputTokens
		}
	}
	n := float64(bank.Size() * runs)
	acc := float64(correct) / n
	if math.Abs(acc-0.431) > 0.05 {
		t.Errorf("DeepScaleR AIME accuracy = %.3f, paper 0.431", acc)
	}
	meanToks := float64(tokens) / n
	if math.Abs(meanToks-6520)/6520 > 0.10 {
		t.Errorf("DeepScaleR AIME tokens = %.0f, paper ~6520", meanToks)
	}
	_ = tw
}

// Interpolated cells must be flagged so downstream consumers can caveat
// them.
func TestInterpolatedCellsFlagged(t *testing.T) {
	for _, c := range []struct {
		id  model.ID
		cfg string
	}{
		{model.Qwen25_1_5Bit, "direct"},
		{model.Qwen25_14Bit, "direct"},
		{model.DSR1Llama8B, "hard-512"},
	} {
		beh, ok := Calibrated(c.id, data.MMLURedux, c.cfg)
		if !ok {
			t.Fatalf("%s/%s missing", c.id, c.cfg)
		}
		if !beh.Interpolated {
			t.Errorf("%s/%s should be flagged interpolated", c.id, c.cfg)
		}
	}
	// Paper-tabulated cells are not flagged.
	if MustCalibrated(model.DSR1Qwen14B, data.MMLURedux, "base").Interpolated {
		t.Error("tabulated cell wrongly flagged interpolated")
	}
}

// Output lengths vary question to question (lognormal spread), yet the
// bank mean stays calibrated — checked elsewhere; here we check the
// spread exists.
func TestLengthSpreadExists(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	c := mustCell(t, NewTwin(model.MustLookup(model.DSR1Llama8B), bank, testSeed), control.BasePolicy())
	lengths := map[int]bool{}
	for _, q := range bank.Questions[:200] {
		lengths[c.Generate(q).OutputTokens] = true
	}
	if len(lengths) < 100 {
		t.Errorf("only %d distinct lengths in 200 questions; spread too narrow", len(lengths))
	}
}

// Vote correlation leaves single-sample accuracy untouched: SF=1 accuracy
// for a high-correlation cell (L1) still matches its calibration.
func TestVoteCorrDoesNotBiasSingleSample(t *testing.T) {
	bank := data.MustLoad(data.MMLURedux, testSeed)
	c := mustCell(t, NewTwin(model.MustLookup(model.L1Max), bank, testSeed), control.HardLimit(128))
	correct := 0
	for _, q := range bank.Questions {
		if c.Generate(q).Correct {
			correct++
		}
	}
	acc := float64(correct) / float64(bank.Size())
	if math.Abs(acc-0.162) > 0.025 {
		t.Errorf("L1 hard-128 SF=1 accuracy = %.3f, calibration 0.162", acc)
	}
}
