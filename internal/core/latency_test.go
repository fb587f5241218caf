package core

import (
	"math"
	"testing"
	"testing/quick"

	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

// orinCost resolves a catalog model's cost model on the Orin.
func orinCost(id model.ID) *gpusim.CostModel {
	spec := model.MustLookup(id)
	return gpusim.New(hw.JetsonAGXOrin64GB()).Resolve(spec.Arch, spec.DType)
}

func TestPrefillModelPredictAndPad(t *testing.T) {
	pm := PrefillModel{A: 1e-7, B: 1e-4, C: 0.1, Tile: 128}
	// 100 tokens pad to 128.
	want := 1e-7*128*128 + 1e-4*128 + 0.1
	if got := pm.Predict(100); math.Abs(got-want) > 1e-12 {
		t.Errorf("Predict(100) = %v, want %v", got, want)
	}
	if pm.Predict(0) != 0.0+pm.C {
		// Pad(0) is 0, so prediction degenerates to C.
		t.Errorf("Predict(0) = %v, want C", pm.Predict(0))
	}
}

func TestDecodeModelMatchesEqn2(t *testing.T) {
	dm := DecodeModel{M: 1e-6, N: 0.1}
	// Sum of TBT over O steps starting at context I.
	i, o := 512, 100
	var want float64
	for step := 0; step < o; step++ {
		want += dm.TBT(i + step)
	}
	if got := dm.Predict(i, o); math.Abs(got-want) > 1e-9 {
		t.Errorf("Predict = %v, want TBT sum %v", got, want)
	}
	if dm.Predict(i, 0) != 0 {
		t.Error("zero output must cost zero")
	}
}

// The fitted coefficients must land near the paper's Table IV/V values:
// the simulator and the fitting pipeline together reproduce §IV-A.
func TestFittedDecodeCoefficientsNearPaper(t *testing.T) {
	paper := PaperDecodeModels()
	for _, spec := range model.DSR1Family() {
		dm, rep, err := FitDecodeModel(orinCost(spec.ID))
		if err != nil {
			t.Fatal(err)
		}
		want := paper[spec.ID]
		if math.Abs(dm.N-want.N)/want.N > 0.15 {
			t.Errorf("%s: fitted n = %.4f, paper %.4f (±15%%)", spec.ID, dm.N, want.N)
		}
		// m is tiny; check the same order of magnitude and sign where the
		// paper's value is meaningfully positive.
		if want.M > 1e-7 {
			if dm.M < want.M/3 || dm.M > want.M*3 {
				t.Errorf("%s: fitted m = %.3g, paper %.3g (same decade)", spec.ID, dm.M, want.M)
			}
		}
		if rep.MAPE > 0.05 {
			t.Errorf("%s: decode fit MAPE = %.3f, want < 5%%", spec.ID, rep.MAPE)
		}
	}
}

func TestFittedPrefillConstantNearPaper(t *testing.T) {
	paper := PaperPrefillModels()
	for _, spec := range model.DSR1Family() {
		pm, rep, err := FitPrefillModel(orinCost(spec.ID), 2048)
		if err != nil {
			t.Fatal(err)
		}
		want := paper[spec.ID]
		// The constant c is the weight-read floor + launch overhead; it is
		// the most physically grounded coefficient. ±50% tolerance.
		if math.Abs(pm.C-want.C)/want.C > 0.5 {
			t.Errorf("%s: fitted c = %.3f, paper %.3f", spec.ID, pm.C, want.C)
		}
		if rep.MAPE > 0.15 {
			t.Errorf("%s: prefill fit MAPE = %.3f", spec.ID, rep.MAPE)
		}
	}
}

// Table VI: the analytic model tracks held-out workloads with total MAPE
// under a few percent.
func TestLatencyModelValidationMAPE(t *testing.T) {
	m := orinCost(model.DSR1Llama8B)
	lm, err := FitLatencyModel(m, model.DSR1Llama8B)
	if err != nil {
		t.Fatal(err)
	}
	// Held-out workload: (I, O) pairs the fits never saw.
	workload := [][2]int{{96, 300}, {200, 700}, {333, 950}, {700, 1500}, {150, 90}, {1500, 2500}}
	pMAPE, dMAPE, tMAPE := ValidateLatencyModel(m, lm, workload)
	if dMAPE > 0.03 {
		t.Errorf("decode MAPE = %.4f, paper reports < 0.6%%", dMAPE)
	}
	if tMAPE > 0.03 {
		t.Errorf("total MAPE = %.4f, paper reports < 0.6%%", tMAPE)
	}
	// Prefill MAPE is larger (padding steps), as in the paper (7–13%).
	if pMAPE > 0.25 {
		t.Errorf("prefill MAPE = %.4f, paper reports 7-13%%", pMAPE)
	}
}

func TestMaxTokensWithinInvertsTotal(t *testing.T) {
	lm, err := FitLatencyModel(orinCost(model.DSR1Qwen14B), model.DSR1Qwen14B)
	if err != nil {
		t.Fatal(err)
	}
	const prompt = 180
	for _, budget := range []float64{5, 20, 60, 120} {
		o := lm.MaxTokensWithin(prompt, budget)
		if o <= 0 {
			if budget > 2 {
				t.Errorf("budget %.0fs: no tokens fit (prefill alone is %.2fs)", budget, lm.Prefill.Predict(prompt))
			}
			continue
		}
		if lm.Total(prompt, o) > budget+1e-6 {
			t.Errorf("budget %.0fs: %d tokens overshoot to %.2fs", budget, o, lm.Total(prompt, o))
		}
		if lm.Total(prompt, o+2) <= budget {
			t.Errorf("budget %.0fs: inversion not tight (%d tokens fit too)", budget, o+2)
		}
	}
}

// Paper example (§V-A): DSR1-Qwen-14B with >113-token budgets becomes
// preferable beyond ~21s. Our inversion should place ~100-130 tokens
// within a 21s budget for the 14B.
func TestFig7CrossoverTokenBudget(t *testing.T) {
	lm, err := FitLatencyModel(orinCost(model.DSR1Qwen14B), model.DSR1Qwen14B)
	if err != nil {
		t.Fatal(err)
	}
	o := lm.MaxTokensWithin(180, 21)
	if o < 85 || o > 140 {
		t.Errorf("14B tokens within 21s = %d, paper implies ~113", o)
	}
}

// Property: MaxTokensWithin is monotone in the budget.
func TestMaxTokensMonotoneProperty(t *testing.T) {
	lm := LatencyModel{
		Prefill: PrefillModel{A: 1e-7, B: 3e-4, C: 0.1, Tile: 128},
		Decode:  DecodeModel{M: 1e-6, N: 0.187},
	}
	f := func(a, b uint16) bool {
		ba, bb := float64(a%600), float64(b%600)
		if ba > bb {
			ba, bb = bb, ba
		}
		return lm.MaxTokensWithin(180, ba) <= lm.MaxTokensWithin(180, bb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPaperModelTables(t *testing.T) {
	if len(PaperPrefillModels()) != 3 || len(PaperDecodeModels()) != 3 {
		t.Error("paper coefficient tables must cover the DSR1 trio")
	}
	pm := PaperPrefillModels()[model.DSR1Llama8B]
	if pm.C != 0.104 {
		t.Errorf("8B paper c = %v, want 0.104", pm.C)
	}
}
