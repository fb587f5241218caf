// Package core implements the paper's primary contribution: analytical
// performance models for LLM inference on edge GPUs, the pipelines that
// fit them to measurements (Eqns 1–6, Tables IV–VI, VIII, XX–XXIII), and
// the deployment planner that inverts them — mapping a latency budget to a
// maximum decodable token count and an optimal {model, token-control,
// scaling} recipe (the "Optimal Recipe @ 20s?" question of Fig 1).
package core

import (
	"fmt"
	"math"

	"edgereasoning/internal/fit"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/model"
	"edgereasoning/internal/stats"
)

// PrefillModel is Eqn 1: L_prefill(I) = a·I_pad² + b·I_pad + c, with
// I_pad the input length rounded up to the tensor-core tile.
type PrefillModel struct {
	A, B, C float64
	Tile    int // padding granularity (128 on Orin)
}

// Pad rounds an input length up to the model's tile.
func (p PrefillModel) Pad(i int) float64 {
	if i <= 0 {
		return 0
	}
	t := p.Tile
	if t <= 1 {
		return float64(i)
	}
	return float64((i + t - 1) / t * t)
}

// Predict returns the modeled prefill latency in seconds.
func (p PrefillModel) Predict(i int) float64 {
	ip := p.Pad(i)
	return p.A*ip*ip + p.B*ip + p.C
}

// DecodeModel is Eqn 2: L_decode(I, O) = n·O + m·(I·O + O(O−1)/2),
// derived from a linear time-between-tokens TBT_i = m·I_i + n.
type DecodeModel struct {
	M, N float64
}

// TBT returns the modeled time between tokens at a context length.
func (d DecodeModel) TBT(ctx int) float64 { return d.M*float64(ctx) + d.N }

// Predict returns the modeled decode latency for O output tokens starting
// from input length I.
func (d DecodeModel) Predict(i, o int) float64 {
	if o <= 0 {
		return 0
	}
	oi, of := float64(i), float64(o)
	return d.N*of + d.M*(oi*of+of*(of-1)/2)
}

// LatencyModel is Eqn 3: total = prefill + decode.
type LatencyModel struct {
	Model   model.ID
	Prefill PrefillModel
	Decode  DecodeModel
}

// Total returns the modeled end-to-end latency.
func (l LatencyModel) Total(i, o int) float64 {
	return l.Prefill.Predict(i) + l.Decode.Predict(i, o)
}

// MaxTokensWithin inverts the model: the largest output length O whose
// total latency stays within the budget for input length I. This is the
// hardware-aware "latency budget → maximum decodable tokens" mapping the
// introduction calls for. Returns 0 when even prefill misses the budget.
func (l LatencyModel) MaxTokensWithin(i int, budget float64) int {
	remaining := budget - l.Prefill.Predict(i)
	if remaining <= 0 {
		return 0
	}
	// Solve (m/2)·O² + (n + m·I − m/2)·O − remaining <= 0 for O.
	a := l.Decode.M / 2
	b := l.Decode.N + l.Decode.M*float64(i) - l.Decode.M/2
	if math.Abs(a) < 1e-18 {
		if b <= 0 {
			return 0
		}
		return int(remaining / b)
	}
	disc := b*b + 4*a*remaining
	if disc < 0 {
		return 0
	}
	o := (-b + math.Sqrt(disc)) / (2 * a)
	if o < 0 {
		return 0
	}
	return int(o)
}

// FitReport carries goodness-of-fit for a fitted model.
type FitReport struct {
	Samples int
	MAPE    float64 // fraction
	R2      float64
}

// FitPrefillModel sweeps prefill latency on the cost model at multiples
// of 64 tokens (the paper's protocol: fit only at 64-multiples to step
// around tensor-core padding) and fits Eqn 1.
func FitPrefillModel(m *gpusim.CostModel, maxLen int) (PrefillModel, FitReport, error) {
	pm := PrefillModel{Tile: m.TileM()}
	if maxLen < 8*64 {
		maxLen = 8 * 64
	}
	var xs, ys []float64
	for i := 64; i <= maxLen; i += 64 {
		xs = append(xs, pm.Pad(i))
		ys = append(ys, m.Prefill(i).Time)
	}
	poly, err := fit.PolyFit(xs, ys, 2)
	if err != nil {
		return PrefillModel{}, FitReport{}, fmt.Errorf("core: prefill fit: %w", err)
	}
	pm.A, pm.B, pm.C = poly.Coeffs[2], poly.Coeffs[1], poly.Coeffs[0]
	pred := make([]float64, len(xs))
	for i, x := range xs {
		pred[i] = pm.A*x*x + pm.B*x + pm.C
	}
	rep := FitReport{Samples: len(xs), MAPE: stats.MAPE(pred, ys), R2: stats.RSquared(pred, ys)}
	return pm, rep, nil
}

// FitDecodeModel samples decode latency over a grid of (I, O) pairs (the
// paper fits on 100 MMLU-Redux points with varied lengths) and solves
// Eqn 2's coefficients by least squares over the basis
// {O, I·O + O(O−1)/2} with no intercept.
func FitDecodeModel(m *gpusim.CostModel) (DecodeModel, FitReport, error) {
	var design [][]float64
	var ys []float64
	for _, i := range []int{1, 128, 512, 1024, 2048, 4096} {
		for _, o := range []int{16, 64, 128, 256, 512, 1024, 2048, 4096} {
			res := m.DecodeRun(i, o, 1)
			of := float64(o)
			design = append(design, []float64{of, float64(i)*of + of*(of-1)/2})
			ys = append(ys, res.Time)
		}
	}
	coef, err := fit.LeastSquares(design, ys)
	if err != nil {
		return DecodeModel{}, FitReport{}, fmt.Errorf("core: decode fit: %w", err)
	}
	dm := DecodeModel{N: coef[0], M: coef[1]}
	pred := make([]float64, len(ys))
	for i, row := range design {
		pred[i] = dm.N*row[0] + dm.M*row[1]
	}
	rep := FitReport{Samples: len(ys), MAPE: stats.MAPE(pred, ys), R2: stats.RSquared(pred, ys)}
	return dm, rep, nil
}

// FitLatencyModel fits both phases of a model's cost model.
func FitLatencyModel(m *gpusim.CostModel, id model.ID) (LatencyModel, error) {
	pm, _, err := FitPrefillModel(m, 2048)
	if err != nil {
		return LatencyModel{}, err
	}
	dm, _, err := FitDecodeModel(m)
	if err != nil {
		return LatencyModel{}, err
	}
	return LatencyModel{Model: id, Prefill: pm, Decode: dm}, nil
}

// ValidateLatencyModel replays a held-out workload (I, O pairs) through
// both the cost model and the fitted model, returning prefill/decode/total
// MAPE — the Table VI protocol.
func ValidateLatencyModel(m *gpusim.CostModel, lm LatencyModel, workload [][2]int) (prefillMAPE, decodeMAPE, totalMAPE float64) {
	var pPred, pAct, dPred, dAct, tPred, tAct []float64
	for _, w := range workload {
		i, o := w[0], w[1]
		pres := m.Prefill(i)
		dres := m.DecodeRun(i, o, 1)
		pPred = append(pPred, lm.Prefill.Predict(i))
		pAct = append(pAct, pres.Time)
		dPred = append(dPred, lm.Decode.Predict(i, o))
		dAct = append(dAct, dres.Time)
		tPred = append(tPred, lm.Total(i, o))
		tAct = append(tAct, pres.Time+dres.Time)
	}
	return stats.MAPE(pPred, pAct), stats.MAPE(dPred, dAct), stats.MAPE(tPred, tAct)
}

// PaperPrefillModels returns Table IV's published coefficients for
// side-by-side comparison in EXPERIMENTS.md.
func PaperPrefillModels() map[model.ID]PrefillModel {
	return map[model.ID]PrefillModel{
		model.DSR1Qwen1_5B: {A: 1.56e-7, B: 2.31e-6, C: 0.046, Tile: 128},
		model.DSR1Llama8B:  {A: 6.65e-7, B: 2.90e-4, C: 0.104, Tile: 128},
		model.DSR1Qwen14B:  {A: 1.23e-6, B: 5.3e-4, C: 0.189, Tile: 128},
	}
}

// PaperDecodeModels returns Table V's published coefficients. Note the
// paper's prose TBT values (0.024 / 0.092–0.10 / 0.186–0.187 s) are
// authoritative over the table's 8B n=0.010 (a typo; see DESIGN.md §7).
func PaperDecodeModels() map[model.ID]DecodeModel {
	return map[model.ID]DecodeModel{
		model.DSR1Qwen1_5B: {M: -1.50e-7, N: 0.024},
		model.DSR1Llama8B:  {M: 6.92e-7, N: 0.096},
		model.DSR1Qwen14B:  {M: 1.13e-6, N: 0.187},
	}
}
