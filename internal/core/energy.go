package core

import (
	"fmt"

	"edgereasoning/internal/fit"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/power"
	"edgereasoning/internal/stats"
)

// PowerModel is the Eqn 4/6 form: constant power below a sequence-length
// breakpoint, logarithmic growth above it.
type PowerModel struct {
	Curve fit.Piecewise
}

// Predict returns modeled watts at a sequence length.
func (p PowerModel) Predict(n int) float64 { return p.Curve.Eval(float64(n)) }

// EnergyModel is the Eqn 5 form for energy per token: exponential decay at
// short lengths (fixed overheads amortize), logarithmic growth at long
// lengths (attention-bound regime). For models whose measured range never
// reaches the log regime the high branch simply extends the fit.
type EnergyModel struct {
	Curve fit.Piecewise
}

// PredictPerToken returns modeled joules per token at a sequence length.
func (e EnergyModel) PredictPerToken(n int) float64 { return e.Curve.Eval(float64(n)) }

// FitPrefillPower sweeps prefill power over input lengths and fits the
// piecewise constant/log form of Eqn 4.
func FitPrefillPower(m *gpusim.CostModel, meter *power.Meter) (PowerModel, error) {
	var xs, ys []float64
	for _, i := range sweepLengths(128, 4096) {
		res := m.Prefill(i)
		xs = append(xs, float64(i))
		ys = append(ys, meter.ObservedPower(res))
	}
	pw, err := fit.PiecewiseConstLogFit(xs, ys)
	if err != nil {
		return PowerModel{}, fmt.Errorf("core: prefill power fit: %w", err)
	}
	return PowerModel{Curve: pw}, nil
}

// FitDecodePower sweeps decode power over output lengths at a fixed
// 512-token input (the paper's protocol, Fig 5a) and fits Eqn 6.
func FitDecodePower(m *gpusim.CostModel, meter *power.Meter) (PowerModel, error) {
	var xs, ys []float64
	for _, o := range sweepLengths(16, 2048) {
		res := m.DecodeRun(512, o, 1)
		xs = append(xs, float64(o))
		ys = append(ys, meter.Power(res))
	}
	pw, err := fit.PiecewiseConstLogFit(xs, ys)
	if err != nil {
		return PowerModel{}, fmt.Errorf("core: decode power fit: %w", err)
	}
	return PowerModel{Curve: pw}, nil
}

// FitPrefillEnergy fits the per-token prefill energy model of Eqn 5
// (exponential decay then log growth, Table XX).
func FitPrefillEnergy(m *gpusim.CostModel, meter *power.Meter) (EnergyModel, error) {
	var xs, ys []float64
	for _, i := range sweepLengths(16, 4096) {
		res := m.Prefill(i)
		xs = append(xs, float64(i))
		ys = append(ys, meter.EnergyPerToken(res))
	}
	pw, err := fit.PiecewiseExpLogFit(xs, ys)
	if err != nil {
		return EnergyModel{}, fmt.Errorf("core: prefill energy fit: %w", err)
	}
	return EnergyModel{Curve: pw}, nil
}

// FitDecodeEnergy fits decode energy per token over output length at
// 512-token input (Table XXI's log form).
func FitDecodeEnergy(m *gpusim.CostModel, meter *power.Meter) (EnergyModel, error) {
	var xs, ys []float64
	for _, o := range sweepLengths(64, 2048) {
		res := m.DecodeRun(512, o, 1)
		xs = append(xs, float64(o))
		ys = append(ys, meter.EnergyPerToken(res))
	}
	ll, err := fit.LogLinearFit(xs, ys)
	if err != nil {
		return EnergyModel{}, fmt.Errorf("core: decode energy fit: %w", err)
	}
	return EnergyModel{Curve: fit.Piecewise{Breakpoint: 0, Low: ll, High: ll}}, nil
}

// ValidateEnergyModel replays held-out (I, O) workloads and reports the
// MAPE of total-energy prediction (Table VIII protocol). The model's total
// energy is per-token decode energy × O plus per-token prefill energy × I.
func ValidateEnergyModel(m *gpusim.CostModel, meter *power.Meter, prefillE, decodeE EnergyModel, workload [][2]int) float64 {
	var pred, act []float64
	for _, w := range workload {
		i, o := w[0], w[1]
		pres := m.Prefill(i)
		dres := m.DecodeRun(i, o, 1)
		actual := meter.Energy(pres) + meter.Energy(dres)
		modeled := prefillE.PredictPerToken(i)*float64(i) + decodeE.PredictPerToken(o)*float64(o)
		pred = append(pred, modeled)
		act = append(act, actual)
	}
	return stats.MAPE(pred, act)
}

// sweepLengths produces a geometric-ish sweep from lo to hi.
func sweepLengths(lo, hi int) []int {
	var out []int
	step := lo
	for v := lo; v <= hi; v += step {
		out = append(out, v)
		if v >= 8*step {
			step *= 2
		}
	}
	return out
}
