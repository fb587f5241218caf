// Package quant analyzes W4A16 (LLM-Compressor AWQ) quantization on the
// simulated platform (§V-F): the sweep aggregates behind Tables XVIII and
// XIX, and the accuracy/latency deltas of Fig 14. The mechanical effects
// (4-bit weight streaming, INT8 compute fallback) live in model.DType and
// gpusim; the behavioural effects (small accuracy loss, shorter outputs)
// live in the llm calibration cells. This package composes both into the
// paper's comparison artifacts.
package quant

import (
	"fmt"

	"edgereasoning/internal/data"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
)

// SweepStats aggregates one phase across a sequence-length sweep, the way
// Tables XVIII/XIX report it.
type SweepStats struct {
	MeanTime   float64 // seconds per phase invocation, averaged over sweep
	TokPerSec  float64 // throughput over the whole sweep
	MeanPower  float64 // watts, time-weighted
	MeanEnergy float64 // joules per token
}

// PrefillSweep averages prefill behaviour over input lengths
// [128, 4096] (Table XVIII's protocol).
func PrefillSweep(m *gpusim.CostModel, meter *power.Meter) SweepStats {
	lengths := []int{128, 256, 512, 1024, 2048, 4096}
	return aggregate(meter, func(yield func(gpusim.Result)) {
		for _, n := range lengths {
			yield(m.Prefill(n))
		}
	})
}

// DecodeSweep averages decode behaviour at 512-token input over output
// lengths [128, 2048] (Table XIX's protocol).
func DecodeSweep(m *gpusim.CostModel, meter *power.Meter) SweepStats {
	lengths := []int{128, 256, 512, 1024, 2048}
	return aggregate(meter, func(yield func(gpusim.Result)) {
		for _, n := range lengths {
			yield(m.DecodeRun(512, n, 1))
		}
	})
}

func aggregate(meter *power.Meter, sweep func(func(gpusim.Result))) SweepStats {
	var n int
	var time, tokens, energy float64
	sweep(func(r gpusim.Result) {
		n++
		time += r.Time
		tokens += float64(r.Tokens)
		energy += meter.Energy(r)
	})
	if n == 0 || time <= 0 {
		return SweepStats{}
	}
	return SweepStats{
		MeanTime:   time / float64(n),
		TokPerSec:  tokens / time,
		MeanPower:  energy / time,
		MeanEnergy: energy / tokens,
	}
}

// Comparison is one model's base-vs-quantized report (Fig 14).
type Comparison struct {
	Model model.ID

	BasePrefill, QuantPrefill SweepStats
	BaseDecode, QuantDecode   SweepStats

	// Accuracy and mean output tokens on a benchmark (from calibration).
	BaseAccuracy, QuantAccuracy float64
	BaseTokens, QuantTokens     float64
	HaveAccuracy                bool
}

// PrefillSpeedup returns base/quant mean prefill time.
func (c Comparison) PrefillSpeedup() float64 {
	if c.QuantPrefill.MeanTime <= 0 {
		return 0
	}
	return c.BasePrefill.MeanTime / c.QuantPrefill.MeanTime
}

// DecodeSpeedup returns base/quant mean decode time.
func (c Comparison) DecodeSpeedup() float64 {
	if c.QuantDecode.MeanTime <= 0 {
		return 0
	}
	return c.BaseDecode.MeanTime / c.QuantDecode.MeanTime
}

// AccuracyDropPct returns the relative accuracy loss in percent
// (positive = quantized is worse), as Fig 14 reports.
func (c Comparison) AccuracyDropPct() float64 {
	if !c.HaveAccuracy || c.BaseAccuracy == 0 {
		return 0
	}
	return (c.BaseAccuracy - c.QuantAccuracy) / c.BaseAccuracy * 100
}

// Compare builds the full base-vs-W4 comparison for a spec from the cost
// models of the spec and of its quantized variant, pulling accuracy from
// the benchmark's calibration cells when available.
func Compare(baseCost, quantCost *gpusim.CostModel, meter *power.Meter, spec model.Spec, bench data.Benchmark) (Comparison, error) {
	if spec.IsQuantized() {
		return Comparison{}, fmt.Errorf("quant: pass the base spec, not %s", spec.ID)
	}
	q := spec.Quantized()
	c := Comparison{
		Model:        spec.ID,
		BasePrefill:  PrefillSweep(baseCost, meter),
		QuantPrefill: PrefillSweep(quantCost, meter),
		BaseDecode:   DecodeSweep(baseCost, meter),
		QuantDecode:  DecodeSweep(quantCost, meter),
	}
	if base, ok := llm.Calibrated(spec.ID, bench, "base"); ok {
		if quant, ok2 := llm.Calibrated(q.ID, bench, "base"); ok2 {
			c.BaseAccuracy, c.QuantAccuracy = base.Accuracy, quant.Accuracy
			c.BaseTokens, c.QuantTokens = base.MeanTokens, quant.MeanTokens
			c.HaveAccuracy = true
		}
	}
	return c, nil
}
