package quant

import (
	"testing"

	"edgereasoning/internal/data"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
)

// compare runs Compare on the Orin for a catalog spec, resolving the
// cost models of the spec and of its quantized variant.
func compare(spec model.Spec) (Comparison, error) {
	d := hw.JetsonAGXOrin64GB()
	sim, q := gpusim.New(d), spec.Quantized()
	return Compare(sim.Resolve(spec.Arch, spec.DType), sim.Resolve(q.Arch, q.DType), power.NewMeter(d), spec, data.MMLURedux)
}

// Tables XVIII/XIX: quantization speeds up both phases, more for larger
// models (Takeaway #11: decode gains of 2.0x / 2.9x / 3.1x).
func TestCompareSpeedups(t *testing.T) {
	var prevDecode float64
	for _, id := range []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B} {
		c, err := compare(model.MustLookup(id))
		if err != nil {
			t.Fatal(err)
		}
		if s := c.DecodeSpeedup(); s < 1.5 || s > 4.0 {
			t.Errorf("%s: decode speedup = %.2fx, paper reports 2.0-3.1x", id, s)
		}
		if s := c.PrefillSpeedup(); s < 1.2 || s > 5.0 {
			t.Errorf("%s: prefill speedup = %.2fx out of range", id, s)
		}
		if c.DecodeSpeedup() < prevDecode-0.3 {
			t.Errorf("%s: decode speedup should grow with model size", id)
		}
		prevDecode = c.DecodeSpeedup()
	}
}

// Fig 14: accuracy deltas are small — 1.04% (1.5B), 6.16% (8B), 0.62%
// (14B) relative loss.
func TestCompareAccuracyDeltas(t *testing.T) {
	cases := []struct {
		id   model.ID
		want float64 // percent relative loss
		tol  float64
	}{
		{model.DSR1Qwen1_5B, 1.04, 1.0},
		{model.DSR1Llama8B, 6.16, 1.0},
		{model.DSR1Qwen14B, 0.62, 0.5},
	}
	for _, cse := range cases {
		c, err := compare(model.MustLookup(cse.id))
		if err != nil {
			t.Fatal(err)
		}
		if !c.HaveAccuracy {
			t.Fatalf("%s: no accuracy calibration", cse.id)
		}
		got := c.AccuracyDropPct()
		if got < cse.want-cse.tol || got > cse.want+cse.tol {
			t.Errorf("%s: accuracy drop = %.2f%%, paper %.2f%%", cse.id, got, cse.want)
		}
	}
}

// Fig 14a: quantized models emit fewer tokens than FP16.
func TestQuantizedGeneratesFewerTokens(t *testing.T) {
	for _, id := range []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B} {
		c, err := compare(model.MustLookup(id))
		if err != nil {
			t.Fatal(err)
		}
		if c.QuantTokens >= c.BaseTokens {
			t.Errorf("%s: W4 tokens (%.0f) should undercut FP16 (%.0f)", id, c.QuantTokens, c.BaseTokens)
		}
	}
}

// Figs 12/13: quantized models use less energy per token.
func TestQuantizedEnergyPerTokenLower(t *testing.T) {
	c, err := compare(model.MustLookup(model.DSR1Qwen14B))
	if err != nil {
		t.Fatal(err)
	}
	if c.QuantDecode.MeanEnergy >= c.BaseDecode.MeanEnergy {
		t.Errorf("W4 decode energy/token (%.3f J) should undercut FP16 (%.3f J)",
			c.QuantDecode.MeanEnergy, c.BaseDecode.MeanEnergy)
	}
}

func TestCompareRejectsQuantizedInput(t *testing.T) {
	q := model.MustLookup(model.DSR1Llama8B).Quantized()
	if _, err := compare(q); err == nil {
		t.Error("Compare must reject already-quantized specs")
	}
}

func TestSweepStatsSanity(t *testing.T) {
	d := hw.JetsonAGXOrin64GB()
	a := model.MustLookup(model.DSR1Llama8B).Arch
	s := DecodeSweep(gpusim.New(d).Resolve(a, model.FP16), power.NewMeter(d))
	if s.MeanTime <= 0 || s.TokPerSec <= 0 || s.MeanPower <= 0 || s.MeanEnergy <= 0 {
		t.Errorf("sweep stats must be positive: %+v", s)
	}
	// Decode throughput at batch 1 is bounded by TBT: ~9-10 tok/s for 8B.
	if s.TokPerSec < 5 || s.TokPerSec > 15 {
		t.Errorf("8B decode throughput = %.1f tok/s, paper reports ~9", s.TokPerSec)
	}
}
