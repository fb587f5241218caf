package core

import (
	"testing"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
)

func TestFitDecodePowerShape(t *testing.T) {
	meter := power.NewMeter(hw.JetsonAGXOrin64GB())
	for _, spec := range model.DSR1Family() {
		pm, err := FitDecodePower(orinCost(spec.ID), meter)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		// Log growth: power at 2048 must exceed power at 128.
		p128, p2048 := pm.Predict(128), pm.Predict(2048)
		if p2048 <= p128 {
			t.Errorf("%s: decode power model not increasing: %.1f @128 vs %.1f @2048", spec.ID, p128, p2048)
		}
		if p128 < 5 || p2048 > meter.Device.MaxPower {
			t.Errorf("%s: power range [%.1f, %.1f] implausible", spec.ID, p128, p2048)
		}
	}
}

func TestFitPrefillPowerOrdering(t *testing.T) {
	meter := power.NewMeter(hw.JetsonAGXOrin64GB())
	small, err := FitPrefillPower(orinCost(model.DSR1Qwen1_5B), meter)
	if err != nil {
		t.Fatal(err)
	}
	large, err := FitPrefillPower(orinCost(model.DSR1Qwen14B), meter)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 4a: at 4K input the large models draw far more than the 1.5B.
	if small.Predict(4096) >= large.Predict(4096) {
		t.Errorf("1.5B prefill power (%.1f) should undercut 14B (%.1f)",
			small.Predict(4096), large.Predict(4096))
	}
}

func TestFitPrefillEnergyDecayThenFlat(t *testing.T) {
	meter := power.NewMeter(hw.JetsonAGXOrin64GB())
	em, err := FitPrefillEnergy(orinCost(model.DSR1Llama8B), meter)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 4b: energy per token decays from short lengths to a minimum,
	// then stays within a modest band.
	e16 := em.PredictPerToken(16)
	e512 := em.PredictPerToken(512)
	if e16 <= e512 {
		t.Errorf("short-prompt energy/token (%.4f) must exceed amortized (%.4f)", e16, e512)
	}
	if e512 <= 0 {
		t.Errorf("energy per token must stay positive, got %v", e512)
	}
}

func TestFitDecodeEnergyPerTokenOrdering(t *testing.T) {
	meter := power.NewMeter(hw.JetsonAGXOrin64GB())
	small, err := FitDecodeEnergy(orinCost(model.DSR1Qwen1_5B), meter)
	if err != nil {
		t.Fatal(err)
	}
	large, err := FitDecodeEnergy(orinCost(model.DSR1Qwen14B), meter)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 5b: the 1.5B is ~7x more energy-efficient per decode token.
	ratio := large.PredictPerToken(1024) / small.PredictPerToken(1024)
	if ratio < 3 || ratio > 14 {
		t.Errorf("14B/1.5B energy-per-token ratio = %.1f, paper reports ~7x", ratio)
	}
}

// Table VIII: the energy model validates with single-digit MAPE.
func TestValidateEnergyModelMAPE(t *testing.T) {
	meter := power.NewMeter(hw.JetsonAGXOrin64GB())
	m := orinCost(model.DSR1Llama8B)
	pe, err := FitPrefillEnergy(m, meter)
	if err != nil {
		t.Fatal(err)
	}
	de, err := FitDecodeEnergy(m, meter)
	if err != nil {
		t.Fatal(err)
	}
	workload := [][2]int{{100, 300}, {250, 600}, {400, 1000}, {600, 1500}, {180, 120}}
	mape := ValidateEnergyModel(m, meter, pe, de, workload)
	if mape > 0.15 {
		t.Errorf("total energy MAPE = %.3f, paper reports ~6%%", mape)
	}
}

func TestSweepLengthsCoverage(t *testing.T) {
	xs := sweepLengths(16, 4096)
	if xs[0] != 16 {
		t.Errorf("sweep must start at lo, got %d", xs[0])
	}
	if xs[len(xs)-1] < 2048 {
		t.Errorf("sweep must reach near hi, last = %d", xs[len(xs)-1])
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatal("sweep must be strictly increasing")
		}
	}
}
