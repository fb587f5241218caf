package gpusim

import (
	"math"
	"testing"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

func specCfg(gamma int, alpha float64) SpeculativeConfig {
	draft := model.MustLookup(model.DSR1Qwen1_5B)
	return SpeculativeConfig{Draft: draft.Arch, DraftDType: draft.DType, Gamma: gamma, AcceptRate: alpha}
}

func TestExpectedTokensPerIteration(t *testing.T) {
	cases := []struct {
		gamma int
		alpha float64
		want  float64
	}{
		{0, 0.9, 1},      // no drafting: one token per pass
		{4, 0, 1},        // nothing accepted
		{4, 1, 5},        // everything accepted: γ+1
		{4, 0.7, 2.7731}, // (1-0.7^5)/0.3
		{2, 0.5, 1.75},   // (1-0.5^3)/0.5
	}
	for _, c := range cases {
		got := specCfg(c.gamma, c.alpha).ExpectedTokensPerIteration()
		if math.Abs(got-c.want) > 1e-3 {
			t.Errorf("γ=%d α=%v: yield = %v, want %v", c.gamma, c.alpha, got, c.want)
		}
	}
}

func TestSpeculativeSpeedsUpLargeTargets(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Qwen14B, model.FP16)
	_, speedup := m.DecodeRunSpeculative(specCfg(4, 0.8), 512, 1024)
	if speedup < 1.3 {
		t.Errorf("14B with a good draft should speed up >1.3x, got %.2f", speedup)
	}
	if speedup > 4 {
		t.Errorf("speedup %.2f implausibly high", speedup)
	}
}

func TestSpeculativeLowAcceptanceHurts(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Llama8B, model.FP16)
	_, speedup := m.DecodeRunSpeculative(specCfg(8, 0.3), 512, 1024)
	if speedup >= 1 {
		t.Errorf("long drafts at 30%% acceptance should lose, got %.2fx", speedup)
	}
}

func TestSpeculativeZeroGammaIsPlain(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Llama8B, model.FP16)
	res, speedup := m.DecodeRunSpeculative(specCfg(0, 0.9), 512, 256)
	plain := m.DecodeRun(512, 256, 1)
	if speedup != 1 || res.Time != plain.Time {
		t.Error("γ=0 must degenerate to plain decoding")
	}
}

func TestSpeculativeTokenConservation(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Qwen14B, model.FP16)
	res, _ := m.DecodeRunSpeculative(specCfg(4, 0.7), 512, 777)
	if res.Tokens != 777 {
		t.Errorf("committed tokens = %d, want 777", res.Tokens)
	}
	if res.Time <= 0 || res.Bytes <= 0 || res.FLOPs <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

// Speedup grows with acceptance rate at fixed gamma.
func TestSpeculativeMonotoneInAcceptance(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Qwen14B, model.FP16)
	prev := 0.0
	for _, alpha := range []float64{0.3, 0.5, 0.7, 0.9} {
		_, speedup := m.DecodeRunSpeculative(specCfg(4, alpha), 512, 1024)
		if speedup < prev {
			t.Errorf("speedup must grow with α: %.2f after %.2f", speedup, prev)
		}
		prev = speedup
	}
}

func TestHostOverlapReducesTBT(t *testing.T) {
	overlapped := New(hw.JetsonAGXOrin64GB())
	overlapped.HostOverlap = 1.0
	t0 := resolve(orinSim(), model.DSR1Llama8B, model.FP16).TBT(512)
	t1 := resolve(overlapped, model.DSR1Llama8B, model.FP16).TBT(512)
	if t1 >= t0 {
		t.Errorf("full overlap must reduce TBT: %.4f -> %.4f", t0, t1)
	}
	// The hidden portion is the launch overhead: ~8-10% for the 8B.
	reduction := (t0 - t1) / t0
	if reduction < 0.03 || reduction > 0.20 {
		t.Errorf("overlap reduction = %.1f%%, expected single-digit to low-teens", reduction*100)
	}
}

func TestHostOverlapClamped(t *testing.T) {
	s := New(hw.JetsonAGXOrin64GB())
	tbt := func() float64 { return resolve(s, model.DSR1Qwen1_5B, model.FP16).TBT(512) }
	s.HostOverlap = 5 // clamps to 1
	over := tbt()
	s.HostOverlap = 1
	exact := tbt()
	if over != exact {
		t.Error("HostOverlap must clamp to [0,1]")
	}
	s.HostOverlap = -3 // clamps to 0
	under := tbt()
	s.HostOverlap = 0
	if under != tbt() {
		t.Error("negative HostOverlap must clamp to 0")
	}
}
