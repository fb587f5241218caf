package gpusim

import (
	"math"

	"edgereasoning/internal/model"
)

// SpeculativeConfig parameterizes draft-and-verify speculative decoding,
// one of the §VI future-work optimizations: a small draft model proposes
// Gamma tokens per iteration and the target model verifies them in a
// single (token-parallel) forward pass. AcceptRate is the per-token
// probability a draft token survives verification.
type SpeculativeConfig struct {
	Draft      model.Arch
	DraftDType model.DType
	Gamma      int     // draft tokens proposed per iteration
	AcceptRate float64 // per-token acceptance probability α
}

// ExpectedTokensPerIteration returns the expected number of target tokens
// committed per draft-verify iteration: (1 − α^(γ+1)) / (1 − α), the
// standard speculative-sampling yield (Leviathan et al.). The verify pass
// always contributes at least one token.
func (c SpeculativeConfig) ExpectedTokensPerIteration() float64 {
	g := float64(c.Gamma)
	a := c.AcceptRate
	if c.Gamma <= 0 {
		return 1
	}
	if a <= 0 {
		return 1
	}
	if a >= 1 {
		return g + 1
	}
	return (1 - math.Pow(a, g+1)) / (1 - a)
}

// DecodeRunSpeculative times generating n tokens with the model's
// architecture as the target, assisted by the draft model. Each iteration
// costs Gamma sequential draft steps plus one target verification pass
// over Gamma+1 positions (tile-padded, so its cost is one target decode
// step on the memory side — the weights stream once either way). Returns
// the phase result and the realized speedup over plain decoding.
func (m *CostModel) DecodeRunSpeculative(cfg SpeculativeConfig, startCtx, n int) (Result, float64) {
	plain := m.DecodeRun(startCtx, n, 1)
	if n <= 0 || cfg.Gamma <= 0 {
		return plain, 1
	}
	yield := cfg.ExpectedTokensPerIteration()
	iters := int(math.Ceil(float64(n) / yield))
	// Context grows by the committed tokens; both models walk it.
	midCtx := startCtx + n/2

	// Draft cost: Gamma sequential small-model steps per iteration.
	draft := m.sim.decodeCost(cfg.Draft, cfg.DraftDType)
	draftStep := draft.step(midCtx)
	// Verify cost: one target pass over Gamma+1 positions. Memory-bound
	// decode reads the weights once regardless of the (tiny) token count,
	// so a verify step costs one plain target step plus the extra KV/
	// activation traffic of the additional positions.
	verifyStep := m.decode.step(midCtx)
	extraKV := float64(cfg.Gamma) * float64(m.arch.KVBytesPerToken()) / m.dev.EffectiveBandwidth()
	iterTime := float64(cfg.Gamma)*draftStep.Time + verifyStep.Time + extraKV

	res := Result{
		Phase:   PhaseDecode,
		Time:    float64(iters) * iterTime,
		FLOPs:   plain.FLOPs + float64(iters)*float64(cfg.Gamma)*draftStep.FLOPs,
		Bytes:   float64(iters) * (float64(cfg.Gamma)*draftStep.Bytes + verifyStep.Bytes),
		Kernels: iters * (cfg.Gamma*draftStep.Kernels + verifyStep.Kernels),
		Tokens:  n,
	}
	if res.Time > 0 {
		res.ComputeUtil = res.FLOPs / res.Time / m.dev.PeakFP16FLOPS
		res.BWUtil = res.Bytes / res.Time / m.dev.MemBandwidth
	}
	res.Occupancy = plain.Occupancy
	speedup := plain.Time / res.Time
	return res, speedup
}
