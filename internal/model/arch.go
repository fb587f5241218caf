// Package model describes the transformer architectures the paper deploys
// and derives the quantities the simulator needs from first principles:
// parameter counts, weight bytes, KV-cache bytes, and per-phase FLOP and
// memory-traffic costs. Architecture geometry (layer counts, hidden sizes,
// GQA head counts, vocabularies) matches the public model cards of the
// DeepSeek-R1 distills and the non-reasoning baselines, so derived numbers
// like "16.06 GB of FP16 weights for DSR1-Llama-8B" fall out of the
// geometry rather than being hard-coded.
package model

import "fmt"

// DType is a weight/activation storage format.
type DType int

const (
	// FP16 stores weights in 16-bit floats (the paper's base precision).
	FP16 DType = iota
	// W4A16 stores weights in 4 bits with FP16 activations (LLM-Compressor
	// AWQ, §V-F). Group-wise scales add ~6% overhead on top of the packed
	// weights; on Orin's Ampere GPU compute falls back to INT8/FP16 since
	// the architecture has no INT4 tensor-core path.
	W4A16
	// FP32 stores weights in 32-bit floats (used by the AIME cost study).
	FP32
)

// String returns the conventional name of the format.
func (d DType) String() string {
	switch d {
	case FP16:
		return "fp16"
	case W4A16:
		return "w4a16"
	case FP32:
		return "fp32"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// BytesPerParam returns the storage cost of one weight in this format,
// including quantization-scale overhead for W4A16.
func (d DType) BytesPerParam() float64 {
	switch d {
	case FP16:
		return 2
	case W4A16:
		return 0.53125 // 4 bits packed + FP16 scale per 32-weight group
	case FP32:
		return 4
	default:
		return 2
	}
}

// Arch is the geometric description of a decoder-only transformer.
type Arch struct {
	Name     string
	Layers   int
	Hidden   int // model (embedding) dimension
	Heads    int // query heads
	KVHeads  int // key/value heads (GQA)
	HeadDim  int // per-head dimension
	Inter    int // FFN intermediate dimension (gated MLP: gate+up+down)
	Vocab    int
	TiedEmbd bool // lm_head shares the embedding matrix
	AttnBias bool // Qwen-style QKV biases
}

// Validate reports whether the geometry is self-consistent.
func (a Arch) Validate() error {
	switch {
	case a.Name == "":
		return fmt.Errorf("model: arch missing name")
	case a.Layers <= 0 || a.Hidden <= 0 || a.Heads <= 0 || a.KVHeads <= 0:
		return fmt.Errorf("model: %s: non-positive dimension", a.Name)
	case a.HeadDim <= 0 || a.Inter <= 0 || a.Vocab <= 0:
		return fmt.Errorf("model: %s: non-positive dimension", a.Name)
	case a.Heads%a.KVHeads != 0:
		return fmt.Errorf("model: %s: Heads (%d) not divisible by KVHeads (%d)", a.Name, a.Heads, a.KVHeads)
	}
	return nil
}

// AttnParams returns the attention parameter count of one layer:
// Q, O projections at full width plus GQA-narrowed K, V projections.
func (a Arch) AttnParams() int64 {
	qWidth := int64(a.Heads) * int64(a.HeadDim)
	kvWidth := int64(a.KVHeads) * int64(a.HeadDim)
	h := int64(a.Hidden)
	p := h*qWidth + // Q
		2*h*kvWidth + // K, V
		qWidth*h // O
	if a.AttnBias {
		p += qWidth + 2*kvWidth
	}
	return p
}

// MLPParams returns the gated-MLP parameter count of one layer
// (gate, up, down projections).
func (a Arch) MLPParams() int64 {
	return 3 * int64(a.Hidden) * int64(a.Inter)
}

// EmbeddingParams returns the token embedding (and untied LM head)
// parameter count.
func (a Arch) EmbeddingParams() int64 {
	e := int64(a.Vocab) * int64(a.Hidden)
	if !a.TiedEmbd {
		e *= 2
	}
	return e
}

// ParamCount returns the total parameter count, including the small
// RMSNorm vectors (2 per layer plus the final norm).
func (a Arch) ParamCount() int64 {
	perLayer := a.AttnParams() + a.MLPParams() + 2*int64(a.Hidden)
	return int64(a.Layers)*perLayer + a.EmbeddingParams() + int64(a.Hidden)
}

// WeightBytes returns the resident weight footprint in the given format.
func (a Arch) WeightBytes(dt DType) int64 {
	return int64(float64(a.ParamCount()) * dt.BytesPerParam())
}

// KVBytesPerToken returns the KV-cache growth per generated or prefilled
// token. KV entries stay in FP16 for all formats the paper evaluates.
func (a Arch) KVBytesPerToken() int64 {
	return 2 /*K+V*/ * int64(a.Layers) * int64(a.KVHeads) * int64(a.HeadDim) * 2 /*fp16*/
}

// PrefillFLOPs returns the floating-point work to prefill n prompt tokens:
// 2·params per token for the dense projections plus the quadratic
// attention term (QKᵀ and attention·V, causal ≈ half the full square,
// but kernels compute the full rectangle on padded tiles — we charge the
// full square as CUTLASS does).
func (a Arch) PrefillFLOPs(n int) float64 {
	if n <= 0 {
		return 0
	}
	nn := float64(n)
	dense := 2 * float64(a.ParamCount()-a.EmbeddingParams()/denseEmbdDivisor(a)) * nn
	attn := 4 * float64(a.Layers) * nn * nn * float64(a.Heads) * float64(a.HeadDim)
	return dense + attn
}

// denseEmbdDivisor discounts the embedding lookup (gather, not matmul) but
// keeps the LM head GEMM. Tied models run the head once, untied models
// hold both matrices but still multiply only one.
func denseEmbdDivisor(a Arch) int64 {
	if a.TiedEmbd {
		return 1 // single matrix: charged once as the LM head
	}
	return 2 // of embed+head, only the head multiplies
}

// DecodeFLOPs returns the floating-point work to generate one token at the
// given context length: 2·params dense work plus linear attention reads.
func (a Arch) DecodeFLOPs(context int) float64 {
	dense := 2 * float64(a.ParamCount()-a.EmbeddingParams()/denseEmbdDivisor(a))
	attn := 4 * float64(a.Layers) * float64(context) * float64(a.KVHeads) * float64(a.HeadDim)
	return dense + attn
}

// DecodeReadBytes returns the bytes a decode step must stream: the full
// weight set (batch-amortized by the caller) plus this sequence's KV cache.
func (a Arch) DecodeReadBytes(dt DType, context int) int64 {
	return a.WeightBytes(dt) + int64(context)*a.KVBytesPerToken()
}
