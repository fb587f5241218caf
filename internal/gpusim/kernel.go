// Package gpusim is the roofline execution-time simulator for the Jetson
// Orin GPU (and the Orin CPU complex). It walks the kernel sequence of a
// transformer forward pass, times each kernel as max(compute, memory) plus
// launch overhead, applies tensor-core tile padding (the source of the
// paper's 128-token stepped prefill latency, Fig 2), and reports the
// utilization signals the power model consumes.
//
// A Sim holds only the device and its noise and overlap settings. Every
// caller prices through the CostModel that Sim.Resolve returns for one
// architecture and weight format: resolve once per (device, model,
// dtype), then price each prefill, decode run, chunk or TBT on it.
package gpusim

import (
	"fmt"

	"edgereasoning/internal/hw"
)

// KernelKind classifies a simulated kernel.
type KernelKind int

const (
	// GEMM is a dense matmul (projections, FFN, LM head).
	GEMM KernelKind = iota
	// Attention is a fused attention kernel (QKᵀ softmax AV).
	Attention
	// Elementwise covers norms, activations, rotary embedding.
	Elementwise
	// Sampling is the per-sequence logits→token step.
	Sampling
)

// String names the kind.
func (k KernelKind) String() string {
	switch k {
	case GEMM:
		return "gemm"
	case Attention:
		return "attention"
	case Elementwise:
		return "elementwise"
	case Sampling:
		return "sampling"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kernel is one device-side launch with its arithmetic and memory demand.
type Kernel struct {
	Name  string
	Kind  KernelKind
	FLOPs float64
	Bytes float64 // DRAM traffic (read + write)
	// M, N, K describe GEMM geometry (M is the token/batch dimension that
	// tensor cores pad; N, K size the efficiency model). Non-GEMM kernels
	// leave them zero.
	M, N, K int
	// Repeat folds identical per-layer launches into one descriptor.
	Repeat int
}

// reps returns the launch count (Repeat defaulting to 1).
func (k Kernel) reps() int {
	if k.Repeat <= 0 {
		return 1
	}
	return k.Repeat
}

// TotalFLOPs returns FLOPs across all repeats.
func (k Kernel) TotalFLOPs() float64 { return k.FLOPs * float64(k.reps()) }

// TotalBytes returns DRAM traffic across all repeats.
func (k Kernel) TotalBytes() float64 { return k.Bytes * float64(k.reps()) }

// mfu returns the fraction of the device's effective matmul peak this
// kernel shape achieves. Large, well-tiled GEMMs approach 1; small M
// (short prompts) and narrow N/K (small models) lose efficiency, which is
// what makes short-prompt prefill memory/overhead-bound in Fig 2.
func mfu(d *hw.Device, m, n, k int) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return 1
	}
	satM := float64(m) / (float64(m) + 96)
	satN := float64(n) / (float64(n) + 256)
	satK := float64(k) / (float64(k) + 256)
	return satM * satN * satK
}

// occupancy estimates the fraction of SMs a kernel keeps busy from its
// thread-block count (tiles of TileM×TileM over the output).
func occupancy(d *hw.Device, m, n int) float64 {
	if m <= 0 || n <= 0 {
		return 1
	}
	tile := d.TileM
	if tile < 1 {
		tile = 1
	}
	blocks := ((m + tile - 1) / tile) * ((n + tile - 1) / tile)
	occ := float64(blocks) / float64(d.SMCount)
	if occ > 1 {
		return 1
	}
	return occ
}
