package gpusim

import (
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/stats"
)

// Phase tags a simulated result as prompt processing or token generation.
type Phase int

const (
	// PhasePrefill processes the prompt in parallel.
	PhasePrefill Phase = iota
	// PhaseDecode generates tokens autoregressively.
	PhaseDecode
)

// Result is the outcome of simulating a phase (or a slice of one): wall
// time plus the utilization signals the power model consumes.
type Result struct {
	Phase Phase
	Time  float64 // seconds
	FLOPs float64 // arithmetic performed (padded work included)
	Bytes float64 // DRAM traffic
	// ComputeUtil is achieved FLOP/s over the device peak; BWUtil is
	// achieved bytes/s over peak bandwidth; Occupancy is the time-weighted
	// fraction of SMs kept busy.
	ComputeUtil float64
	BWUtil      float64
	Occupancy   float64
	Kernels     int // launches charged
	Tokens      int // tokens processed (prompt tokens or generated tokens)
}

// merge accumulates r2 into r, time-weighting the utilization signals.
func (r *Result) merge(r2 Result) {
	total := r.Time + r2.Time
	if total > 0 {
		r.ComputeUtil = (r.ComputeUtil*r.Time + r2.ComputeUtil*r2.Time) / total
		r.BWUtil = (r.BWUtil*r.Time + r2.BWUtil*r2.Time) / total
		r.Occupancy = (r.Occupancy*r.Time + r2.Occupancy*r2.Time) / total
	}
	r.Time = total
	r.FLOPs += r2.FLOPs
	r.Bytes += r2.Bytes
	r.Kernels += r2.Kernels
	r.Tokens += r2.Tokens
}

// Sim times transformer phases on a device.
type Sim struct {
	Device *hw.Device
	// JitterFrac is the amplitude of the deterministic CUTLASS
	// kernel-variant noise (keyed by GEMM shape, reproducible run to run).
	// Zero disables it.
	JitterFrac float64
	// HostOverlap is the fraction of per-launch host overhead hidden by
	// offloading lightweight kernels (tokenization, norms, softmax,
	// embedding lookups) to the idle CPU complex and overlapping them with
	// GPU matmuls — the §VI heterogeneous-computing opportunity. 0 (the
	// default) models the paper's measured configuration; 1 hides all of
	// it.
	HostOverlap float64
}

// New returns a simulator for the device with the default kernel-variant
// jitter the paper observes on Orin.
func New(d *hw.Device) *Sim {
	return &Sim{Device: d, JitterFrac: 0.04}
}

// computePeak returns the effective matmul peak for a weight format:
// FP16 runs on tensor cores; W4A16 dequantizes into the INT8 path (Orin's
// Ampere GPU has no INT4 tensor cores, §V-F); FP32 runs on CUDA cores.
func (s *Sim) computePeak(dt model.DType) float64 {
	d := s.Device
	switch dt {
	case model.W4A16:
		return d.PeakINT8OPS * d.ComputeEff
	case model.FP32:
		return d.PeakFP32FLOPS * d.ComputeEff
	default:
		return d.PeakFP16FLOPS * d.ComputeEff
	}
}

// kernelTime rooflines one kernel: max(compute, memory) + launch overhead,
// with shape-keyed jitter to model CUTLASS variant selection.
func (s *Sim) kernelTime(k Kernel, dt model.DType) (time, occ float64) {
	d := s.Device
	peak := s.computePeak(dt) * mfu(d, k.M, k.N, k.K)
	tc := 0.0
	if k.FLOPs > 0 && peak > 0 {
		tc = k.FLOPs / peak
	}
	tm := k.Bytes / d.EffectiveBandwidth()
	t := tc
	if tm > t {
		t = tm
	}
	if s.JitterFrac > 0 && k.Kind == GEMM {
		key := uint64(k.M)<<40 ^ uint64(k.N)<<20 ^ uint64(k.K)
		t = stats.HashJitter(t, s.JitterFrac, key)
	}
	t += d.KernelOverhead
	return t, occupancy(d, k.M, k.N)
}

// numPrefillKernels is the length of prefill's kernel walk, and
// attentionSlot the position in it of attention, the walk's one kernel
// whose cost depends on the unpadded prompt length.
const (
	numPrefillKernels = 8
	attentionSlot     = 1
)

// prefillKernels builds the per-layer kernel walk for prefilling m tokens
// (already tile-padded). Weights bytes come from the architecture so the
// full walk streams exactly one weight read plus activation traffic. The
// walk is a fixed-size array so the per-prefill call stays heap-free on
// the engine's admission path.
func prefillKernels(a model.Arch, dt model.DType, mPad, mReal int) [numPrefillKernels]Kernel {
	bpp := dt.BytesPerParam()
	h := float64(a.Hidden)
	qW := a.Heads * a.HeadDim
	kvW := a.KVHeads * a.HeadDim
	mf := float64(mPad)
	act := 2.0 // fp16 activations

	kernels := [numPrefillKernels]Kernel{
		{
			Name: "qkv_proj", Kind: GEMM, Repeat: a.Layers,
			M: mPad, N: qW + 2*kvW, K: a.Hidden,
			FLOPs: 2 * mf * float64(qW+2*kvW) * h,
			Bytes: float64(qW+2*kvW)*h*bpp + mf*(h+float64(qW+2*kvW))*act,
		},
		attentionKernel(&a, mPad, mReal),
		{
			Name: "o_proj", Kind: GEMM, Repeat: a.Layers,
			M: mPad, N: a.Hidden, K: qW,
			FLOPs: 2 * mf * h * float64(qW),
			Bytes: h*float64(qW)*bpp + mf*(float64(qW)+h)*act,
		},
		{
			Name: "mlp_up_gate", Kind: GEMM, Repeat: a.Layers,
			M: mPad, N: 2 * a.Inter, K: a.Hidden,
			FLOPs: 2 * mf * float64(2*a.Inter) * h,
			Bytes: float64(2*a.Inter)*h*bpp + mf*(h+float64(2*a.Inter))*act,
		},
		{
			Name: "mlp_down", Kind: GEMM, Repeat: a.Layers,
			M: mPad, N: a.Hidden, K: a.Inter,
			FLOPs: 2 * mf * h * float64(a.Inter),
			Bytes: h*float64(a.Inter)*bpp + mf*(float64(a.Inter)+h)*act,
		},
		{
			Name: "norms_rotary", Kind: Elementwise, Repeat: a.Layers,
			Bytes: mf * h * act * 6,
		},
		// Logits for the last position only (vLLM computes the LM head on
		// the final token during prefill).
		{
			Name: "lm_head", Kind: GEMM,
			M: 1, N: a.Vocab, K: a.Hidden,
			FLOPs: 2 * float64(a.Vocab) * h,
			Bytes: float64(a.Vocab) * h * bpp,
		},
		{Name: "sampling", Kind: Sampling, Bytes: float64(a.Vocab) * 4},
	}
	return kernels
}

// attentionKernel is prefill's fused attention over mPad padded query
// positions. Its compute covers the padded square, but it reads the KV
// of only the mReal real tokens.
//
//edgereasoning:hotpath bench=BenchmarkCostModel
func attentionKernel(a *model.Arch, mPad, mReal int) Kernel {
	qW := a.Heads * a.HeadDim
	mf := float64(mPad)
	act := 2.0 // fp16 activations
	kvLayerBytes := float64(a.KVBytesPerToken()) / float64(a.Layers)
	return Kernel{
		Name: "attention", Kind: Attention, Repeat: a.Layers,
		FLOPs: 4 * mf * mf * float64(qW),
		Bytes: float64(mReal)*kvLayerBytes*2 + mf*float64(qW)*act*2,
	}
}

// prefillTile holds, for each kernel of a prefill walk at one padded
// size, the terms Prefill sums: elapsed time, occupancy-weighted time,
// FLOPs and bytes. The attention slot stays zero; kernels counts the
// launches of the whole walk.
type prefillTile struct {
	elapsed, occTime, flops, bytes [numPrefillKernels]float64
	kernels                        int
}

// tile prices the length-independent kernels of a prefill walk at mPad
// padded tokens.
func (s *Sim) tile(a model.Arch, dt model.DType, mPad int) prefillTile {
	var tl prefillTile
	kernels := prefillKernels(a, dt, mPad, 0)
	for i := range kernels {
		k := kernels[i]
		reps := k.reps()
		tl.kernels += reps
		if i == attentionSlot {
			continue
		}
		t, occ := s.kernelTime(k, dt)
		tl.elapsed[i] = t * float64(reps)
		tl.occTime[i] = occ * tl.elapsed[i]
		tl.flops[i] = k.TotalFLOPs()
		tl.bytes[i] = k.TotalBytes()
	}
	return tl
}

// prefillFrom prices attention for mReal real tokens, puts it in its
// slot of the tile's walk, and sums the walk in kernel order.
//
//edgereasoning:hotpath bench=BenchmarkCostModel
func (s *Sim) prefillFrom(tl *prefillTile, a *model.Arch, dt model.DType, mPad, mReal int) Result {
	elapsed, occTime, flops, bytes := tl.elapsed, tl.occTime, tl.flops, tl.bytes
	attn := attentionKernel(a, mPad, mReal)
	t, occ := s.kernelTime(attn, dt)
	elapsed[attentionSlot] = t * float64(attn.reps())
	occTime[attentionSlot] = occ * elapsed[attentionSlot]
	flops[attentionSlot] = attn.TotalFLOPs()
	bytes[attentionSlot] = attn.TotalBytes()

	res := Result{Phase: PhasePrefill, Tokens: mReal, Kernels: tl.kernels}
	var occSum float64
	for i := range elapsed {
		res.Time += elapsed[i]
		res.FLOPs += flops[i]
		res.Bytes += bytes[i]
		occSum += occTime[i]
	}
	d := s.Device
	if res.Time > 0 {
		res.ComputeUtil = res.FLOPs / res.Time / d.PeakFP16FLOPS
		res.BWUtil = res.Bytes / res.Time / d.MemBandwidth
		res.Occupancy = occSum / res.Time
	}
	return res
}

// decodeKernelsPerStep is the launch count charged per decode iteration
// per layer (QKV, attention, O, up/gate, down, norms, plus amortized
// head/sampling). This fixed cost is what separates the measured TBT from
// the pure bandwidth bound — on Orin it is the dominant non-memory term.
const decodeKernelsPerStep = 7

// runContext is DecodeRun's total context-token count:
// Σ_{t=0}^{n-1} Σ_batch (startCtx + t) = batch · (n·startCtx + n(n−1)/2).
func runContext(startCtx, n, batch int) float64 {
	return float64(batch) * (float64(n)*float64(startCtx) + float64(n)*float64(n-1)/2)
}

// chunkContext is DecodeChunk's total context-token count, with negative
// contexts read as empty: Σ_{t=0}^{n-1} Σ_b (ctx_b + t) = n·Σctx_b +
// B·n(n−1)/2.
//
//edgereasoning:hotpath bench=BenchmarkCostModel
func chunkContext(ctxs []int, n int) float64 {
	sum := 0.0
	for _, c := range ctxs {
		if c < 0 {
			c = 0
		}
		sum += float64(c)
	}
	return float64(n)*sum + float64(len(ctxs))*float64(n)*float64(n-1)/2
}

// decodeCost holds what decode's closed form reads that depends only on
// the simulator, its device, the architecture and the weight format.
type decodeCost struct {
	// Memory: weights once per step, KV history per (step, sequence),
	// activations and logits per sequence per step.
	weightBytes, kvPerTok, actBytes float64
	// Compute: dense GEMV/GEMM work per (step, sequence) plus linear
	// attention, attnCoef FLOPs per context token.
	densePerTok, attnCoef float64
	// peak is the weight format's effective matmul peak; tiled marks a
	// device whose tensor cores small batches cannot feed.
	peak  float64
	tiled bool
	effBW float64
	// launchesPerStep kernels per step, each costing overhead, of which
	// hostFrac is not hidden by host overlap.
	launchesPerStep    int
	overhead, hostFrac float64
	// peakFP16 and memBW are the utilization denominators; occBase is
	// batch-1 occupancy.
	peakFP16, memBW, occBase float64
}

// decodeCost resolves decode's constants for an architecture and weight
// format.
func (s *Sim) decodeCost(a model.Arch, dt model.DType) decodeCost {
	d := s.Device
	overlap := s.HostOverlap
	if overlap < 0 {
		overlap = 0
	}
	if overlap > 1 {
		overlap = 1
	}
	return decodeCost{
		weightBytes:     float64(a.WeightBytes(dt)),
		kvPerTok:        float64(a.KVBytesPerToken()),
		actBytes:        float64(a.Hidden)*float64(a.Layers)*24 + float64(a.Vocab)*4,
		densePerTok:     a.DecodeFLOPs(0),
		attnCoef:        4 * float64(a.Layers) * float64(a.KVHeads) * float64(a.HeadDim),
		peak:            s.computePeak(dt),
		tiled:           d.TileM > 1,
		effBW:           d.EffectiveBandwidth(),
		launchesPerStep: a.Layers*decodeKernelsPerStep + 2,
		overhead:        d.KernelOverhead,
		hostFrac:        1 - overlap,
		peakFP16:        d.PeakFP16FLOPS,
		memBW:           d.MemBandwidth,
		occBase:         float64(a.Hidden) / 128 / float64(d.SMCount),
	}
}

// aggregate is the shared closed form: batch sequences, n steps, with
// sumCtx the total context-token count summed over all (step, seq)
// pairs.
//
//edgereasoning:hotpath bench=BenchmarkCostModel
func (c *decodeCost) aggregate(batch, n int, sumCtx float64) Result {
	nf := float64(n)
	bf := float64(batch)
	bytes := nf*c.weightBytes + sumCtx*c.kvPerTok + nf*bf*c.actBytes
	flops := nf*bf*c.densePerTok + c.attnCoef*sumCtx
	// Small decode batches cannot feed the tensor cores; efficiency
	// saturates with batch size. CPU SIMD has no such tile penalty.
	batchSat := 1.0
	if c.tiled {
		batchSat = bf / (bf + 24)
	}
	peak := c.peak * batchSat

	tm := bytes / c.effBW
	tc := flops / peak
	t := tm
	if tc > t {
		t = tc
	}
	launches := n * c.launchesPerStep
	t += float64(launches) * c.overhead * c.hostFrac

	res := Result{
		Phase:   PhaseDecode,
		Time:    t,
		FLOPs:   flops,
		Bytes:   bytes,
		Kernels: launches,
		Tokens:  n * batch,
	}
	if t > 0 {
		res.ComputeUtil = flops / t / c.peakFP16
		res.BWUtil = bytes / t / c.memBW
	}
	// Decode occupancy: GEMV row-parallel blocks over the hidden width,
	// widened by batching.
	occ := c.occBase
	occ *= 1 + 0.15*log2(bf)
	if occ > 1 {
		occ = 1
	}
	res.Occupancy = occ
	return res
}

// step is one batch-1 decode step at a context length, a negative one
// read as empty: aggregate over chunkContext([]int{ctx}, 1).
func (c *decodeCost) step(ctx int) Result {
	return c.aggregate(1, 1, float64(max(ctx, 0)))
}

// maxTiles bounds a CostModel's prefill table: 64 tiles cover prompts of
// up to 8192 tokens at Orin's 128-token tile.
const maxTiles = 64

// CostModel prices the phases of one architecture in one weight format
// on a resolved Sim; it is the simulator's only pricing API. Decode's
// constants are computed once. Prefill latency moves in steps of the
// padded token count (I_pad in Eqn 1), so the seven kernels whose cost
// depends only on it are priced once per padded size, in a table of up
// to maxTiles tiles; attention reads the KV of the unpadded prompt, so
// it is priced per call. Every result is bit-identical to the unresolved
// kernel walk and decode closed form.
//
// The model snapshots the simulator and its device when resolved: later
// changes to either do not reach it. It fills its table as it goes, so
// it belongs to one goroutine.
type CostModel struct {
	sim    Sim
	dev    hw.Device
	arch   model.Arch
	dt     model.DType
	decode decodeCost
	// tiles[i] prices (i+1)·TileM padded tokens once filled: a filled
	// tile counts at least the LM head and sampling launches. Prompts
	// past the table are priced on the stack per call.
	tiles []prefillTile
}

// Resolve returns the simulator's cost model for an architecture and
// weight format.
func (s *Sim) Resolve(a model.Arch, dt model.DType) *CostModel {
	m := &CostModel{sim: *s, dev: *s.Device, arch: a, dt: dt}
	m.sim.Device = &m.dev
	m.decode = m.sim.decodeCost(a, dt)
	return m
}

// TileM is the padding granularity of the model's device: the tile a
// prompt is padded up to before prefill (I_pad in Eqn 1).
func (m *CostModel) TileM() int { return m.dev.TileM }

// Prefill times prompt processing for tokens tokens at batch 1. A
// batched prefill concatenates its prompts, so b prompts of n tokens
// cost Prefill(n·b).
//
//edgereasoning:hotpath bench=BenchmarkCostModel
func (m *CostModel) Prefill(tokens int) Result {
	if tokens <= 0 {
		return Result{Phase: PhasePrefill}
	}
	mPad := m.dev.PadM(tokens)
	i := mPad/max(m.dev.TileM, 1) - 1
	if i >= maxTiles {
		tl := m.sim.tile(m.arch, m.dt, mPad)
		return m.sim.prefillFrom(&tl, &m.arch, m.dt, mPad, tokens)
	}
	if i >= len(m.tiles) || m.tiles[i].kernels == 0 {
		m.fill(i, mPad)
	}
	return m.sim.prefillFrom(&m.tiles[i], &m.arch, m.dt, mPad, tokens)
}

// fill prices tile i, mPad padded tokens, growing the table to hold it.
func (m *CostModel) fill(i, mPad int) {
	if i >= len(m.tiles) {
		m.tiles = append(m.tiles, make([]prefillTile, i+1-len(m.tiles))...)
	}
	m.tiles[i] = m.sim.tile(m.arch, m.dt, mPad)
}

// DecodeChunk times n consecutive decode steps for a batch whose members
// start at the given (possibly unequal) context lengths, each growing by
// one token per step. The engine uses it to advance a continuous batch
// between admission/completion events in one closed form.
//
//edgereasoning:hotpath bench=BenchmarkCostModel
func (m *CostModel) DecodeChunk(ctxs []int, n int) Result {
	if n <= 0 || len(ctxs) == 0 {
		return Result{Phase: PhaseDecode}
	}
	return m.decode.aggregate(len(ctxs), n, chunkContext(ctxs, n))
}

// DecodeRun times n consecutive decode steps for a batch whose members
// all start at startCtx and grow by one token per step: DecodeChunk over
// batch equal contexts, summed over the arithmetic context series.
func (m *CostModel) DecodeRun(startCtx, n, batch int) Result {
	if n <= 0 || batch <= 0 {
		return Result{Phase: PhaseDecode}
	}
	return m.decode.aggregate(batch, n, runContext(startCtx, n, batch))
}

// TBT returns the marginal time-between-tokens at a context length for
// batch-1 decoding — the quantity Fig 3b plots: the time of
// DecodeChunk([]int{ctx}, 1).
func (m *CostModel) TBT(ctx int) float64 { return m.decode.step(ctx).Time }

func log2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}
