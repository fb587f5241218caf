package gpusim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/stats"
)

// sameBits reports whether two results agree in every field, floats
// compared by their bits.
func sameBits(a, b Result) bool {
	return a.Phase == b.Phase && a.Kernels == b.Kernels && a.Tokens == b.Tokens &&
		math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		math.Float64bits(a.FLOPs) == math.Float64bits(b.FLOPs) &&
		math.Float64bits(a.Bytes) == math.Float64bits(b.Bytes) &&
		math.Float64bits(a.ComputeUtil) == math.Float64bits(b.ComputeUtil) &&
		math.Float64bits(a.BWUtil) == math.Float64bits(b.BWUtil) &&
		math.Float64bits(a.Occupancy) == math.Float64bits(b.Occupancy)
}

// walkPrefill is the reference prefill: every kernel of the walk timed
// and summed in kernel order, nothing resolved ahead.
func walkPrefill(s *Sim, a model.Arch, dt model.DType, n, batch int) Result {
	if n <= 0 || batch <= 0 {
		return Result{Phase: PhasePrefill}
	}
	total := n * batch
	res := Result{Phase: PhasePrefill, Tokens: total}
	var occTime float64
	for _, k := range prefillKernels(a, dt, s.Device.PadM(total), total) {
		t, occ := s.kernelTime(k, dt)
		elapsed := t * float64(k.reps())
		res.Time += elapsed
		res.FLOPs += k.TotalFLOPs()
		res.Bytes += k.TotalBytes()
		res.Kernels += k.reps()
		occTime += occ * elapsed
	}
	if d := s.Device; res.Time > 0 {
		res.ComputeUtil = res.FLOPs / res.Time / d.PeakFP16FLOPS
		res.BWUtil = res.Bytes / res.Time / d.MemBandwidth
		res.Occupancy = occTime / res.Time
	}
	return res
}

// derivedDecode is the reference decode closed form: every term derived
// from the architecture and device on the call.
func derivedDecode(s *Sim, a model.Arch, dt model.DType, batch, n int, sumCtx float64) Result {
	d := s.Device
	nf, bf := float64(n), float64(batch)
	bytes := nf*float64(a.WeightBytes(dt)) + sumCtx*float64(a.KVBytesPerToken()) +
		nf*bf*(float64(a.Hidden)*float64(a.Layers)*24+float64(a.Vocab)*4)
	flops := nf*bf*a.DecodeFLOPs(0) + 4*float64(a.Layers)*float64(a.KVHeads)*float64(a.HeadDim)*sumCtx
	batchSat := 1.0
	if d.TileM > 1 {
		batchSat = bf / (bf + 24)
	}
	t := bytes / d.EffectiveBandwidth()
	if tc := flops / (s.computePeak(dt) * batchSat); tc > t {
		t = tc
	}
	launches := n * (a.Layers*decodeKernelsPerStep + 2)
	t += float64(launches) * d.KernelOverhead * (1 - math.Min(math.Max(s.HostOverlap, 0), 1))
	res := Result{Phase: PhaseDecode, Time: t, FLOPs: flops, Bytes: bytes, Kernels: launches, Tokens: n * batch}
	if t > 0 {
		res.ComputeUtil = flops / t / d.PeakFP16FLOPS
		res.BWUtil = bytes / t / d.MemBandwidth
	}
	res.Occupancy = math.Min(float64(a.Hidden)/128/float64(d.SMCount)*(1+0.15*log2(bf)), 1)
	return res
}

// namedSim is a simulator the bit-exactness test resolves.
type namedSim struct {
	name string
	s    *Sim
}

// costModelSims are each catalog device (the CPU has TileM = 1), a
// derated power mode, host overlap and a jitter-free simulator.
func costModelSims() []namedSim {
	overlapped := New(hw.JetsonAGXOrin64GB())
	overlapped.HostOverlap = 0.6
	return []namedSim{
		{"orin", New(hw.JetsonAGXOrin64GB())},
		{"h100", New(hw.H100SXM())},
		{"cpu", New(hw.OrinCortexA78AE())},
		{"orin-15W", New(hw.ApplyPowerMode(hw.JetsonAGXOrin64GB(), hw.OrinPowerModes()[0]))},
		{"orin-overlap", overlapped},
		{"orin-nojitter", &Sim{Device: hw.JetsonAGXOrin64GB()}},
	}
}

// refSpeculative is the reference speculative decode: the plain run, the
// draft step and the verify step each priced by derivedDecode.
func refSpeculative(s *Sim, a model.Arch, dt model.DType, cfg SpeculativeConfig, start, n int) (Result, float64) {
	if n <= 0 {
		return Result{Phase: PhaseDecode}, 1
	}
	plain := derivedDecode(s, a, dt, 1, n, runContext(start, n, 1))
	if cfg.Gamma <= 0 {
		return plain, 1
	}
	iters := int(math.Ceil(float64(n) / cfg.ExpectedTokensPerIteration()))
	mid := float64(max(start+n/2, 0))
	draft := derivedDecode(s, cfg.Draft, cfg.DraftDType, 1, 1, mid)
	verify := derivedDecode(s, a, dt, 1, 1, mid)
	g := float64(cfg.Gamma)
	iter := g*draft.Time + verify.Time + g*float64(a.KVBytesPerToken())/s.Device.EffectiveBandwidth()
	res := Result{
		Phase:     PhaseDecode,
		Time:      float64(iters) * iter,
		FLOPs:     plain.FLOPs + float64(iters)*g*draft.FLOPs,
		Bytes:     float64(iters) * (g*draft.Bytes + verify.Bytes),
		Kernels:   iters * (cfg.Gamma*draft.Kernels + verify.Kernels),
		Tokens:    n,
		Occupancy: plain.Occupancy,
	}
	if res.Time > 0 {
		res.ComputeUtil = res.FLOPs / res.Time / s.Device.PeakFP16FLOPS
		res.BWUtil = res.Bytes / res.Time / s.Device.MemBandwidth
	}
	return res, plain.Time / res.Time
}

// The resolved cost model must price every call exactly as the unresolved
// kernel walk and decode closed form do: every catalog architecture in
// each weight format on each simulator, prompt lengths within, at the
// edges of and past the tile table in random order (so a tile is reused
// across the lengths it pads), batched prefills, decode chunks and runs
// at batch 1..32 over random contexts, TBT, and speculative runs with a
// random draft.
func TestCostModelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 20))
	dtypes := []model.DType{model.FP16, model.W4A16, model.FP32}
	specs := model.All()
	for _, ns := range costModelSims() {
		name, s := ns.name, ns.s
		tileM := max(s.Device.TileM, 1)
		limit := (maxTiles + 3) * tileM
		var lengths []int
		for k := 1; k <= maxTiles+2; k++ {
			lengths = append(lengths, k*tileM-1, k*tileM, k*tileM+1)
		}
		for i := 0; i < 400; i++ {
			lengths = append(lengths, 1+rng.IntN(limit))
		}
		for _, spec := range specs {
			for _, dt := range dtypes {
				a := spec.Arch
				m := s.Resolve(a, dt)
				where := fmt.Sprintf("%s %s %s", name, spec.ID, dt)
				rng.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
				for _, n := range lengths {
					if got, ref := m.Prefill(n), walkPrefill(s, a, dt, n, 1); !sameBits(got, ref) {
						t.Fatalf("%s: prefill %d: model %+v, kernel walk %+v", where, n, got, ref)
					}
				}
				if b := 1 + rng.IntN(8); !sameBits(m.Prefill(100*b), walkPrefill(s, a, dt, 100, b)) {
					t.Fatalf("%s: batched prefill at %d differs from the kernel walk", where, b)
				}
				for i := 0; i < 60; i++ {
					batch, n, start := 1+rng.IntN(32), 1+rng.IntN(300), rng.IntN(20_000)
					ctxs := make([]int, batch)
					for j := range ctxs {
						ctxs[j] = rng.IntN(20_000) - 10 // a few negative: read as empty
					}
					if got, ref := m.DecodeChunk(ctxs, n), derivedDecode(s, a, dt, batch, n, chunkContext(ctxs, n)); !sameBits(got, ref) {
						t.Fatalf("%s: chunk %v×%d: model %+v, derived %+v", where, ctxs, n, got, ref)
					}
					if got, ref := m.DecodeRun(start, n, batch), derivedDecode(s, a, dt, batch, n, runContext(start, n, batch)); !sameBits(got, ref) {
						t.Fatalf("%s: run %d+%d at %d: model %+v, derived %+v", where, start, n, batch, got, ref)
					}
					ctx := ctxs[0]
					ref := derivedDecode(s, a, dt, 1, 1, float64(max(ctx, 0)))
					if got := m.TBT(ctx); math.Float64bits(got) != math.Float64bits(ref.Time) {
						t.Fatalf("%s: TBT at %d: model %v, derived %v", where, ctx, got, ref.Time)
					}
				}
				for i := 0; i < 8; i++ {
					draft := specs[rng.IntN(len(specs))]
					cfg := SpeculativeConfig{
						Draft: draft.Arch, DraftDType: dtypes[rng.IntN(len(dtypes))],
						Gamma: rng.IntN(9), AcceptRate: rng.Float64(),
					}
					start, n := rng.IntN(8000), rng.IntN(2000)
					got, gotUp := m.DecodeRunSpeculative(cfg, start, n)
					ref, refUp := refSpeculative(s, a, dt, cfg, start, n)
					if !sameBits(got, ref) || math.Float64bits(gotUp) != math.Float64bits(refUp) {
						t.Fatalf("%s: speculative %+v from %d for %d: model %+v ×%v, reference %+v ×%v",
							where, cfg, start, n, got, gotUp, ref, refUp)
					}
				}
				for _, n := range []int{0, -3} {
					empty := Result{Phase: PhaseDecode}
					if got := m.Prefill(n); !sameBits(got, Result{Phase: PhasePrefill}) {
						t.Fatalf("%s: prefill %d: model %+v, want empty", where, n, got)
					}
					if got := m.DecodeChunk([]int{5}, n); !sameBits(got, empty) {
						t.Fatalf("%s: chunk of %d steps: model %+v, want empty", where, n, got)
					}
					if got := m.DecodeRun(5, n, 2); !sameBits(got, empty) {
						t.Fatalf("%s: run of %d steps: model %+v, want empty", where, n, got)
					}
				}
			}
		}
	}
}

// The cost model snapshots its simulator and device: changing either
// after Resolve does not reach it.
func TestCostModelSnapshotsDevice(t *testing.T) {
	s := orinSim()
	a := model.MustLookup(model.DSR1Llama8B).Arch
	m := s.Resolve(a, model.FP16)
	want := s.Resolve(a, model.FP16).Prefill(700)
	s.Device.MemBandwidth /= 2
	s.JitterFrac = 0
	if sameBits(s.Resolve(a, model.FP16).Prefill(700), want) {
		t.Fatal("changing the simulator does not change the price; the test shows nothing")
	}
	if got := m.Prefill(700); !sameBits(got, want) {
		t.Fatalf("prefill after changing the simulator: %+v, resolved %+v", got, want)
	}
}

// Attention is the walk's one length-dependent kernel, in its slot.
func TestAttentionSlot(t *testing.T) {
	a := model.MustLookup(model.DSR1Qwen14B).Arch
	ks := prefillKernels(a, model.FP16, 256, 200)
	for i, k := range ks {
		if (k.Kind == Attention) != (i == attentionSlot) {
			t.Fatalf("kernel %d (%s) is %v; attention belongs in slot %d", i, k.Name, k.Kind, attentionSlot)
		}
	}
	if other := prefillKernels(a, model.FP16, 256, 256); other[attentionSlot] == ks[attentionSlot] {
		t.Fatal("attention's cost does not depend on the unpadded length")
	}
}

// A tile hit, a prompt past the table, a decode chunk and a TBT allocate
// nothing.
func TestCostModelAllocs(t *testing.T) {
	m := orinSim().Resolve(model.MustLookup(model.DSR1Llama8B).Arch, model.FP16)
	m.Prefill(300) // fills the tile
	ctxs := []int{400, 1200, 90, 3000}
	var sink Result
	for name, f := range map[string]func(){
		"tile hit":       func() { sink = m.Prefill(260) },
		"past the table": func() { sink = m.Prefill(maxTiles*128 + 500) },
		"decode chunk":   func() { sink = m.DecodeChunk(ctxs, 16) },
		"tbt":            func() { sink.Time = m.TBT(1200) },
	} {
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
	_ = sink
}

var costSink Result

// BenchmarkCostModel prices one engine event pair on a resolved model:
// a prefill (tile hit, prompt lengths cycling over 16 tiles) and a
// 16-step decode chunk over 8 sequences.
func BenchmarkCostModel(b *testing.B) {
	m := orinSim().Resolve(model.MustLookup(model.DSR1Llama8B).Arch, model.FP16)
	rng := stats.NewRNG(1, "gpusim/bench")
	prompts := make([]int, 64)
	for i := range prompts {
		prompts[i] = 1 + rng.IntN(16*128)
		m.Prefill(prompts[i]) // fill the tile, so every timed prefill hits
	}
	ctxs := make([]int, 8)
	for i := range ctxs {
		ctxs[i] = 200 + rng.IntN(4000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		costSink = m.Prefill(prompts[i%len(prompts)])
		costSink = m.DecodeChunk(ctxs, 16)
	}
}
