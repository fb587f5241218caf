package gpusim

import (
	"math"
	"testing"
	"testing/quick"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

func orinSim() *Sim { return New(hw.JetsonAGXOrin64GB()) }

// resolve is the cost model of a catalog model's architecture in a
// weight format on a simulator.
func resolve(s *Sim, id model.ID, dt model.DType) *CostModel {
	return s.Resolve(model.MustLookup(id).Arch, dt)
}

func withinFrac(got, want, frac float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= frac
}

// Calibration anchor: the paper's measured time-between-tokens at short
// context (§IV-A: 0.024 s for 1.5B, 0.092–0.10 s for 8B, 0.186–0.187 s
// for 14B). The simulator must land within 15%.
func TestDecodeTBTMatchesPaper(t *testing.T) {
	s := orinSim()
	cases := []struct {
		id   model.ID
		want float64
	}{
		{model.DSR1Qwen1_5B, 0.024},
		{model.DSR1Llama8B, 0.096},
		{model.DSR1Qwen14B, 0.187},
	}
	for _, c := range cases {
		got := resolve(s, c.id, model.FP16).TBT(512)
		if !withinFrac(got, c.want, 0.15) {
			t.Errorf("%s: TBT = %.4fs, want %.3fs ±15%%", c.id, got, c.want)
		}
	}
}

// Fig 3b: TBT grows only slightly with context (the paper measures +3.1%
// from 1 to 4k on the 8B model).
func TestTBTNearlyFlatInContext(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Llama8B, model.FP16)
	t1 := m.TBT(1)
	t4k := m.TBT(4096)
	growth := (t4k - t1) / t1
	if growth <= 0 {
		t.Errorf("TBT must grow with context, got %.4f", growth)
	}
	if growth > 0.10 {
		t.Errorf("TBT grew %.1f%% over 4k context, paper measures ~3%%", growth*100)
	}
}

// Fig 2: prefill latency is stepped — constant within a 128-token tile,
// jumping at tile boundaries.
func TestPrefillSteppedPattern(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Llama8B, model.FP16)
	inTile1 := m.Prefill(129).Time
	inTile2 := m.Prefill(255).Time
	nextTile := m.Prefill(257).Time
	if math.Abs(inTile1-inTile2) > 1e-4 {
		t.Errorf("within-tile latencies differ: %.4f vs %.4f", inTile1, inTile2)
	}
	if nextTile <= inTile2 {
		t.Errorf("crossing a tile boundary must increase latency: %.4f -> %.4f", inTile2, nextTile)
	}
}

// Table XVI GPU column: prefill at 512 tokens ≈ 0.095 / 0.554 / 0.764 s.
// The effective throughput implied (15–19 TFLOPs) is the key shape; allow
// a generous ±40% on absolute values.
func TestPrefillLatencyBallpark(t *testing.T) {
	s := orinSim()
	cases := []struct {
		id   model.ID
		want float64
	}{
		{model.DSR1Qwen1_5B, 0.095},
		{model.DSR1Llama8B, 0.554},
		{model.DSR1Qwen14B, 0.764},
	}
	for _, c := range cases {
		got := resolve(s, c.id, model.FP16).Prefill(512).Time
		if !withinFrac(got, c.want, 0.40) {
			t.Errorf("%s prefill@512 = %.3fs, want %.3fs ±40%%", c.id, got, c.want)
		}
	}
}

// Table VII: with reasoning workloads, decode dominates >99% of latency.
func TestDecodeDominatesReasoningWorkload(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Llama8B, model.FP16)
	prefill := m.Prefill(256)
	decode := m.DecodeRun(256, 811, 1)
	share := decode.Time / (decode.Time + prefill.Time)
	if share < 0.98 {
		t.Errorf("decode share = %.3f, paper reports >0.995", share)
	}
}

// DecodeRun must equal the sum of single-step DecodeChunks (closed form
// vs step loop).
func TestDecodeRunEqualsStepSum(t *testing.T) {
	s := orinSim()
	s.JitterFrac = 0
	m := resolve(s, model.DSR1Qwen1_5B, model.FP16)
	const start, n, batch = 100, 50, 4
	run := m.DecodeRun(start, n, batch)
	var total float64
	ctxs := make([]int, batch)
	for step := 0; step < n; step++ {
		for b := range ctxs {
			ctxs[b] = start + step
		}
		total += m.DecodeChunk(ctxs, 1).Time
	}
	if !withinFrac(run.Time, total, 1e-9) {
		t.Errorf("DecodeRun = %.6fs, step sum = %.6fs", run.Time, total)
	}
}

// Parallel scaling (Fig 10a): decode latency grows sublinearly in batch —
// roughly 2× from SF=1 to SF=64.
func TestDecodeBatchSublinear(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Llama8B, model.FP16)
	t1 := m.DecodeRun(512, 128, 1).Time
	t64 := m.DecodeRun(512, 128, 64).Time
	ratio := t64 / t1
	if ratio < 1.05 {
		t.Errorf("batch-64 decode should cost more than batch-1 (ratio %.2f)", ratio)
	}
	if ratio > 3.0 {
		t.Errorf("batch-64 decode ratio = %.2f, paper reports ~2x", ratio)
	}
}

// W4A16 decode speedup: the paper measures 2.0× (1.5B), 2.9× (8B),
// 3.1× (14B) on the decode sweep (Table XIX).
func TestQuantizedDecodeSpeedup(t *testing.T) {
	s := orinSim()
	cases := []struct {
		id      model.ID
		minWant float64
		maxWant float64
	}{
		{model.DSR1Qwen1_5B, 1.4, 2.8},
		{model.DSR1Llama8B, 2.2, 3.8},
		{model.DSR1Qwen14B, 2.4, 4.0},
	}
	for _, c := range cases {
		base := resolve(s, c.id, model.FP16).DecodeRun(512, 256, 1).Time
		w4 := resolve(s, c.id, model.W4A16).DecodeRun(512, 256, 1).Time
		speedup := base / w4
		if speedup < c.minWant || speedup > c.maxWant {
			t.Errorf("%s: W4 decode speedup = %.2fx, want in [%.1f, %.1f]", c.id, speedup, c.minWant, c.maxWant)
		}
	}
}

// CPU substrate: Table XVII implies GPU decode is ~4–6× faster than CPU.
func TestCPUDecodeSlower(t *testing.T) {
	gpu := resolve(orinSim(), model.DSR1Llama8B, model.FP16)
	cpu := resolve(New(hw.OrinCortexA78AE()), model.DSR1Llama8B, model.FP16)
	tg := gpu.DecodeRun(512, 128, 1).Time
	tc := cpu.DecodeRun(512, 128, 1).Time
	ratio := tc / tg
	if ratio < 3 || ratio > 8 {
		t.Errorf("CPU/GPU decode ratio = %.1f, Table XVII implies ~5x", ratio)
	}
}

func TestPrefillZeroAndNegative(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Qwen1_5B, model.FP16)
	if m.Prefill(0).Time != 0 {
		t.Error("zero-token prefill must cost nothing")
	}
	if m.DecodeRun(10, 0, 1).Time != 0 {
		t.Error("zero-step decode must cost nothing")
	}
	if m.DecodeChunk(nil, 1).Time != 0 {
		t.Error("empty-batch step must cost nothing")
	}
}

func TestUtilizationSignalsBounded(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Qwen14B, model.FP16)
	for _, res := range []Result{
		m.Prefill(1024),
		m.DecodeRun(512, 64, 8),
	} {
		if res.BWUtil < 0 || res.BWUtil > 1.001 {
			t.Errorf("BWUtil out of range: %v", res.BWUtil)
		}
		if res.ComputeUtil < 0 || res.ComputeUtil > 1.001 {
			t.Errorf("ComputeUtil out of range: %v", res.ComputeUtil)
		}
		if res.Occupancy < 0 || res.Occupancy > 1.001 {
			t.Errorf("Occupancy out of range: %v", res.Occupancy)
		}
	}
}

// Property: prefill latency is non-decreasing in input length.
func TestPrefillMonotoneProperty(t *testing.T) {
	s := orinSim()
	s.JitterFrac = 0
	m := resolve(s, model.DSR1Llama8B, model.FP16)
	f := func(x, y uint16) bool {
		i, j := int(x%4096)+1, int(y%4096)+1
		if i > j {
			i, j = j, i
		}
		return m.Prefill(i).Time <= m.Prefill(j).Time+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: decode time is additive-monotone in steps and batch.
func TestDecodeMonotoneProperty(t *testing.T) {
	m := resolve(orinSim(), model.DSR1Qwen1_5B, model.FP16)
	f := func(n1, n2, b uint8) bool {
		steps1 := int(n1%100) + 1
		steps2 := steps1 + int(n2%100)
		batch := int(b%16) + 1
		t1 := m.DecodeRun(64, steps1, batch).Time
		t2 := m.DecodeRun(64, steps2, batch).Time
		tb := m.DecodeRun(64, steps1, batch+1).Time
		return t2 >= t1 && tb >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKernelKindString(t *testing.T) {
	if GEMM.String() != "gemm" || Attention.String() != "attention" {
		t.Error("KernelKind String wrong")
	}
}

func TestMergeWeightsUtilByTime(t *testing.T) {
	r1 := Result{Time: 1, BWUtil: 0.2, ComputeUtil: 0.4, Occupancy: 1}
	r2 := Result{Time: 3, BWUtil: 0.6, ComputeUtil: 0.0, Occupancy: 0.5}
	r1.merge(r2)
	if !withinFrac(r1.BWUtil, 0.5, 1e-9) {
		t.Errorf("merged BWUtil = %v, want 0.5", r1.BWUtil)
	}
	if !withinFrac(r1.ComputeUtil, 0.1, 1e-9) {
		t.Errorf("merged ComputeUtil = %v, want 0.1", r1.ComputeUtil)
	}
	if r1.Time != 4 {
		t.Errorf("merged Time = %v, want 4", r1.Time)
	}
}
