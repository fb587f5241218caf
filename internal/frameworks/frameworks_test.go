package frameworks

import (
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
)

func runWith(t *testing.T, o engine.Overhead, in, out int) float64 {
	t.Helper()
	e, err := engine.New(engine.Config{
		Spec:      model.MustLookup(model.DSR1Llama8B),
		Device:    hw.JetsonAGXOrin64GB(),
		Framework: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Generate(engine.Request{ID: label.Question(0), PromptTokens: in, OutputTokens: out})
	if err != nil {
		t.Fatal(err)
	}
	return m.TotalTime()
}

// Table IX: vLLM is 1.11-1.13x faster than HFT on the DSR1-Llama-8B
// 128-output workloads; TRT-LLM lands within a few percent of vLLM.
func TestTableIXSpeedups(t *testing.T) {
	for _, in := range []int{16, 64, 128} {
		hft := runWith(t, HFTransformers(), in, 128)
		vllm := runWith(t, VLLM(), in, 128)
		trt := runWith(t, TRTLLM(), in, 128)
		speedup := hft / vllm
		if speedup < 1.08 || speedup > 1.18 {
			t.Errorf("in=%d: HFT/vLLM = %.3f, paper reports 1.11-1.13", in, speedup)
		}
		rel := vllm / trt
		if rel < 0.95 || rel > 1.08 {
			t.Errorf("in=%d: vLLM/TRT = %.3f, paper reports ~1.0", in, rel)
		}
	}
}

// Table IX absolute scale: ~12.7s for vLLM on the 128-output workloads.
func TestTableIXAbsoluteScale(t *testing.T) {
	vllm := runWith(t, VLLM(), 64, 128)
	if vllm < 9 || vllm > 18 {
		t.Errorf("vLLM 64/128 latency = %.2fs, paper measures 12.75s", vllm)
	}
}

func TestProfilesOrder(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("want 3 profiles, got %d", len(ps))
	}
	if ps[0].Name != "HFT" || ps[1].Name != "vLLM" || ps[2].Name != "TRT-LLM" {
		t.Errorf("profile order wrong: %v %v %v", ps[0].Name, ps[1].Name, ps[2].Name)
	}
}
