package edgereasoning

import (
	"math"
	"testing"
	"time"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/label"
)

// engineRequest builds a small indexed request for serving tests.
func engineRequest(i int) engine.Request {
	return engine.Request{ID: label.Question(i), PromptTokens: 128, OutputTokens: 40}
}

func TestDeployAndPredict(t *testing.T) {
	p := NewOrinPlatform()
	dep, err := p.Deploy(DSR1Qwen14B)
	if err != nil {
		t.Fatal(err)
	}
	lat := dep.PredictLatency(180, 256)
	// ~256 tokens at ~0.19 s/token ≈ 48-55 s.
	if lat < 35 || lat > 75 {
		t.Errorf("14B latency for 256 tokens = %.1fs, want ~50", lat)
	}
	tbt := dep.PredictTBT(512)
	if math.Abs(tbt-0.187)/0.187 > 0.2 {
		t.Errorf("14B TBT = %.3f, paper 0.187", tbt)
	}
}

func TestDeployUnknownModel(t *testing.T) {
	if _, err := NewOrinPlatform().Deploy("nonexistent"); err == nil {
		t.Error("unknown model must fail")
	}
}

func TestDeployQuantizedVariant(t *testing.T) {
	p := NewOrinPlatform()
	base, err := p.Deploy(DSR1Llama8B)
	if err != nil {
		t.Fatal(err)
	}
	w4, err := p.Deploy(DSR1Llama8B + "-w4")
	if err != nil {
		t.Fatal(err)
	}
	if w4.PredictTBT(512) >= base.PredictTBT(512) {
		t.Error("quantized TBT must undercut FP16")
	}
}

func TestMaxTokensWithinDeadline(t *testing.T) {
	p := NewOrinPlatform()
	dep, err := p.Deploy(DSR1Qwen14B)
	if err != nil {
		t.Fatal(err)
	}
	n := dep.MaxTokensWithin(180, 21*time.Second)
	if n < 85 || n > 140 {
		t.Errorf("tokens within 21s = %d, paper implies ~113", n)
	}
}

func TestGenerateThroughEngine(t *testing.T) {
	p := NewOrinPlatform()
	dep, err := p.Deploy(DSR1Qwen1_5B)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dep.Generate(128, 512)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalTime() <= 0 || g.Energy <= 0 || g.AvgPower <= 0 {
		t.Errorf("implausible generation result: %+v", g)
	}
	if g.DecodeTime < g.PrefillTime {
		t.Error("decode must dominate")
	}
}

func TestEvaluateBenchmark(t *testing.T) {
	p := NewOrinPlatform()
	dep, err := p.Deploy(DSR1Llama8B)
	if err != nil {
		t.Fatal(err)
	}
	r, err := dep.Evaluate(MMLURedux, Base(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Accuracy-0.617) > 0.03 {
		t.Errorf("8B Base accuracy = %.3f, paper 0.617", r.Accuracy)
	}
	if r.MeanLatency < 50 || r.MeanLatency > 130 {
		t.Errorf("8B Base latency = %.1fs, paper 87.2", r.MeanLatency)
	}
}

func TestEvaluateParallelScaling(t *testing.T) {
	p := NewOrinPlatform()
	dep, err := p.Deploy(DSR1Qwen14B)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := dep.Evaluate(MMLURedux, Hard(128), 1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := dep.Evaluate(MMLURedux, Hard(128), 8)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Accuracy <= r1.Accuracy {
		t.Errorf("SF8 (%.3f) should beat SF1 (%.3f)", r8.Accuracy, r1.Accuracy)
	}
	// Parallel scaling adds only modest latency (Takeaway #9).
	if r8.MeanLatency > 2*r1.MeanLatency {
		t.Errorf("SF8 latency %.1fs vs SF1 %.1fs: overhead too large", r8.MeanLatency, r1.MeanLatency)
	}
}

func TestPlanRecipeBudgets(t *testing.T) {
	p := NewOrinPlatform()
	fast, ok, err := p.PlanRecipe(MMLURedux, 3*time.Second)
	if err != nil || !ok {
		t.Fatalf("3s plan: ok=%v err=%v", ok, err)
	}
	slow, ok, err := p.PlanRecipe(MMLURedux, 5*time.Minute)
	if err != nil || !ok {
		t.Fatalf("5m plan: ok=%v err=%v", ok, err)
	}
	if fast.Latency > 3 {
		t.Errorf("fast recipe misses budget: %.1fs", fast.Latency)
	}
	if slow.Accuracy <= fast.Accuracy {
		t.Error("larger budget must buy more accuracy")
	}
}

func TestPlanRecipeWithEnergy(t *testing.T) {
	p := NewOrinPlatform()
	free, ok, err := p.PlanRecipeWithEnergy(MMLURedux, 5*time.Minute, 0)
	if err != nil || !ok {
		t.Fatalf("unconstrained: %v %v", ok, err)
	}
	capped, ok, err := p.PlanRecipeWithEnergy(MMLURedux, 5*time.Minute, 150)
	if err != nil || !ok {
		t.Fatalf("capped: %v %v", ok, err)
	}
	if capped.EnergyPerQ > 150 {
		t.Errorf("energy cap violated: %.0f J", capped.EnergyPerQ)
	}
	if capped.Accuracy > free.Accuracy {
		t.Error("an energy cap cannot improve accuracy")
	}
}

func TestFrontierShape(t *testing.T) {
	front, err := NewOrinPlatform().Frontier(MMLURedux)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 3 {
		t.Fatalf("frontier too small: %d", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i].Accuracy <= front[i-1].Accuracy || front[i].Latency <= front[i-1].Latency {
			t.Error("frontier must strictly improve in both axes")
		}
	}
}

func TestModelsCatalog(t *testing.T) {
	ms := Models()
	if len(ms) != 10 {
		t.Fatalf("catalog size = %d, want 10", len(ms))
	}
	var reasoning, direct int
	for _, m := range ms {
		if m.Params <= 0 || m.DisplayName == "" {
			t.Errorf("bad catalog entry: %+v", m)
		}
		if m.Reasoning {
			reasoning++
		} else {
			direct++
		}
	}
	if reasoning < 4 || direct < 4 {
		t.Errorf("catalog split wrong: %d reasoning, %d direct", reasoning, direct)
	}
}

func TestEdgeCostMatchesPaper(t *testing.T) {
	got := EdgeCost(0.0317*3.6e6, 4358, 195624)
	if math.Abs(got-0.302) > 0.005 {
		t.Errorf("edge cost = %.4f, paper 0.302", got)
	}
}

func TestRunExperimentQuick(t *testing.T) {
	tables, err := RunExperimentQuick("table2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		t.Error("experiment produced nothing")
	}
}

func TestExperimentIDsNonEmpty(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 20 {
		t.Errorf("only %d experiment ids", len(ids))
	}
}

func TestCPUPlatform(t *testing.T) {
	p := NewOrinCPUPlatform()
	dep, err := p.Deploy(DSR1Qwen1_5B)
	if err != nil {
		t.Fatal(err)
	}
	gpuDep, err := NewOrinPlatform().Deploy(DSR1Qwen1_5B)
	if err != nil {
		t.Fatal(err)
	}
	if dep.PredictTBT(512) <= gpuDep.PredictTBT(512) {
		t.Error("CPU TBT must exceed GPU TBT")
	}
}

func TestServeOpenLoop(t *testing.T) {
	p := NewOrinPlatform()
	dep, err := p.Deploy(Qwen25_7Bit)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []TimedRequest
	for i := 0; i < 12; i++ {
		reqs = append(reqs, TimedRequest{
			Request: engineRequest(i),
			Arrival: float64(i) * 3,
		})
	}
	res, err := dep.Serve(reqs, 4, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 12 {
		t.Fatalf("served %d of 12", res.Requests)
	}
	if !(res.P50Latency <= res.P95Latency && res.P95Latency <= res.P99Latency) {
		t.Error("percentiles out of order")
	}
	if res.HitRate != 1 {
		t.Error("no deadlines -> hit rate must be 1")
	}
}

func TestVerifyReproductionAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("full scorecard in -short mode")
	}
	anchors, err := VerifyReproduction()
	if err != nil {
		t.Fatal(err)
	}
	if len(anchors) < 15 {
		t.Fatalf("only %d anchors", len(anchors))
	}
	failed := 0
	for _, a := range anchors {
		if !a.Pass() {
			failed++
			t.Logf("anchor %s: paper %.3f measured %.3f", a.Name, a.Paper, a.Measured)
		}
	}
	if failed > 0 {
		t.Errorf("%d/%d anchors outside tolerance", failed, len(anchors))
	}
}

func TestWithSeedIsolated(t *testing.T) {
	p := NewOrinPlatform()
	q := p.WithSeed(99)
	if p.seed == q.seed {
		t.Error("WithSeed must change the seed")
	}
	if p.DeviceName() != q.DeviceName() {
		t.Error("WithSeed must keep the device")
	}
}
