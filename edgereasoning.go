// Package edgereasoning reproduces "EdgeReasoning: Characterizing
// Reasoning LLM Deployment on Edge GPUs" (IISWC 2025) as a simulation
// library: a calibrated Jetson AGX Orin model, a vLLM-style serving
// engine, statistical twins of the paper's models, analytical
// latency/power/energy models (Eqns 1–6), and the deployment planner that
// answers the paper's motivating question — "what is the optimal recipe
// at a 20-second latency budget?".
//
// Quick start:
//
//	platform := edgereasoning.NewOrinPlatform()
//	dep, _ := platform.Deploy(edgereasoning.DSR1Qwen14B)
//	fmt.Println(dep.PredictLatency(180, 256))            // modeled seconds
//	recipe, _, _ := platform.PlanRecipe(edgereasoning.MMLURedux, 20*time.Second)
//	fmt.Println(recipe.Label(), recipe.Accuracy)
//
// Every experiment in the paper is runnable via RunExperiment (see
// ExperimentIDs) or the edgereasoning CLI.
package edgereasoning

import (
	"time"

	"edgereasoning/internal/control"
	"edgereasoning/internal/core"
	"edgereasoning/internal/cost"
	"edgereasoning/internal/data"
	"edgereasoning/internal/engine"
	"edgereasoning/internal/experiments"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
	"edgereasoning/internal/tts"
)

// Model identifiers from the paper's zoo.
const (
	DSR1Qwen1_5B  = model.DSR1Qwen1_5B
	DSR1Llama8B   = model.DSR1Llama8B
	DSR1Qwen14B   = model.DSR1Qwen14B
	L1Max         = model.L1Max
	DeepScaleR    = model.DeepScaleR1_5
	Qwen25_1_5Bit = model.Qwen25_1_5Bit
	Qwen25_7Bit   = model.Qwen25_7Bit
	Qwen25_14Bit  = model.Qwen25_14Bit
	Llama31_8Bit  = model.Llama31_8Bit
	Gemma7Bit     = model.Gemma7Bit
)

// Benchmarks.
const (
	MMLURedux           = data.MMLURedux
	MMLU                = data.MMLU
	NaturalPlanCalendar = data.NaturalPlanCalendar
	NaturalPlanMeeting  = data.NaturalPlanMeeting
	NaturalPlanTrip     = data.NaturalPlanTrip
	AIME2024            = data.AIME2024
	Math500             = data.Math500
)

// Re-exported types forming the public surface.
type (
	// ModelID names a catalog model ("<id>-w4" selects the AWQ variant).
	ModelID = model.ID
	// Benchmark names a question bank.
	Benchmark = data.Benchmark
	// Policy is a reasoning-token control configuration.
	Policy = control.Policy
	// Recipe is a deployable configuration with its predicted operating
	// point (accuracy, latency, energy, cost).
	Recipe = core.Candidate
	// Table is a rendered experiment artifact.
	Table = experiments.Table
)

// Token-control constructors (§V): unconstrained decoding, prompt-based
// soft budgets, enforced hard budgets, no-reasoning injection, and direct
// generation.
func Base() Policy        { return control.BasePolicy() }
func Soft(n int) Policy   { return control.SoftLimit(n) }
func Hard(n int) Policy   { return control.HardLimit(n) }
func NoReasoning() Policy { return control.NoReasoning() }
func Direct() Policy      { return control.DirectAnswer() }

// DefaultSeed drives all randomness unless a platform overrides it.
const DefaultSeed uint64 = 7

// Platform is a simulated edge device and the seed its runs draw from.
type Platform struct {
	device *hw.Device
	seed   uint64
}

// NewOrinPlatform returns the paper's platform: Jetson AGX Orin 64GB in
// MAXN mode.
func NewOrinPlatform() *Platform {
	d := hw.JetsonAGXOrin64GB()
	return &Platform{device: d, seed: DefaultSeed}
}

// NewOrinCPUPlatform returns the Appendix C alternative: Orin's 12-core
// ARM Cortex-A78AE complex.
func NewOrinCPUPlatform() *Platform {
	d := hw.OrinCortexA78AE()
	return &Platform{device: d, seed: DefaultSeed}
}

// WithSeed returns a copy of the platform using a different random seed.
func (p *Platform) WithSeed(seed uint64) *Platform {
	cp := *p
	cp.seed = seed
	return &cp
}

// DeviceName reports the underlying device.
func (p *Platform) DeviceName() string { return p.device.Name }

// Models lists the catalog with display names and parameter counts.
func Models() []ModelInfo {
	var out []ModelInfo
	for _, s := range model.All() {
		out = append(out, ModelInfo{
			ID: s.ID, DisplayName: s.DisplayName,
			Params:    s.Arch.ParamCount(),
			Reasoning: s.Class != model.NonReasoning,
		})
	}
	return out
}

// ModelInfo is a catalog listing entry.
type ModelInfo struct {
	ID          ModelID
	DisplayName string
	Params      int64
	Reasoning   bool
}

// Deployment is one model loaded on a platform: a serving engine plus the
// fitted analytical latency model.
type Deployment struct {
	platform *Platform
	spec     model.Spec
	engine   *engine.Engine
	latency  core.LatencyModel
}

// Deploy verifies the model fits and fits its analytic latency model.
func (p *Platform) Deploy(id ModelID) (*Deployment, error) {
	spec, err := model.Lookup(id)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{Spec: spec, Device: p.device})
	if err != nil {
		return nil, err
	}
	lm, err := core.FitLatencyModel(gpusim.New(p.device).Resolve(spec.Arch, spec.DType), spec.ID)
	if err != nil {
		return nil, err
	}
	return &Deployment{platform: p, spec: spec, engine: eng, latency: lm}, nil
}

// Model returns the deployment's model ID.
func (d *Deployment) Model() ModelID { return d.spec.ID }

// PredictLatency returns the analytic end-to-end latency (Eqn 3) in
// seconds for a prompt/output token pair.
func (d *Deployment) PredictLatency(promptTokens, outputTokens int) float64 {
	return d.latency.Total(promptTokens, outputTokens)
}

// PredictTBT returns the modeled time between tokens at a context length.
func (d *Deployment) PredictTBT(context int) float64 {
	return d.latency.Decode.TBT(context)
}

// MaxTokensWithin inverts the latency model: the largest output budget
// that meets the deadline at the given prompt length (Takeaway #6).
func (d *Deployment) MaxTokensWithin(promptTokens int, deadline time.Duration) int {
	return d.latency.MaxTokensWithin(promptTokens, deadline.Seconds())
}

// GenerationResult reports one simulated generation.
type GenerationResult struct {
	PromptTokens int
	OutputTokens int
	PrefillTime  float64 // seconds
	DecodeTime   float64
	Energy       float64 // joules
	AvgPower     float64 // watts
}

// TotalTime is the request's service time in seconds.
func (g GenerationResult) TotalTime() float64 { return g.PrefillTime + g.DecodeTime }

// Generate runs one request through the serving engine.
func (d *Deployment) Generate(promptTokens, outputTokens int) (GenerationResult, error) {
	m, err := d.engine.Generate(engine.Request{ID: label.API(), PromptTokens: promptTokens, OutputTokens: outputTokens})
	if err != nil {
		return GenerationResult{}, err
	}
	out := GenerationResult{
		PromptTokens: m.PromptTokens, OutputTokens: m.OutputTokens,
		PrefillTime: m.PrefillTime, DecodeTime: m.DecodeTime, Energy: m.Energy(),
	}
	if t := out.TotalTime(); t > 0 {
		out.AvgPower = out.Energy / t
	}
	return out, nil
}

// BatchResult reports a batched serving run.
type BatchResult struct {
	Requests int
	WallTime float64 // seconds, first admission to last completion
	Energy   float64 // joules
	Tokens   int     // prompt + generated
	UserTPS  float64 // mean per-request decode throughput
}

// ServeBatch runs n identical requests through the engine with continuous
// batching up to maxBatch concurrent decoders — the §III-B batching study
// (Table III compares batch 1 against batch 30).
func (d *Deployment) ServeBatch(n, promptTokens, outputTokens, maxBatch int) (BatchResult, error) {
	reqs := make([]engine.Request, n)
	for i := range reqs {
		reqs[i] = engine.Request{
			ID:           label.Batch(i),
			PromptTokens: promptTokens,
			OutputTokens: outputTokens,
		}
	}
	b, err := d.engine.Run(reqs, maxBatch)
	if err != nil {
		return BatchResult{}, err
	}
	return BatchResult{
		Requests: len(b.Requests),
		WallTime: b.WallTime,
		Energy:   b.TotalEnergy,
		Tokens:   b.TotalTokens,
		UserTPS:  b.UserTPS(),
	}, nil
}

// TimedRequest is an open-loop serving request (arrival time + optional
// absolute deadline on the simulated clock).
type TimedRequest = engine.TimedRequest

// Scheduling disciplines for Serve.
const (
	// FCFS serves in arrival order.
	FCFS = engine.FCFS
	// EDF serves earliest-deadline-first.
	EDF = engine.EDF
)

// ServeResult reports an open-loop serving run.
type ServeResult struct {
	Requests    int
	WallTime    float64
	Energy      float64
	P50Latency  float64
	P95Latency  float64
	P99Latency  float64
	MeanLatency float64
	HitRate     float64 // fraction of deadline-bearing requests served in time
}

// Serve runs an open-loop workload (Poisson or hand-built arrivals)
// through the engine with the given concurrency and scheduling policy.
func (d *Deployment) Serve(reqs []TimedRequest, maxBatch int, policy engine.SchedPolicy) (ServeResult, error) {
	m, err := d.engine.Serve(reqs, maxBatch, policy)
	if err != nil {
		return ServeResult{}, err
	}
	return ServeResult{
		Requests:    m.Served,
		WallTime:    m.WallTime,
		Energy:      m.TotalEnergy,
		P50Latency:  m.P50Latency,
		P95Latency:  m.P95Latency,
		P99Latency:  m.P99Latency,
		MeanLatency: m.MeanLatency,
		HitRate:     m.HitRate(),
	}, nil
}

// ReproductionAnchor is one paper-value-vs-measured comparison.
type ReproductionAnchor = experiments.Anchor

// VerifyReproduction measures the headline anchors of the reproduction
// against the paper's published values (the `verify` experiment).
func VerifyReproduction() ([]ReproductionAnchor, error) {
	return experiments.Scorecard(experiments.DefaultOptions())
}

// BenchmarkResult summarizes a benchmark evaluation.
type BenchmarkResult struct {
	Benchmark   Benchmark
	Policy      Policy
	SF          int
	Accuracy    float64
	MeanTokens  float64 // per question per branch
	MeanLatency float64 // modeled seconds per question
	Questions   int
}

// Evaluate runs the deployment's statistical twin over a benchmark with a
// token-control policy and optional parallel scaling (majority voting at
// sf > 1). Latency comes from the analytic model at mean lengths.
func (d *Deployment) Evaluate(bench Benchmark, pol Policy, sf int) (BenchmarkResult, error) {
	if sf < 1 {
		sf = 1
	}
	bank, err := data.Load(bench, d.platform.seed)
	if err != nil {
		return BenchmarkResult{}, err
	}
	tw := llm.NewTwin(d.spec, bank, d.platform.seed)
	res, err := tts.EvaluateBank(tw, bank, pol, sf)
	if err != nil {
		return BenchmarkResult{}, err
	}
	prompt := meanPromptTokens(bank)
	perBranch := res.MeanTokens / float64(sf)
	out := BenchmarkResult{
		Benchmark: bench, Policy: pol, SF: sf,
		Accuracy: res.Accuracy, MeanTokens: perBranch, Questions: res.Questions,
	}
	if sf == 1 {
		out.MeanLatency = d.latency.Total(prompt, int(perBranch+0.5))
	} else {
		dres := d.engine.SimDecodeProbe(prompt, int(res.MeanMaxTokens+0.5), sf)
		out.MeanLatency = d.latency.Prefill.Predict(prompt) + dres.Time
	}
	return out, nil
}

func meanPromptTokens(b *data.Bank) int {
	if b.Size() == 0 {
		return 1
	}
	sum := 0
	for _, q := range b.Questions {
		sum += q.PromptTokens
	}
	return sum / b.Size()
}

// PlanRecipe answers the paper's headline question: the highest-accuracy
// {model, control, scaling} recipe meeting a latency budget on a
// benchmark. ok is false when nothing fits.
func (p *Platform) PlanRecipe(bench Benchmark, budget time.Duration) (Recipe, bool, error) {
	planner, err := core.NewPlanner(p.device, bench, p.seed)
	if err != nil {
		return Recipe{}, false, err
	}
	return planner.Plan(budget.Seconds())
}

// PlanRecipeWithEnergy is PlanRecipe with an additional per-question
// energy budget in joules (0 disables the constraint) — the planning mode
// for battery-constrained deployments.
func (p *Platform) PlanRecipeWithEnergy(bench Benchmark, budget time.Duration, energyJoules float64) (Recipe, bool, error) {
	planner, err := core.NewPlanner(p.device, bench, p.seed)
	if err != nil {
		return Recipe{}, false, err
	}
	return planner.PlanWithEnergy(budget.Seconds(), energyJoules)
}

// Frontier returns the accuracy-latency Pareto frontier over all
// calibrated recipes for a benchmark.
func (p *Platform) Frontier(bench Benchmark) ([]Recipe, error) {
	planner, err := core.NewPlanner(p.device, bench, p.seed)
	if err != nil {
		return nil, err
	}
	cands, err := planner.Candidates()
	if err != nil {
		return nil, err
	}
	return core.ParetoFrontier(cands), nil
}

// Recipes enumerates every calibrated recipe for a benchmark (the raw
// candidate grid behind Figs 6–8).
func (p *Platform) Recipes(bench Benchmark) ([]Recipe, error) {
	planner, err := core.NewPlanner(p.device, bench, p.seed)
	if err != nil {
		return nil, err
	}
	return planner.Candidates()
}

// EdgeCost bills a workload at the paper's rates ($0.15/kWh electricity,
// $0.045/h amortized hardware) and returns $/1M tokens.
func EdgeCost(energyJoules, wallSeconds float64, tokens int) float64 {
	return cost.Bill(cost.PaperRates(), energyJoules, wallSeconds, tokens).PerMillionTokens()
}

// RunExperiment executes one paper artifact by ID (see ExperimentIDs).
func RunExperiment(id string) ([]Table, error) {
	return experiments.Run(id, experiments.DefaultOptions())
}

// RunExperimentQuick is RunExperiment with subsampled banks, for smoke
// tests and demos.
func RunExperimentQuick(id string) ([]Table, error) {
	return experiments.Run(id, experiments.Options{Seed: DefaultSeed, Quick: true})
}

// ExperimentIDs lists every reproducible table/figure driver.
func ExperimentIDs() []string { return experiments.IDs() }

// Version identifies the library release.
const Version = "1.0.0"
