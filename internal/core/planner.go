package core

import (
	"fmt"
	"sort"

	"edgereasoning/internal/control"
	"edgereasoning/internal/cost"
	"edgereasoning/internal/data"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
	"edgereasoning/internal/tts"
)

// Candidate is one deployable inference recipe with its predicted
// operating point: {model, token control, parallel scaling factor} →
// {accuracy, latency, energy, cost}.
type Candidate struct {
	Model   model.ID
	Display string
	Policy  control.Policy
	SF      int

	Accuracy   float64 // benchmark accuracy (fraction)
	MeanTokens float64 // output tokens per question per branch
	Latency    float64 // seconds per question (analytic model)
	EnergyPerQ float64 // joules per question
	CostPerM   float64 // $/1M tokens
	// Interpolated marks candidates resting on interpolated calibration.
	Interpolated bool
}

// Label renders the paper-style name, e.g. "DSR1-Qwen-14B 256T" or
// "DSR1-Llama-8B Base x8".
func (c Candidate) Label() string {
	s := fmt.Sprintf("%s %s", c.Display, c.Policy.Label())
	if c.SF > 1 {
		s += fmt.Sprintf(" x%d", c.SF)
	}
	return s
}

// Planner enumerates and prices candidate recipes for one benchmark on
// one device, using fitted latency models for speed (the paper's stated
// reason for building them: full-dataset measurement takes days, the
// analytic model answers in seconds).
type Planner struct {
	Device *hw.Device
	Bench  data.Benchmark
	Seed   uint64
	// SampleQuestions bounds the per-candidate accuracy simulation for
	// SF>1 recipes (default 600).
	SampleQuestions int
	// ScalingFactors lists parallel-scaling options to consider for
	// hard-budget recipes (default {1}).
	ScalingFactors []int
	// Rates prices the recipes (default PaperRates).
	Rates cost.Rates

	sim    *gpusim.Sim
	meter  *power.Meter
	bank   *data.Bank
	priced map[model.ID]pricedSpec
}

// pricedSpec is a spec's resolved cost model with the latency model
// fitted on it.
type pricedSpec struct {
	cost    *gpusim.CostModel
	latency LatencyModel
}

// NewPlanner builds a planner for a benchmark on a device.
func NewPlanner(device *hw.Device, bench data.Benchmark, seed uint64) (*Planner, error) {
	if err := device.Validate(); err != nil {
		return nil, err
	}
	bank, err := data.Load(bench, seed)
	if err != nil {
		return nil, err
	}
	return &Planner{
		Device:          device,
		Bench:           bench,
		Seed:            seed,
		SampleQuestions: 600,
		ScalingFactors:  []int{1},
		Rates:           cost.PaperRates(),
		sim:             gpusim.New(device),
		meter:           power.NewMeter(device),
		bank:            bank,
		priced:          map[model.ID]pricedSpec{},
	}, nil
}

// meanPromptTokens averages the bank's prompt lengths.
func (p *Planner) meanPromptTokens() int {
	if p.bank.Size() == 0 {
		return 0
	}
	sum := 0
	for _, q := range p.bank.Questions {
		sum += q.PromptTokens
	}
	return sum / p.bank.Size()
}

// resolved returns (resolving and fitting on first use) a spec's cost
// model and analytic latency model.
func (p *Planner) resolved(spec model.Spec) (pricedSpec, error) {
	if ps, ok := p.priced[spec.ID]; ok {
		return ps, nil
	}
	m := p.sim.Resolve(spec.Arch, spec.DType)
	lm, err := FitLatencyModel(m, spec.ID)
	if err != nil {
		return pricedSpec{}, err
	}
	ps := pricedSpec{cost: m, latency: lm}
	p.priced[spec.ID] = ps
	return ps, nil
}

// specsToConsider returns every catalog spec (and its quantized variant)
// that has any calibration on the benchmark.
func (p *Planner) specsToConsider() []model.Spec {
	var out []model.Spec
	for _, s := range model.All() {
		if len(llm.CalibratedConfigs(s.ID, p.Bench)) > 0 {
			out = append(out, s)
		}
		q := s.Quantized()
		if len(llm.CalibratedConfigs(q.ID, p.Bench)) > 0 {
			out = append(out, q)
		}
	}
	return out
}

// price fills a candidate's latency, energy, and cost from the analytic
// models and simulator.
func (p *Planner) price(spec model.Spec, c *Candidate) error {
	ps, err := p.resolved(spec)
	if err != nil {
		return err
	}
	prompt := p.meanPromptTokens()
	out := int(c.MeanTokens + 0.5)
	if out < 1 {
		out = 1
	}
	if c.SF <= 1 {
		c.Latency = ps.latency.Total(prompt, out)
	} else {
		// Parallel scaling: one prefill plus a batched decode run.
		dres := ps.cost.DecodeRun(prompt, out, c.SF)
		c.Latency = ps.latency.Prefill.Predict(prompt) + dres.Time
	}
	pres := ps.cost.Prefill(prompt)
	dres := ps.cost.DecodeRun(prompt, out, c.SF)
	c.EnergyPerQ = p.meter.Energy(pres) + p.meter.Energy(dres)
	tokens := prompt + out*c.SF
	// Figs 6-8 / Tables X-XI price recipes from energy measurements alone
	// ("average cost per million tokens derived from energy measurements",
	// §V); hardware amortization enters only the Table III deployment
	// economics.
	bill := cost.Bill(p.Rates, c.EnergyPerQ, 0, tokens)
	c.CostPerM = bill.PerMillionTokens()
	return nil
}

// Candidates enumerates every calibrated recipe: each (model, config)
// cell at SF=1, plus hard-budget cells at the configured scaling factors.
func (p *Planner) Candidates() ([]Candidate, error) {
	var out []Candidate
	for _, spec := range p.specsToConsider() {
		for _, key := range llm.CalibratedConfigs(spec.ID, p.Bench) {
			pol, err := control.ParseKey(key)
			if err != nil {
				return nil, err
			}
			beh, ok := llm.Calibrated(spec.ID, p.Bench, key)
			if !ok {
				continue
			}
			sfs := []int{1}
			if pol.Kind == control.Hard {
				sfs = p.ScalingFactors
			}
			for _, sf := range sfs {
				if sf < 1 {
					continue
				}
				c := Candidate{
					Model:        spec.ID,
					Display:      spec.DisplayName,
					Policy:       pol,
					SF:           sf,
					MeanTokens:   beh.MeanTokens,
					Interpolated: beh.Interpolated,
				}
				if sf == 1 {
					c.Accuracy = beh.Accuracy
				} else {
					acc, err := p.votedAccuracy(spec, pol, sf)
					if err != nil {
						return nil, err
					}
					c.Accuracy = acc
				}
				if err := p.price(spec, &c); err != nil {
					return nil, err
				}
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Latency < out[j].Latency })
	return out, nil
}

// votedAccuracy estimates majority-vote accuracy on a bank subsample.
func (p *Planner) votedAccuracy(spec model.Spec, pol control.Policy, sf int) (float64, error) {
	sub := p.bank.Subsample(p.SampleQuestions)
	tw := llm.NewTwin(spec, p.bank, p.Seed)
	res, err := tts.EvaluateBank(tw, sub, pol, sf)
	if err != nil {
		return 0, err
	}
	return res.Accuracy, nil
}

// Plan returns the highest-accuracy candidate whose modeled latency fits
// the budget (ties break toward lower latency). ok is false when nothing
// fits.
func (p *Planner) Plan(latencyBudget float64) (Candidate, bool, error) {
	cands, err := p.Candidates()
	if err != nil {
		return Candidate{}, false, err
	}
	return PickWithinBudget(cands, latencyBudget)
}

// PickWithinBudget selects from precomputed candidates.
func PickWithinBudget(cands []Candidate, latencyBudget float64) (Candidate, bool, error) {
	return PickWithinBudgets(cands, latencyBudget, 0)
}

// PickWithinBudgets selects the highest-accuracy candidate meeting both a
// latency budget and (when positive) a per-question energy budget in
// joules — the battery-constrained variant a mobile robot plans with.
func PickWithinBudgets(cands []Candidate, latencyBudget, energyBudget float64) (Candidate, bool, error) {
	best := Candidate{Accuracy: -1}
	found := false
	for _, c := range cands {
		if c.Latency > latencyBudget {
			continue
		}
		if energyBudget > 0 && c.EnergyPerQ > energyBudget {
			continue
		}
		if c.Accuracy > best.Accuracy || (c.Accuracy == best.Accuracy && c.Latency < best.Latency) {
			best = c
			found = true
		}
	}
	return best, found, nil
}

// PlanWithEnergy is Plan with an additional per-question energy budget
// (joules). A zero energy budget disables the constraint.
func (p *Planner) PlanWithEnergy(latencyBudget, energyBudget float64) (Candidate, bool, error) {
	cands, err := p.Candidates()
	if err != nil {
		return Candidate{}, false, err
	}
	return PickWithinBudgets(cands, latencyBudget, energyBudget)
}

// MaxTokensWithin exposes the latency-model inversion for a spec: the
// hard token budget that meets a latency target at this benchmark's mean
// prompt length. Combined with a budget-aware model like L1 this is
// Takeaway #6's deployment recipe.
func (p *Planner) MaxTokensWithin(spec model.Spec, latencyBudget float64) (int, error) {
	ps, err := p.resolved(spec)
	if err != nil {
		return 0, err
	}
	return ps.latency.MaxTokensWithin(p.meanPromptTokens(), latencyBudget), nil
}
