package experiments

import (
	"fmt"

	"edgereasoning/internal/control"
	"edgereasoning/internal/core"
	"edgereasoning/internal/cost"
	"edgereasoning/internal/data"
	"edgereasoning/internal/engine"
	"edgereasoning/internal/frameworks"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
	"edgereasoning/internal/tts"
)

// Anchor is one paper-reported value the reproduction is scored against.
type Anchor struct {
	Name     string
	Paper    float64
	Measured float64
	// TolFrac is the allowed relative deviation.
	TolFrac float64
}

// Pass reports whether the measured value is within tolerance.
func (a Anchor) Pass() bool {
	if a.Paper == 0 {
		return a.Measured == 0
	}
	dev := (a.Measured - a.Paper) / a.Paper
	if dev < 0 {
		dev = -dev
	}
	return dev <= a.TolFrac
}

// Scorecard measures the headline anchors of the reproduction and
// compares each against the paper's published value. It is the machine
// behind `edgereasoning run verify` and backs EXPERIMENTS.md.
func Scorecard(opts Options) ([]Anchor, error) {
	d := hw.JetsonAGXOrin64GB()
	sim := gpusim.New(d)
	meter := power.NewMeter(d)
	var anchors []Anchor
	add := func(name string, paper, measured, tol float64) {
		anchors = append(anchors, Anchor{Name: name, Paper: paper, Measured: measured, TolFrac: tol})
	}

	// §IV-A: decode TBT for the DSR1 trio.
	tbtPaper := map[model.ID]float64{model.DSR1Qwen1_5B: 0.024, model.DSR1Llama8B: 0.096, model.DSR1Qwen14B: 0.187}
	for _, spec := range model.DSR1Family() {
		add("tbt_"+string(spec.ID), tbtPaper[spec.ID], sim.TBT(spec.Arch, spec.DType, 512), 0.15)
	}

	// Table IV: prefill constant c for the 8B.
	pm, _, err := core.FitPrefillModel(sim, model.MustLookup(model.DSR1Llama8B).Arch, model.FP16, 2048)
	if err != nil {
		return nil, err
	}
	add("prefill_c_8b", 0.104, pm.C, 0.30)

	// Table VII: decode dominates >99.5% of reasoning latency (8B, base
	// lengths).
	a8 := model.MustLookup(model.DSR1Llama8B).Arch
	pre := sim.Prefill(a8, model.FP16, 180, 1)
	dec := sim.DecodeRun(a8, model.FP16, 180, 811, 1)
	add("decode_share_8b", 0.995, dec.Time/(pre.Time+dec.Time), 0.01)

	// Table XIX: decode power for the trio.
	powPaper := map[model.ID]float64{model.DSR1Qwen1_5B: 19.6, model.DSR1Llama8B: 24.4, model.DSR1Qwen14B: 26.5}
	for _, spec := range model.DSR1Family() {
		res := sim.DecodeRun(spec.Arch, spec.DType, 512, 1024, 1)
		add("decode_power_"+string(spec.ID), powPaper[spec.ID], meter.Power(res), 0.20)
	}

	// Table XIX: W4 decode speedups.
	spdPaper := map[model.ID]float64{model.DSR1Qwen1_5B: 2.0, model.DSR1Llama8B: 2.9, model.DSR1Qwen14B: 3.1}
	for _, spec := range model.DSR1Family() {
		base := sim.DecodeRun(spec.Arch, model.FP16, 512, 1024, 1).Time
		w4 := sim.DecodeRun(spec.Arch, model.W4A16, 512, 1024, 1).Time
		add("w4_decode_speedup_"+string(spec.ID), spdPaper[spec.ID], base/w4, 0.20)
	}

	// Table X: Base accuracy of the strategy grid (twin sampling). An
	// ordered slice, not a map: row order must be byte-stable run to run.
	bank := data.MustLoad(data.MMLURedux, opts.Seed)
	accPaper := []struct {
		id   model.ID
		want float64
	}{
		{model.DSR1Qwen1_5B, 0.383},
		{model.DSR1Llama8B, 0.617},
		{model.DSR1Qwen14B, 0.806},
		{model.L1Max, 0.438},
	}
	for _, a := range accPaper {
		cell, err := llm.NewTwin(model.MustLookup(a.id), bank, opts.Seed).Cell(control.BasePolicy())
		if err != nil {
			return nil, err
		}
		sub := bank.Subsample(opts.sample(bank.Size()))
		correct := 0
		for _, q := range sub.Questions {
			if cell.Generate(q).Correct {
				correct++
			}
		}
		add("acc_base_"+string(a.id), a.want, float64(correct)/float64(sub.Size()), 0.08)
	}

	// Fig 9a: parallel-scaling gain at the 128 budget, 14B, SF32.
	tw14 := llm.NewTwin(model.MustLookup(model.DSR1Qwen14B), bank, opts.Seed)
	sub := bank.Subsample(opts.sample(1200))
	rs, err := tts.Sweep(tw14, sub, control.HardLimit(128), []int{1, 32})
	if err != nil {
		return nil, err
	}
	add("fig9a_gain_14b_sf32", 1.65, rs[1].Accuracy/rs[0].Accuracy, 0.20)

	// Table III: edge serving cost per 1M tokens at batch 1 and 30.
	spec := model.MustLookup(model.DeepScaleR1_5)
	aime := data.MustLoad(data.AIME2024, opts.Seed)
	cellA, err := llm.NewTwin(spec, aime, opts.Seed).Cell(control.BasePolicy())
	if err != nil {
		return nil, err
	}
	var reqs []engine.Request
	for _, q := range aime.Questions {
		g := cellA.Generate(q)
		reqs = append(reqs, engine.Request{ID: label.Question(q.Index), PromptTokens: q.PromptTokens, OutputTokens: g.OutputTokens})
	}
	runBatch := func(batch int) (cost.Breakdown, error) {
		eng, err := engine.New(engine.Config{Spec: spec, Device: hw.JetsonAGXOrin64GB()})
		if err != nil {
			return cost.Breakdown{}, err
		}
		cp := make([]engine.Request, len(reqs))
		copy(cp, reqs)
		b, err := eng.Run(cp, batch)
		if err != nil {
			return cost.Breakdown{}, err
		}
		return cost.Bill(cost.PaperRates(), b.TotalEnergy, b.WallTime, b.TotalTokens), nil
	}
	b1, err := runBatch(1)
	if err != nil {
		return nil, err
	}
	b30, err := runBatch(30)
	if err != nil {
		return nil, err
	}
	add("cost_per_1M_b1", 0.302, b1.PerMillionTokens(), 0.25)
	add("cost_per_1M_b30", 0.027, b30.PerMillionTokens(), 0.25)

	// Table IX: vLLM speedup over HF Transformers.
	hft, err := engine.New(engine.Config{Spec: model.MustLookup(model.DSR1Llama8B), Device: hw.JetsonAGXOrin64GB(),
		Framework: frameworks.HFTransformers()})
	if err != nil {
		return nil, err
	}
	vllm, err := engine.New(engine.Config{Spec: model.MustLookup(model.DSR1Llama8B), Device: hw.JetsonAGXOrin64GB()})
	if err != nil {
		return nil, err
	}
	mh, err := hft.Generate(engine.Request{ID: label.Probe(), PromptTokens: 64, OutputTokens: 128})
	if err != nil {
		return nil, err
	}
	mv, err := vllm.Generate(engine.Request{ID: label.Probe(), PromptTokens: 64, OutputTokens: 128})
	if err != nil {
		return nil, err
	}
	add("vllm_speedup_vs_hft", 1.12, mh.TotalTime()/mv.TotalTime(), 0.05)

	return anchors, nil
}

// scorecard renders the anchors as the "verify" experiment.
func scorecard(opts Options) ([]Table, error) {
	anchors, err := Scorecard(opts)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID: "verify", Title: "Reproduction scorecard: paper anchors vs this build",
		Columns: []string{"anchor", "paper", "measured", "tolerance", "status"},
	}
	for _, a := range anchors {
		t.claim(a.Pass(), "ok", a.Name, f3(a.Paper), f3(a.Measured), fmt.Sprintf("±%.0f%%", a.TolFrac*100))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d/%d anchors within tolerance", len(anchors)-len(t.Failed), len(anchors)))
	return []Table{t}, nil
}
