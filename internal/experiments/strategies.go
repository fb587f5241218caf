package experiments

import (
	"fmt"

	"edgereasoning/internal/control"
	"edgereasoning/internal/core"
	"edgereasoning/internal/cost"
	"edgereasoning/internal/data"
	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
)

// gridCandidates runs the planner once over MMLU-Redux: the full
// (model × config) strategy grid behind Figs 6–8 and Tables X/XI.
func gridCandidates(opts Options) ([]core.Candidate, error) {
	p, err := core.NewPlanner(hw.JetsonAGXOrin64GB(), data.MMLURedux, opts.Seed)
	if err != nil {
		return nil, err
	}
	return p.Candidates()
}

// fig1Tradeoff reproduces Fig 1: the discrete accuracy-latency scatter of
// unconstrained model choices.
func fig1Tradeoff(opts Options) ([]Table, error) {
	cands, err := gridCandidates(opts)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID: "fig1", Title: "Discrete accuracy-latency tradeoffs (Base and Direct configurations)",
		Columns: []string{"model", "config", "latency_s", "accuracy_pct"},
	}
	for _, c := range cands {
		if (c.Policy.Kind == control.Base || c.Policy.Kind == control.Direct) && c.SF == 1 {
			t.AddRow(string(c.Model), c.Policy.Label(), f2(c.Latency), pct(c.Accuracy))
		}
	}
	return []Table{t}, nil
}

// table2ModelComparison reproduces Table II: reasoning vs non-reasoning
// models on 150 MMLU-Redux questions, end to end through the engine.
func table2ModelComparison(opts Options) ([]Table, error) {
	bank := data.MustLoad(data.MMLURedux, opts.Seed).Subsample(150)
	t := Table{
		ID: "table2", Title: "Lightweight reasoning vs non-reasoning models, 150 MMLU-Redux questions",
		Columns: []string{"model", "acc_pct", "time_s", "tps", "perf_per_w", "energy_j_per_q"},
	}
	type entry struct {
		id  model.ID
		pol control.Policy
	}
	lineup := []entry{
		{model.Gemma7Bit, control.DirectAnswer()},
		{model.Llama31_8Bit, control.DirectAnswer()},
		{model.Qwen25_7Bit, control.DirectAnswer()},
		{model.DSR1Qwen1_5B, control.BasePolicy()},
		{model.DSR1Llama8B, control.BasePolicy()},
		{model.DSR1Qwen14B, control.BasePolicy()},
	}
	for _, e := range lineup {
		spec := model.MustLookup(e.id)
		eng, err := engine.New(engine.Config{Spec: spec, Device: hw.JetsonAGXOrin64GB()})
		if err != nil {
			return nil, err
		}
		cell, err := llm.NewTwin(spec, bank, opts.Seed).Cell(e.pol)
		if err != nil {
			return nil, err
		}
		var correct, tokens int
		var time, energy float64
		for _, q := range bank.Questions {
			g := cell.Generate(q)
			m, err := eng.Generate(engine.Request{
				ID: label.Question(q.Index), PromptTokens: q.PromptTokens, OutputTokens: g.OutputTokens,
			})
			if err != nil {
				return nil, err
			}
			if g.Correct {
				correct++
			}
			tokens += g.OutputTokens
			time += m.TotalTime()
			energy += m.Energy()
		}
		n := float64(bank.Size())
		tps := float64(tokens) / time
		avgPower := energy / time
		t.AddRow(spec.DisplayName, f1(float64(correct)/n*100), f1(time/n),
			f1(tps), f2(tps/avgPower), f1(energy/n))
	}
	return []Table{t}, nil
}

// table3EdgeVsCloud reproduces Table III and the §III-B cost derivation:
// DeepScaleR-1.5B on AIME2024, single-batch vs batch-30, against cloud
// API pricing.
func table3EdgeVsCloud(opts Options) ([]Table, error) {
	bank := data.MustLoad(data.AIME2024, opts.Seed)
	spec := model.MustLookup(model.DeepScaleR1_5)
	cell, err := llm.NewTwin(spec, bank, opts.Seed).Cell(control.BasePolicy())
	if err != nil {
		return nil, err
	}
	var reqs []engine.Request
	totalOut := 0
	for _, q := range bank.Questions {
		g := cell.Generate(q)
		reqs = append(reqs, engine.Request{
			ID: label.AIME(q.Index), PromptTokens: q.PromptTokens, OutputTokens: g.OutputTokens,
		})
		totalOut += g.OutputTokens
	}
	run := func(batch int) (engine.BatchMetrics, error) {
		eng, err := engine.New(engine.Config{Spec: spec, Device: hw.JetsonAGXOrin64GB()})
		if err != nil {
			return engine.BatchMetrics{}, err
		}
		cp := make([]engine.Request, len(reqs))
		copy(cp, reqs)
		return eng.Run(cp, batch)
	}
	b1, err := run(1)
	if err != nil {
		return nil, err
	}
	b30, err := run(30)
	if err != nil {
		return nil, err
	}
	rates := cost.PaperRates()
	bill1 := cost.Bill(rates, b1.TotalEnergy, b1.WallTime, b1.TotalTokens)
	bill30 := cost.Bill(rates, b30.TotalEnergy, b30.WallTime, b30.TotalTokens)
	beh := llm.MustCalibrated(spec.ID, data.AIME2024, "base")

	t := Table{
		ID: "table3", Title: "Costs of reasoning LLM deployments (AIME2024, DeepScaleR-1.5B on Orin)",
		Columns: []string{"metric", "o1-preview (cloud)", "deepscaler b=1", "deepscaler b=30"},
		Notes: []string{
			"paper measures 195,624 tokens / 4,358 s / $0.302 per 1M (b=1) and 398 s / $0.027 per 1M (b=30)",
		},
	}
	o1 := cost.PaperCloudPrices()[0]
	t.AddRow("accuracy_aime2024_pct", "40.0", f1(beh.Accuracy*100), f1(beh.Accuracy*100))
	t.AddRow("tokens_processed", "-", di(b1.TotalTokens), di(b30.TotalTokens))
	t.AddRow("wall_time_s", "-", f1(b1.WallTime), f1(b30.WallTime))
	t.AddRow("user_tps", f1(o1.UserTPS), f1(b1.UserTPS()), f1(b30.UserTPS()))
	t.AddRow("avg_power_w", "-", f1(b1.AvgPower()), f1(b30.AvgPower()))
	t.AddRow("price_output_per_1M", f2(o1.OutputPerMillion), f3(bill1.PerMillionTokens()), f3(bill30.PerMillionTokens()))
	t.AddRow("energy_component_per_1M", "-", f4(bill1.EnergyPerMillionTokens()), f4(bill30.EnergyPerMillionTokens()))
	t.AddRow("hardware_component_per_1M", "-", f4(bill1.HardwarePerMillionTokens()), f4(bill30.HardwarePerMillionTokens()))
	return []Table{t}, nil
}

// strategyFigure renders one of Figs 6/7/8: accuracy against the chosen
// x metric for every (model, config) point, split by panel the way the
// paper splits soft/hard/no-reasoning.
func strategyFigure(opts Options, id, title, xCol string, x func(core.Candidate) string) ([]Table, error) {
	cands, err := gridCandidates(opts)
	if err != nil {
		return nil, err
	}
	panels := []struct {
		suffix string
		keep   func(control.Policy) bool
	}{
		{"a", func(p control.Policy) bool { return p.Kind == control.Base || p.Kind == control.Soft }},
		{"b", func(p control.Policy) bool { return p.Kind == control.Base || p.Kind == control.Hard }},
		{"c", func(p control.Policy) bool {
			return p.Kind == control.Base || p.Kind == control.NoReason || p.Kind == control.Direct
		}},
	}
	var out []Table
	for _, panel := range panels {
		t := Table{
			ID: id + panel.suffix, Title: title + " (panel " + panel.suffix + ")",
			Columns: []string{"model", "config", xCol, "accuracy_pct"},
		}
		for _, c := range cands {
			if c.SF != 1 || !panel.keep(c.Policy) {
				continue
			}
			if c.Policy.Kind == control.Hard && c.Policy.Budget > 256 {
				continue // hard-512 is a Fig 9 anchor, not in Figs 6-8
			}
			t.AddRow(string(c.Model), c.Policy.Label(), x(c), pct(c.Accuracy))
		}
		out = append(out, t)
	}
	return out, nil
}

func figAccuracyVsTokens(opts Options) ([]Table, error) {
	return strategyFigure(opts, "fig6", "Accuracy vs average output tokens", "avg_tokens",
		func(c core.Candidate) string { return f1(c.MeanTokens) })
}

func figAccuracyVsLatency(opts Options) ([]Table, error) {
	return strategyFigure(opts, "fig7", "Accuracy vs latency", "latency_s",
		func(c core.Candidate) string { return f2(c.Latency) })
}

func figAccuracyVsCost(opts Options) ([]Table, error) {
	return strategyFigure(opts, "fig8", "Accuracy vs cost per 1M tokens", "cost_per_1M",
		func(c core.Candidate) string { return f3(c.CostPerM) })
}

// table10BaseGrid reproduces Table X: base, quantized, and direct rows.
func table10BaseGrid(opts Options) ([]Table, error) {
	cands, err := gridCandidates(opts)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID: "table10", Title: "MMLU-Redux: Base, Quantized (W4), and Direct configurations",
		Columns: []string{"family", "model", "acc_pct", "avg_toks", "latency_s", "cost_per_1M"},
	}
	for _, c := range cands {
		if c.SF != 1 {
			continue
		}
		var family string
		switch {
		case c.Policy.Kind == control.Direct:
			family = "Direct"
		case c.Policy.Kind == control.Base && model.MustLookup(c.Model).IsQuantized():
			family = "Quantized"
		case c.Policy.Kind == control.Base:
			family = "Base"
		default:
			continue
		}
		t.AddRow(family, c.Display, pct(c.Accuracy), f1(c.MeanTokens), f2(c.Latency), f3(c.CostPerM))
	}
	return []Table{t}, nil
}

// table11BudgetGrid reproduces Table XI: budgeted decoding rows.
func table11BudgetGrid(opts Options) ([]Table, error) {
	cands, err := gridCandidates(opts)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID: "table11", Title: "MMLU-Redux: budgeted decoding (hard/soft/NR)",
		Columns: []string{"model", "budget_type", "config", "acc_pct", "avg_toks", "latency_s", "cost_per_1M"},
	}
	for _, c := range cands {
		if c.SF != 1 {
			continue
		}
		var btype string
		switch c.Policy.Kind {
		case control.Soft:
			btype = "Soft"
		case control.Hard:
			btype = "Hard"
		case control.NoReason:
			btype = "NR"
		default:
			continue
		}
		if c.Policy.Kind == control.Hard && c.Policy.Budget > 256 {
			continue
		}
		t.AddRow(c.Display, btype, c.Policy.Label(), pct(c.Accuracy), f1(c.MeanTokens), f2(c.Latency), f3(c.CostPerM))
	}
	return []Table{t}, nil
}

// paretoRegimes reproduces the §V-A frontier analysis: the Pareto set and
// the three operating regimes.
func paretoRegimes(opts Options) ([]Table, error) {
	cands, err := gridCandidates(opts)
	if err != nil {
		return nil, err
	}
	front := core.ParetoFrontier(cands)
	ft := Table{
		ID: "pareto", Title: "Accuracy-latency Pareto frontier (MMLU-Redux)",
		Columns: []string{"recipe", "latency_s", "accuracy_pct", "cost_per_1M"},
	}
	for _, c := range front {
		ft.AddRow(c.Label(), f2(c.Latency), pct(c.Accuracy), f3(c.CostPerM))
	}
	rt := Table{
		ID: "regimes", Title: "Operating regimes (paper: <5s -> 1.5B only; 15-30s -> non-reasoning 8B; >30s -> DSR1-Qwen-14B)",
		Columns: []string{"regime", "best_recipe", "accuracy_pct", "latency_s"},
	}
	for _, r := range core.RegimesOf(cands, []float64{5, 30}) {
		if r.Found {
			bound := fmt.Sprintf(">%.0fs", r.MinLatency)
			if r.MaxLatency > 0 {
				bound = fmt.Sprintf("%.0f-%.0fs", r.MinLatency, r.MaxLatency)
			}
			rt.AddRow(bound, r.Best.Label(), pct(r.Best.Accuracy), f2(r.Best.Latency))
		}
	}
	return []Table{ft, rt}, nil
}
