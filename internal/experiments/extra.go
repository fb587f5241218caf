package experiments

import (
	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/engine"
	"edgereasoning/internal/frameworks"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
)

func init() {
	register("table12", table12MMLU15k)
	register("naturalplan", naturalPlan)
}

// frameworkProfiles and engine helpers shared with the Table IX driver.
func frameworkProfiles() []engine.Overhead { return frameworks.Profiles() }

func engineWithProfile(o engine.Overhead) (*engine.Engine, error) {
	return engine.New(engine.Config{
		Spec:      model.MustLookup(model.DSR1Llama8B),
		Device:    hw.JetsonAGXOrin64GB(),
		Framework: o,
	})
}

func engineRequest(in, out int) engine.Request {
	return engine.Request{ID: "bench", PromptTokens: in, OutputTokens: out}
}

// evalCell runs a twin over a bank and returns (accuracy, mean tokens).
func evalCell(id model.ID, bank *data.Bank, sub *data.Bank, pol control.Policy, seed uint64) (float64, float64, error) {
	spec, err := model.Lookup(id)
	if err != nil {
		return 0, 0, err
	}
	cell, err := llm.NewTwin(spec, bank, seed).Cell(pol)
	if err != nil {
		return 0, 0, err
	}
	correct, tokens := 0, 0
	for _, q := range sub.Questions {
		g := cell.Generate(q)
		if g.Correct {
			correct++
		}
		tokens += g.OutputTokens
	}
	n := float64(sub.Size())
	return float64(correct) / n, float64(tokens) / n, nil
}

// table12MMLU15k reproduces Table XII: the 15k-question MMLU grid of
// base, budgeted, and quantized DSR1 models.
func table12MMLU15k(opts Options) ([]Table, error) {
	bank := data.MustLoad(data.MMLU, opts.Seed)
	sub := bank.Subsample(opts.sample(bank.Size()))
	t := Table{
		ID: "table12", Title: "MMLU (15k questions): base, budgeted, and W4-quantized DSR1 models",
		Columns: []string{"model", "configuration", "acc_pct", "avg_toks"},
	}
	type row struct {
		id    model.ID
		pol   control.Policy
		label string
	}
	var rows []row
	for _, base := range []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B} {
		w4 := base + "-w4"
		rows = append(rows,
			row{base, control.BasePolicy(), "Base"},
			row{base, control.HardLimit(128), "Budget 128T"},
			row{base, control.HardLimit(256), "Budget 256T"},
			row{w4, control.BasePolicy(), "LLMC-AWQ-W4"},
			row{w4, control.HardLimit(128), "W4 Budget 128T"},
			row{w4, control.HardLimit(256), "W4 Budget 256T"},
		)
	}
	for _, r := range rows {
		acc, toks, err := evalCell(r.id, bank, sub, r.pol, opts.Seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(r.id), r.label, pct(acc), f1(toks))
	}
	return []Table{t}, nil
}

// naturalPlan reproduces Tables XIII-XV: the three Natural-Plan tasks
// under base reasoning, NR+512T budgeting, and direct Qwen2.5 models,
// with engine-timed latency.
func naturalPlan(opts Options) ([]Table, error) {
	baseline := Table{
		ID: "table13", Title: "Natural-Plan: baseline reasoning models",
		Columns: []string{"task", "model", "acc_pct", "avg_toks", "latency_h100_s"},
		Notes: []string{
			"latency is H100-timed: the paper's artifact runs Natural-Plan on server hosts ('make planner'), which is why its Table XIII latencies are ~10x below Orin decode rates",
		},
	}
	budget := Table{
		ID: "table14", Title: "Natural-Plan: budgeting (NR + hard limit at 512)",
		Columns: []string{"task", "model", "acc_pct", "avg_toks", "latency_h100_s"},
	}
	direct := Table{
		ID: "table15", Title: "Natural-Plan: direct models (Qwen2.5)",
		Columns: []string{"task", "model", "acc_pct", "avg_toks", "latency_h100_s"},
	}
	addRows := func(t *Table, ids []model.ID, pol control.Policy) error {
		for _, task := range data.NaturalPlanTasks() {
			bank := data.MustLoad(task, opts.Seed)
			sub := bank.Subsample(opts.sample(bank.Size()))
			for _, id := range ids {
				if _, ok := llm.Calibrated(id, task, pol.Key()); !ok {
					continue
				}
				acc, toks, err := evalCell(id, bank, sub, pol, opts.Seed)
				if err != nil {
					return err
				}
				spec := model.MustLookup(id)
				// Natural-Plan ran on server hosts in the paper's artifact.
				eng, err := engine.New(engine.Config{Spec: spec, Device: hw.H100SXM()})
				if err != nil {
					return err
				}
				prompt := meanPrompt(sub)
				m, err := eng.Generate(engine.Request{ID: "np", PromptTokens: prompt, OutputTokens: int(toks + 0.5)})
				if err != nil {
					return err
				}
				t.AddRow(string(task), string(id), pct(acc), f1(toks), f2(m.TotalTime()))
			}
		}
		return nil
	}
	reasoning := []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B}
	if err := addRows(&baseline, reasoning, control.BasePolicy()); err != nil {
		return nil, err
	}
	if err := addRows(&budget, reasoning, control.HardLimit(512)); err != nil {
		return nil, err
	}
	if err := addRows(&direct, []model.ID{model.Qwen25_1_5Bit, model.Qwen25_14Bit}, control.DirectAnswer()); err != nil {
		return nil, err
	}
	return []Table{baseline, budget, direct}, nil
}

func meanPrompt(b *data.Bank) int {
	if b.Size() == 0 {
		return 1
	}
	sum := 0
	for _, q := range b.Questions {
		sum += q.PromptTokens
	}
	return sum / b.Size()
}
