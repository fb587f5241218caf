package experiments

import (
	"edgereasoning/internal/control"
	"edgereasoning/internal/cost"
	"edgereasoning/internal/data"
	"edgereasoning/internal/engine"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
)

// ablationSpeculative explores §VI's speculative-decoding opportunity:
// the 1.5B distill drafting for the 8B and 14B targets, swept over draft
// length γ and acceptance rate α.
func ablationSpeculative(opts Options) ([]Table, error) {
	sim := gpusim.New(hw.JetsonAGXOrin64GB())
	draft := model.MustLookup(model.DSR1Qwen1_5B)
	t := Table{
		ID: "specdec", Title: "Speculative decoding ablation (DSR1-Qwen-1.5B drafting, 1024 tokens @512 ctx)",
		Columns: []string{"target", "gamma", "accept_rate", "tokens_per_iter", "tbt_ms", "speedup"},
		Notes:   []string{"a §VI future-work optimization; the paper does not measure it"},
	}
	for _, targetID := range []model.ID{model.DSR1Llama8B, model.DSR1Qwen14B} {
		target := model.MustLookup(targetID)
		for _, gamma := range []int{2, 4, 8} {
			for _, alpha := range []float64{0.5, 0.7, 0.9} {
				cfg := gpusim.SpeculativeConfig{
					Draft: draft.Arch, DraftDType: draft.DType,
					Gamma: gamma, AcceptRate: alpha,
				}
				res, speedup := sim.DecodeRunSpeculative(target.Arch, target.DType, cfg, 512, 1024)
				t.AddRow(string(targetID), di(gamma), f2(alpha),
					f2(cfg.ExpectedTokensPerIteration()),
					f1(res.Time/float64(res.Tokens)*1000), f2(speedup))
			}
		}
	}
	return []Table{t}, nil
}

// ablationHostOffload explores §VI's heterogeneous-computing opportunity:
// hiding per-launch host overhead by overlapping lightweight kernels with
// GPU matmuls on the ≤20%-utilized CPU complex.
func ablationHostOffload(opts Options) ([]Table, error) {
	t := Table{
		ID: "offload", Title: "Host-offload overlap ablation: decode TBT vs hidden launch overhead",
		Columns: []string{"model", "overlap", "tbt_ms", "tbt_reduction_pct"},
		Notes:   []string{"§VI: 'further latency reductions can be unlocked by offloading lightweight graph kernels to the host CPU'"},
	}
	for _, spec := range model.DSR1Family() {
		base := 0.0
		for _, overlap := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			sim := gpusim.New(hw.JetsonAGXOrin64GB())
			sim.HostOverlap = overlap
			tbt := sim.TBT(spec.Arch, spec.DType, 512)
			if overlap == 0 {
				base = tbt
			}
			t.AddRow(string(spec.ID), f2(overlap), f1(tbt*1000), f1((base-tbt)/base*100))
		}
	}
	return []Table{t}, nil
}

// ablationPowerModes sweeps the Jetson's configurable power envelopes
// (15W/30W/50W/MAXN): the paper runs everything in MAXN; this ablation
// shows the latency/energy frontier the other modes trade along.
func ablationPowerModes(opts Options) ([]Table, error) {
	t := Table{
		ID: "powermodes", Title: "Power-mode ablation: 512-token decode at 512-token input",
		Columns: []string{"model", "mode", "tbt_ms", "decode_s", "avg_power_w", "energy_j_per_tok"},
	}
	base := hw.JetsonAGXOrin64GB()
	for _, spec := range model.DSR1Family() {
		for _, mode := range hw.OrinPowerModes() {
			dev := hw.ApplyPowerMode(base, mode)
			sim := gpusim.New(dev)
			meter := power.NewMeter(dev)
			res := sim.DecodeRun(spec.Arch, spec.DType, 512, 512, 1)
			t.AddRow(string(spec.ID), mode.Name,
				f1(res.Time/float64(res.Tokens)*1000), f1(res.Time),
				f1(meter.Power(res)), f3(meter.EnergyPerToken(res)))
		}
	}
	return []Table{t}, nil
}

// ablationBatchSweep extends the Table III insight ("edge deployment
// costs also benefit from batching and increased QPS"): the AIME workload
// at batch sizes 1..64.
func ablationBatchSweep(opts Options) ([]Table, error) {
	bank := data.MustLoad(data.AIME2024, opts.Seed)
	spec := model.MustLookup(model.DeepScaleR1_5)
	cell, err := llm.NewTwin(spec, bank, opts.Seed).Cell(control.BasePolicy())
	if err != nil {
		return nil, err
	}
	var reqs []engine.Request
	for _, q := range bank.Questions {
		g := cell.Generate(q)
		reqs = append(reqs, engine.Request{
			ID: label.Question(q.Index), PromptTokens: q.PromptTokens, OutputTokens: g.OutputTokens,
		})
		// Duplicate the bank to give large batches enough work.
		reqs = append(reqs, engine.Request{
			ID: label.QuestionBatch(q.Index), PromptTokens: q.PromptTokens, OutputTokens: g.OutputTokens,
		})
	}
	t := Table{
		ID: "batchsweep", Title: "Batch-size sweep: AIME workload on DeepScaleR-1.5B",
		Columns: []string{"batch", "wall_s", "user_tps", "agg_tps", "avg_power_w", "usd_per_1M"},
	}
	rates := cost.PaperRates()
	for _, batch := range []int{1, 2, 4, 8, 16, 30, 64} {
		eng, err := engine.New(engine.Config{Spec: spec, Device: hw.JetsonAGXOrin64GB()})
		if err != nil {
			return nil, err
		}
		cp := make([]engine.Request, len(reqs))
		copy(cp, reqs)
		b, err := eng.Run(cp, batch)
		if err != nil {
			return nil, err
		}
		bill := cost.Bill(rates, b.TotalEnergy, b.WallTime, b.TotalTokens)
		aggTPS := float64(b.OutputTokens()) / b.WallTime
		t.AddRow(di(batch), f1(b.WallTime), f1(b.UserTPS()), f1(aggTPS),
			f1(b.AvgPower()), f3(bill.PerMillionTokens()))
	}
	return []Table{t}, nil
}

// sequentialSaturation quantifies §V-C: where longer chains stop paying —
// ~300 tokens for the 1.5B-class and ~400 for the 8B/14B.
func sequentialSaturation(opts Options) ([]Table, error) {
	t := Table{
		ID: "saturation", Title: "Sequential-scaling saturation: tokens to reach 95% of peak accuracy (paper: ~300 for 1.5B-class, ~400 for 8B/14B)",
		Columns: []string{"model", "saturation_tokens", "peak_acc_pct", "acc_at_saturation_pct"},
	}
	for _, id := range []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B, model.L1Max} {
		curve, ok := llm.NaturalCurve(id, data.MMLURedux)
		if !ok {
			continue
		}
		sat := curve.SaturationTokens(0.05)
		peak := 0.0
		for _, p := range curve.Points {
			if p.Accuracy > peak {
				peak = p.Accuracy
			}
		}
		t.AddRow(string(id), f1(sat), pct(peak), pct(curve.At(sat)))
	}
	return []Table{t}, nil
}
