package experiments

import (
	"edgereasoning/internal/core"
	"edgereasoning/internal/data"
	"edgereasoning/internal/frameworks"
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
	"edgereasoning/internal/quant"
)

// quantSuite reproduces the §V-F quantization study: Figs 11–13 (latency,
// power, energy sweeps for the W4 models), Fig 14 (base-vs-W4 accuracy,
// tokens, latency), and Tables XVIII/XIX (sweep aggregates), plus the
// fitted W4 decode model parameters (Tables XXII/XXIII analogue).
func quantSuite(opts Options) ([]Table, error) {
	d := hw.JetsonAGXOrin64GB()
	sim := gpusim.New(d)
	meter := power.NewMeter(d)

	fig11 := Table{
		ID: "fig11", Title: "Quantized (W4) prefill and decode latency vs sequence length",
		Columns: []string{"model", "phase", "length", "latency_s"},
	}
	fig1213 := Table{
		ID: "fig12_13", Title: "Quantized (W4) power and energy/token by phase",
		Columns: []string{"model", "phase", "length", "power_w", "energy_j_per_tok"},
	}
	t18 := Table{
		ID: "table18", Title: "Prefill performance: base vs quantized (sweep [128,4096])",
		Columns: []string{"model", "variant", "time_s", "ktok_per_s", "power_w"},
	}
	t19 := Table{
		ID: "table19", Title: "Decode performance: base vs quantized (input 512, sweep [128,2048])",
		Columns: []string{"model", "variant", "time_s", "tok_per_s", "power_w"},
	}
	fig14 := Table{
		ID: "fig14", Title: "Base FP16 vs quantized W4: accuracy, tokens, latency",
		Columns: []string{"model", "variant", "acc_pct", "avg_toks", "latency_s", "decode_speedup"},
	}
	t23 := Table{
		ID: "table23", Title: "Fitted decode power/energy parameters, quantized models",
		Columns: []string{"model", "power_alpha", "power_beta", "energy_alpha", "energy_beta"},
	}

	for _, spec := range model.DSR1Family() {
		q := spec.Quantized()
		for _, n := range []int{512, 1024, 2048, 4096} {
			res := sim.Prefill(q.Arch, q.DType, n, 1)
			fig11.AddRow(string(q.ID), "prefill", di(n), f3(res.Time))
			fig1213.AddRow(string(q.ID), "prefill", di(n), f1(meter.ObservedPower(res)), f4(meter.EnergyPerToken(res)))
		}
		for _, o := range []int{128, 512, 1024, 2048} {
			res := sim.DecodeRun(q.Arch, q.DType, 512, o, 1)
			fig11.AddRow(string(q.ID), "decode", di(o), f2(res.Time))
			fig1213.AddRow(string(q.ID), "decode", di(o), f1(meter.Power(res)), f3(meter.EnergyPerToken(res)))
		}

		cmp, err := quant.Compare(sim, meter, spec, data.MMLURedux)
		if err != nil {
			return nil, err
		}
		t18.AddRow(string(spec.ID), "base", f2(cmp.BasePrefill.MeanTime), f1(cmp.BasePrefill.TokPerSec/1000), f1(cmp.BasePrefill.MeanPower))
		t18.AddRow(string(spec.ID), "awq-w4", f2(cmp.QuantPrefill.MeanTime), f1(cmp.QuantPrefill.TokPerSec/1000), f1(cmp.QuantPrefill.MeanPower))
		t19.AddRow(string(spec.ID), "base", f2(cmp.BaseDecode.MeanTime), f1(cmp.BaseDecode.TokPerSec), f1(cmp.BaseDecode.MeanPower))
		t19.AddRow(string(spec.ID), "awq-w4", f2(cmp.QuantDecode.MeanTime), f1(cmp.QuantDecode.TokPerSec), f1(cmp.QuantDecode.MeanPower))

		if cmp.HaveAccuracy {
			baseLat := sim.Prefill(spec.Arch, spec.DType, 180, 1).Time +
				sim.DecodeRun(spec.Arch, spec.DType, 180, int(cmp.BaseTokens), 1).Time
			quantLat := sim.Prefill(q.Arch, q.DType, 180, 1).Time +
				sim.DecodeRun(q.Arch, q.DType, 180, int(cmp.QuantTokens), 1).Time
			fig14.AddRow(string(spec.ID), "fp16", pct(cmp.BaseAccuracy), f1(cmp.BaseTokens), f2(baseLat), "1.0")
			fig14.AddRow(string(spec.ID), "w4", pct(cmp.QuantAccuracy), f1(cmp.QuantTokens), f2(quantLat), f2(cmp.DecodeSpeedup()))
		}

		dp, err := core.FitDecodePower(sim, meter, q.Arch, q.DType)
		if err != nil {
			return nil, err
		}
		de, err := core.FitDecodeEnergy(sim, meter, q.Arch, q.DType)
		if err != nil {
			return nil, err
		}
		pa, pb := logLinearTerms(dp.Curve.High)
		ea, eb := logLinearTerms(de.Curve.High)
		t23.AddRow(string(q.ID), f3(pa), f3(pb), f4(ea), f4(eb))
	}
	return []Table{fig11, fig1213, t18, t19, fig14, t23}, nil
}

// table9Frameworks reproduces Table IX: inference-engine latency
// comparison on DSR1-Llama-8B.
func table9Frameworks(opts Options) ([]Table, error) {
	t := Table{
		ID: "table9", Title: "Inference engine comparison, DSR1-Llama-8B (paper: vLLM 1.11-1.13x over HFT, ~parity with TRT-LLM)",
		Columns: []string{"input_len", "output_len", "hft_s", "vllm_s", "trt_s", "vllm_speedup_vs_hft"},
	}
	combos := [][2]int{{16, 128}, {64, 128}, {128, 128}}
	for _, combo := range combos {
		times := map[string]float64{}
		for _, profile := range frameworks.Profiles() {
			eng, err := engineWithProfile(profile)
			if err != nil {
				return nil, err
			}
			m, err := eng.Generate(engineRequest(combo[0], combo[1]))
			if err != nil {
				return nil, err
			}
			times[profile.Name] = m.TotalTime()
		}
		t.AddRow(di(combo[0]), di(combo[1]),
			f2(times["HFT"]), f2(times["vLLM"]), f2(times["TRT-LLM"]),
			f2(times["HFT"]/times["vLLM"]))
	}
	return []Table{t}, nil
}
