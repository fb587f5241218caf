package experiments

import (
	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

// rooflineAnalysis reproduces the §VI bandwidth-bound argument
// quantitatively: the Orin's FLOPs-to-bytes machine balance (~1375 for
// FP16 tensor ops against LPDDR5) versus the arithmetic intensity of each
// phase, classifying every (model, phase, batch) point as compute- or
// bandwidth-bound.
func rooflineAnalysis(opts Options) ([]Table, error) {
	d := hw.JetsonAGXOrin64GB()
	sim := gpusim.New(d)

	balance := Table{
		ID: "roofline_machine", Title: "Machine balance (paper §VI: ~1375 FLOP/byte for FP16 tensor ops)",
		Columns: []string{"quantity", "value"},
	}
	machineBalance := d.PeakFP16FLOPS / d.MemBandwidth
	balance.AddRow("peak_fp16_tflops", f1(d.PeakFP16FLOPS/1e12))
	balance.AddRow("mem_bandwidth_gbps", f1(d.MemBandwidth/1e9))
	balance.AddRow("machine_balance_flop_per_byte", f1(machineBalance))
	balance.AddRow("effective_balance_flop_per_byte", f1(d.EffectiveFP16FLOPS()/d.EffectiveBandwidth()))

	phases := Table{
		ID: "roofline_phases", Title: "Arithmetic intensity by phase (bound = compute when AI > machine balance)",
		Columns: []string{"model", "phase", "batch", "ai_flop_per_byte", "bound"},
	}
	classify := func(ai float64) string {
		if ai > machineBalance {
			return "compute"
		}
		return "bandwidth"
	}
	for _, spec := range model.DSR1Family() {
		pre := sim.Prefill(spec.Arch, spec.DType, 2048, 1)
		aiPre := pre.FLOPs / pre.Bytes
		phases.AddRow(string(spec.ID), "prefill@2048", "1", f1(aiPre), classify(aiPre))
		for _, batch := range []int{1, 8, 64} {
			dec := sim.DecodeRun(spec.Arch, spec.DType, 512, 256, batch)
			ai := dec.FLOPs / dec.Bytes
			phases.AddRow(string(spec.ID), "decode@512ctx", di(batch), f1(ai), classify(ai))
		}
	}
	return []Table{balance, phases}, nil
}
