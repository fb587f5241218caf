package experiments

import (
	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/workload"
)

// qpsSweep extends §III-B into an open-loop study: an interactive
// assistant workload (direct ~40-token responses on Qwen2.5-7B-it) under
// Poisson arrivals, sweeping offered load against p50/p99 latency and
// energy. Shows where the Orin saturates for interactive serving.
func qpsSweep(opts Options) ([]Table, error) {
	t := Table{
		ID: "qps", Title: "Open-loop QPS sweep: Qwen2.5-7B-it interactive workload (Poisson arrivals, batch<=8)",
		Columns: []string{"qps", "p50_s", "p95_s", "p99_s", "mean_s", "avg_power_w", "agg_tps"},
		Notes:   []string{"extends §III-B's 'costs benefit from batching and increased QPS' into a queueing study"},
	}
	n := 300
	if opts.Quick {
		n = 120
	}
	for _, qps := range []float64{0.05, 0.1, 0.2, 0.3, 0.4} {
		eng, err := engine.New(engine.Config{Spec: model.MustLookup(model.Qwen25_7Bit), Device: hw.JetsonAGXOrin64GB()})
		if err != nil {
			return nil, err
		}
		// The workload is generated lazily and pulled by the serve loop —
		// no materialized request slice anywhere in this driver.
		src, err := workload.NewSource(workload.InteractiveAssistant(qps, n), opts.Seed)
		if err != nil {
			return nil, err
		}
		m, err := eng.ServeSource(src, 8, engine.FCFS, engine.ServeOpts{SizeHint: n})
		if err != nil {
			return nil, err
		}
		aggTPS := float64(m.OutputTokens()) / m.WallTime
		t.AddRow(f2(qps), f2(m.P50Latency), f2(m.P95Latency), f2(m.P99Latency),
			f2(m.MeanLatency), f1(m.AvgPower()), f1(aggTPS))
	}
	return []Table{t}, nil
}

// schedulerComparison pits FCFS against EDF on a mixed-urgency workload
// (slacks drawn from [6, 60] s): at saturating load the deadline-aware
// discipline lifts the hit rate by prioritizing urgent requests.
func schedulerComparison(opts Options) ([]Table, error) {
	t := Table{
		ID: "sched", Title: "Scheduler comparison under mixed deadlines: FCFS vs EDF (Qwen2.5-7B-it, 6-60s slack)",
		Columns: []string{"policy", "qps", "hit_rate_pct", "p50_s", "p99_s"},
	}
	n := 200
	if opts.Quick {
		n = 100
	}
	for _, qps := range []float64{0.2, 0.4} {
		profile := workload.InteractiveAssistant(qps, n)
		profile.DeadlineSlack = 6
		profile.DeadlineSlackMax = 60
		for _, pol := range []engine.SchedPolicy{engine.FCFS, engine.EDF} {
			eng, err := engine.New(engine.Config{Spec: model.MustLookup(model.Qwen25_7Bit), Device: hw.JetsonAGXOrin64GB()})
			if err != nil {
				return nil, err
			}
			src, err := workload.NewSource(profile, opts.Seed)
			if err != nil {
				return nil, err
			}
			m, err := eng.ServeSource(src, 2, pol, engine.ServeOpts{SizeHint: n})
			if err != nil {
				return nil, err
			}
			t.AddRow(pol.String(), f2(qps), f1(m.HitRate()*100), f2(m.P50Latency), f2(m.P99Latency))
		}
	}
	return []Table{t}, nil
}
