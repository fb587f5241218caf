package experiments

import (
	"fmt"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/fleet"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/session"
	"edgereasoning/internal/stats"
)

func init() {
	register("sessions", sessionStudy)
}

// sessionStudy is the session-grade serving experiment: a multi-turn
// agentic workload (think/act phases over a growing shared history, with
// branch-of-N test-time scaling) served three ways. First on a single
// Orin cold — every turn re-prefills its whole history, the paper's
// single-turn serving model — then on the same Orin with the
// cross-request prefix KV cache, and finally across a small fleet where
// session-affinity routing is pitted against blind policies on prefix
// hit rate. A verify table locks the claims: warm-prefix p99 TTFT and
// saved prefill tokens must strictly beat the cold baseline, and
// affinity must beat round-robin on hit rate.
func sessionStudy(opts Options) ([]Table, error) {
	sessions, turns, branch, err := opts.sessionShape("sessions")
	if err != nil {
		return nil, err
	}
	policies := []fleet.Policy{fleet.RoundRobin, fleet.LeastQueue, fleet.SessionAffinity}
	if opts.SessionPolicy != "" && opts.SessionPolicy != "all" {
		p, err := fleet.ParsePolicy(opts.SessionPolicy)
		if err != nil {
			return nil, err
		}
		policies = []fleet.Policy{p}
	}
	profile := session.AgentLoop(sessions, turns, branch)
	reqs, err := session.Generate(profile, opts.Seed)
	if err != nil {
		return nil, err
	}

	spec := model.MustLookup(model.DSR1Qwen1_5B)
	const maxBatch = 8
	serve := func(prefix bool) (engine.ServeMetrics, error) {
		e, err := engine.New(engine.Config{Spec: spec, Device: hw.JetsonAGXOrin64GB(), PrefixCache: prefix})
		if err != nil {
			return engine.ServeMetrics{}, err
		}
		// The stream is already arrival-sorted, so it feeds the serve loop
		// directly; results are element-identical to the slice path.
		return e.ServeSource(engine.NewSliceSource(reqs), maxBatch, engine.FCFS,
			engine.ServeOpts{SizeHint: len(reqs)})
	}
	cold, err := serve(false)
	if err != nil {
		return nil, err
	}
	warm, err := serve(true)
	if err != nil {
		return nil, err
	}

	single := Table{
		ID: "sessions",
		Title: fmt.Sprintf("Session serving: %d agentic sessions x %d turns (think/act, branch %d) on DSR1-Qwen-1.5B/Orin, cold vs prefix-cached",
			sessions, turns, branch),
		Columns: []string{"mode", "requests", "p50_ttft_s", "p99_ttft_s", "p99_lat_s",
			"hit_rate_pct", "saved_prefill_ktok", "energy_kj"},
		Notes: []string{"TTFT = queue + prefill; hit rate is token-weighted (saved / looked-up prompt tokens)"},
	}
	coldTTFT := ttftPercentiles(cold)
	warmTTFT := ttftPercentiles(warm)
	single.AddRow("cold-prefill", di(len(cold.Requests)), f2(coldTTFT[0]), f2(coldTTFT[1]),
		f2(cold.P99Latency), f1(0), f1(0), f2(cold.TotalEnergy/1e3))
	single.AddRow("warm-prefix", di(len(warm.Requests)), f2(warmTTFT[0]), f2(warmTTFT[1]),
		f2(warm.P99Latency), f1(warm.PrefixHitRate()*100), f1(float64(warm.SavedPrefillTokens)/1e3),
		f2(warm.TotalEnergy/1e3))

	// Fleet leg: the same stream across three Orin power modes, prefix
	// caches on everywhere, so the only variable is where a session's
	// turns land relative to their history.
	cache := map[fleet.Policy]fleet.Metrics{}
	fleetRun := func(p fleet.Policy) (fleet.Metrics, error) {
		if m, ok := cache[p]; ok {
			return m, nil
		}
		cfg := fleet.Config{
			Replicas:    fleet.HeterogeneousReplicas(3, fleet.DefaultDevices(), spec),
			Policy:      p,
			PrefixCache: true,
		}
		m, err := fleet.ServeSource(cfg, engine.NewSliceSource(reqs))
		if err != nil {
			return fleet.Metrics{}, err
		}
		cache[p] = m
		return m, nil
	}
	affinity := Table{
		ID:      "sessions-affinity",
		Title:   "Session routing across a 3-replica Orin fleet (prefix caches on): where do a session's turns land?",
		Columns: []string{"policy", "served", "hit_rate_pct", "saved_prefill_ktok", "p99_ttft_s", "p99_s"},
		Notes:   []string{"session-affinity pins turns to the replica holding the session's prefix KV, falling back least-connections"},
	}
	for _, p := range policies {
		m, err := fleetRun(p)
		if err != nil {
			return nil, err
		}
		affinity.AddRow(p.String(), di(m.Served), f1(m.PrefixHitRate()*100),
			f1(float64(m.SavedPrefillTokens)/1e3), f2(fleetTTFTP99(m)), f2(m.P99Latency))
	}

	rr, err := fleetRun(fleet.RoundRobin)
	if err != nil {
		return nil, err
	}
	aff, err := fleetRun(fleet.SessionAffinity)
	if err != nil {
		return nil, err
	}
	verify := Table{
		ID:      "sessions-verify",
		Title:   "Sessions verify: prefix reuse and session-affinity routing against their blind baselines",
		Columns: []string{"metric", "baseline", "prefix-aware", "check"},
		Notes:   []string{"warm-prefix must strictly beat cold prefill on tail TTFT and saved prefill; affinity must beat round-robin on hit rate"},
	}
	verify.AddRow("p99_ttft_s (cold vs warm)", f2(coldTTFT[1]), f2(warmTTFT[1]), check(warmTTFT[1] < coldTTFT[1]))
	verify.AddRow("saved_prefill_tok (cold vs warm)", di(cold.SavedPrefillTokens), di(warm.SavedPrefillTokens),
		check(warm.SavedPrefillTokens > cold.SavedPrefillTokens))
	verify.AddRow("fleet_hit_rate_pct (rr vs affinity)", f1(rr.PrefixHitRate()*100), f1(aff.PrefixHitRate()*100),
		check(aff.PrefixHitRate() > rr.PrefixHitRate()))
	return []Table{single, affinity, verify}, nil
}

// ttftPercentiles returns the p50/p99 time-to-first-token (queue +
// host-tier restore + prefill) over a run's completions.
func ttftPercentiles(m engine.ServeMetrics) [2]float64 {
	ttfts := make([]float64, 0, len(m.Requests))
	for _, r := range m.Requests {
		ttfts = append(ttfts, r.QueueTime+r.RestoreTime+r.PrefillTime)
	}
	if len(ttfts) == 0 {
		return [2]float64{}
	}
	p := stats.Percentiles(ttfts, 50, 99)
	return [2]float64{p[0], p[1]}
}

// fleetTTFTP99 pools per-request TTFT across every replica.
func fleetTTFTP99(m fleet.Metrics) float64 {
	var ttfts []float64
	for _, rm := range m.Replicas {
		for _, r := range rm.Requests {
			ttfts = append(ttfts, r.QueueTime+r.RestoreTime+r.PrefillTime)
		}
	}
	if len(ttfts) == 0 {
		return 0
	}
	return stats.Percentiles(ttfts, 99)[0]
}
