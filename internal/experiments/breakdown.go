package experiments

import (
	"fmt"
	"math"
	"reflect"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/fleet"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
	"edgereasoning/internal/telemetry"
	"edgereasoning/internal/workload"
)

// breakdownStudy is the TTFT/latency decomposition table: a faulted,
// retry-enabled fleet run is traced end to end, and every served
// request's latency is split into its phase spans — shared-ingress
// queue wait, crash-retry backoff, destroyed attempts, replica-local
// wait, stall, host-tier restore, prefill, decode, and the continuous-
// batching gap. The verify table locks the tracing claims: the phases
// of every request tile its measured end-to-end latency exactly, the
// span ledger matches the fleet's abort/retry accounting one for one,
// spans nest cleanly on every replica lane, and the traced run's
// Metrics are deep-equal to an untraced run of the same stream — the
// zero-overhead-when-off contract, observed from the on side.
func breakdownStudy(opts Options) ([]Table, error) {
	const replicas = 3
	devices, err := fleet.ParseDevices(opts.FleetDevices)
	if err != nil {
		return nil, err
	}
	spec := model.MustLookup(model.Qwen25_1_5Bit)

	const qps = 2.2
	n := opts.sample(400)
	profile := workload.InteractiveAssistant(qps, n)
	profile.DeadlineSlack = 3
	profile.DeadlineSlackMax = 9
	reqs, err := workload.Generate(profile, opts.Seed)
	if err != nil {
		return nil, err
	}
	horizon := float64(n) / qps
	sched, err := faults.Generate(faults.GenConfig{
		Replicas: replicas, Horizon: horizon,
		CrashRate: 1.5, RestartDelay: 6,
		StallRate: 1, StallDuration: 2,
		ThrottleRate: 1, ThrottleDuration: horizon / 8, ThrottleFactor: 2,
	}, opts.Seed)
	if err != nil {
		return nil, err
	}
	cfgFor := func(trace *telemetry.Trace) fleet.Config {
		return fleet.Config{
			Replicas: fleet.HeterogeneousReplicas(replicas, devices, spec),
			Policy:   fleet.DeadlineAware,
			Faults:   &sched,
			Retry:    &fleet.RetryPolicy{Hedge: true},
			Health:   &fleet.HealthConfig{FailureThreshold: 2, ProbeAfter: 1},
			Trace:    trace,
			// The tiling check pairs Requests with Latencies, and the
			// transparency check compares the records too.
			KeepRequests: true,
		}
	}
	// Untraced leg first: the baseline the traced run must reproduce
	// bit for bit.
	plain, err := fleet.ServeSource(cfgFor(nil), engine.NewSliceSource(reqs))
	if err != nil {
		return nil, err
	}
	trace := telemetry.New(telemetry.Config{SpanCap: 1 << 16})
	traced, err := fleet.ServeSource(cfgFor(trace), engine.NewSliceSource(reqs))
	if err != nil {
		return nil, err
	}

	rows := trace.Breakdown()
	// Measured per-request latency (global queue wait folded in), for
	// the tiling check against the trace's own decomposition.
	measured := make(map[label.Label]float64, traced.Served)
	for _, rm := range traced.Replicas {
		for j := range rm.Requests {
			measured[rm.Requests[j].ID] = rm.Latencies[j]
		}
	}
	maxResidual, maxVsMeasured := 0.0, 0.0
	matched := 0
	var aggregate telemetry.RequestPhases
	for _, r := range rows {
		if res := math.Abs(r.Residual()); res > maxResidual {
			maxResidual = res
		}
		if lat, ok := measured[r.ID]; ok {
			matched++
			if d := math.Abs(r.E2E() - lat); d > maxVsMeasured {
				maxVsMeasured = d
			}
		}
		aggregate.Ingress += r.Ingress
		aggregate.RetryWait += r.RetryWait
		aggregate.AbortedWall += r.AbortedWall
		aggregate.LostWork += r.LostWork
		aggregate.ReplicaWait += r.ReplicaWait
		aggregate.Stall += r.Stall
		aggregate.Restore += r.Restore
		aggregate.Prefill += r.Prefill
		aggregate.Decode += r.Decode
		aggregate.Gap += r.Gap
	}

	head := Table{
		ID: "breakdown",
		Title: fmt.Sprintf("Latency decomposition: first requests of %d at %.1f QPS on a faulted %d-replica pool (all times seconds)",
			n, qps, replicas),
		Columns: []string{"request", "replica", "try", "ingress", "retry", "aborted", "rwait",
			"stall", "restore", "prefill", "decode", "gap", "e2e", "tile"},
		Notes: []string{
			"try counts crash-destroyed attempts before the served one; aborted is their wall time, retry the backoff windows between attempts",
			"gap is serving-window time spent on batchmates (continuous batching) — the cost of sharing the replica",
			"tile passes when the phases sum to the measured end-to-end latency within 1e-9 s",
		},
	}
	headN := len(rows)
	if headN > 12 {
		headN = 12
	}
	for _, r := range rows[:headN] {
		tile := math.Abs(r.Residual()) <= 1e-9
		if lat, ok := measured[r.ID]; ok {
			tile = tile && math.Abs(r.E2E()-lat) <= 1e-9
		}
		head.Claim(tile, r.ID.String(), r.Track, di(r.Attempts), f3(r.Ingress), f3(r.RetryWait),
			f3(r.AbortedWall), f3(r.ReplicaWait), f3(r.Stall), f3(r.Restore),
			f3(r.Prefill), f3(r.Decode), f3(r.Gap), f3(r.E2E()))
	}

	phases := Table{
		ID:      "breakdown-phases",
		Title:   fmt.Sprintf("Phase totals across all %d served requests", len(rows)),
		Columns: []string{"phase", "total_s", "share_pct"},
		Notes: []string{
			"shares are of summed end-to-end latency; lost_work is informational (service seconds executed then destroyed by crashes, not a latency phase)",
		},
	}
	totalE2E := aggregate.Ingress + aggregate.RetryWait + aggregate.AbortedWall +
		aggregate.ReplicaWait + aggregate.Stall + aggregate.Restore +
		aggregate.Prefill + aggregate.Decode + aggregate.Gap
	share := func(x float64) string {
		if totalE2E <= 0 {
			return pct(0)
		}
		return pct(x / totalE2E)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ingress_queue", aggregate.Ingress},
		{"retry_backoff", aggregate.RetryWait},
		{"aborted_attempts", aggregate.AbortedWall},
		{"replica_wait", aggregate.ReplicaWait},
		{"stall", aggregate.Stall},
		{"restore", aggregate.Restore},
		{"prefill", aggregate.Prefill},
		{"decode", aggregate.Decode},
		{"batch_gap", aggregate.Gap},
	} {
		phases.AddRow(p.name, f2(p.v), share(p.v))
	}
	phases.AddRow("lost_work", f2(aggregate.LostWork), "-")

	ttft := Table{
		ID:      "breakdown-ttft",
		Title:   "TTFT distribution (merged across replicas, from the trace's histogram registry)",
		Columns: []string{"le_seconds", "count", "cumulative"},
	}
	for _, mh := range trace.Histograms() {
		if mh.Name != "ttft_seconds" {
			continue
		}
		for i, b := range mh.Hist.Bounds() {
			if c := mh.Hist.BucketCount(i); c > 0 || mh.Hist.Cumulative(i) > 0 {
				ttft.AddRow(sci(b), di(int(c)), di(int(mh.Hist.Cumulative(i))))
			}
		}
		ttft.AddRow("+Inf", di(int(mh.Hist.Count())-cumAll(mh)), di(int(mh.Hist.Count())))
	}

	// Span-ledger counts against the fleet's own accounting.
	abortSpans, retrySpans := 0, 0
	for _, tr := range trace.Tracks() {
		for _, s := range tr.Spans() {
			switch s.Kind {
			case telemetry.KindAborted:
				abortSpans++
			case telemetry.KindRetryWait:
				retrySpans++
			}
		}
	}
	nestErr := telemetry.ValidateSpans(trace)
	nested := "pass"
	if nestErr != nil {
		nested = "FAIL: " + nestErr.Error()
	}
	verify := Table{
		ID:      "breakdown-verify",
		Title:   "Breakdown verify: trace consistency against the run's metrics",
		Columns: []string{"claim", "observed", "expected", "check"},
		Notes: []string{
			"tiling requires every served request's phase spans to sum exactly to its measured end-to-end latency",
			"transparent requires the traced run's Metrics to be deep-equal to an untraced run of the same stream and schedule",
		},
	}
	verify.Claim(len(rows) == traced.Served, "served_rows", di(len(rows)), di(traced.Served))
	verify.Claim(matched == len(rows), "measured_matched", di(matched), di(len(rows)))
	verify.Claim(maxResidual <= 1e-9, "max_tile_residual_s", sci(maxResidual), "<=1e-9")
	verify.Claim(maxVsMeasured <= 1e-9, "max_vs_measured_s", sci(maxVsMeasured), "<=1e-9")
	verify.Claim(abortSpans == traced.Aborted, "abort_spans", di(abortSpans), di(traced.Aborted))
	verify.Claim(retrySpans == traced.Retried, "retry_wait_spans", di(retrySpans), di(traced.Retried))
	verify.Claim(nestErr == nil, "spans_nested", nested, "pass")
	verify.Claim(traced.Served+traced.Dropped == traced.Offered, "conserved", di(traced.Served+traced.Dropped), di(traced.Offered))
	verify.Claim(reflect.DeepEqual(plain, traced), "transparent", fmt.Sprintf("%v", reflect.DeepEqual(plain, traced)), "true")
	return []Table{head, phases, ttft, verify}, nil
}

// cumAll is the cumulative count through the last finite bucket.
func cumAll(mh telemetry.MergedHistogram) int {
	n := len(mh.Hist.Bounds())
	if n == 0 {
		return 0
	}
	return int(mh.Hist.Cumulative(n - 1))
}
