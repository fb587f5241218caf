package experiments

import (
	"fmt"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/fleet"
	"edgereasoning/internal/model"
	"edgereasoning/internal/workload"
)

func init() {
	register("drills", drillsStudy)
}

// drillsStudy is the fault-injection outage drill: a deadline-bearing
// stream is served through a fleet under generated fault schedules —
// lossy crashes with restarts, transient stalls, thermal-throttle
// windows — swept over crash rate x throttle depth, and each fault
// point is run twice: once with no recovery machinery (aborted work is
// abandoned) and once with retry re-admission, circuit breakers, and
// health-aware routing. The verify table locks the recovery claims at
// every fault point: the recovery leg must strictly beat abandonment on
// goodput (served) and deadline hit rate, and both legs must conserve
// work exactly — a request lost between a crash and its re-admission is
// precisely the bug this drill exists to catch.
func drillsStudy(opts Options) ([]Table, error) {
	if err := nonNegative("drills", knob{"-replicas", float64(opts.DrillReplicas)},
		knob{"-restart", opts.DrillRestart}); err != nil {
		return nil, err
	}
	replicas := opts.DrillReplicas
	if replicas == 0 {
		replicas = 3
	}
	restart := opts.DrillRestart
	if restart == 0 {
		restart = 5
	}
	devices, err := fleet.ParseDevices(opts.FleetDevices)
	if err != nil {
		return nil, err
	}
	spec := model.MustLookup(model.Qwen25_1_5Bit)

	// A busy but unsaturated load (~0.8 QPS per replica against a ~1.1
	// single-replica knee): enough in-flight work that a crash always
	// has something to abort, enough headroom that a re-admitted retry
	// can land on a healthy replica and still meet its deadline. Past
	// the knee the drill is meaningless — retries only deepen a queue
	// that was already hopeless.
	const qps = 2.4
	n := opts.sample(600)
	profile := workload.InteractiveAssistant(qps, n)
	profile.DeadlineSlack = 3
	profile.DeadlineSlackMax = 9
	reqs, err := workload.Generate(profile, opts.Seed)
	if err != nil {
		return nil, err
	}
	horizon := float64(n) / qps

	type point struct {
		crashRate float64 // expected crashes per replica over the run
		factor    float64 // thermal-throttle slowdown (1 = none)
	}
	points := []point{
		{1, 1},
		{1, 2},
		{2, 1},
		{2, 2},
	}

	serve := func(p point, recover bool) (fleet.Metrics, error) {
		sched, err := faults.Generate(faults.GenConfig{
			Replicas: replicas, Horizon: horizon,
			CrashRate: p.crashRate, RestartDelay: restart,
			StallRate: 1, StallDuration: 2,
			ThrottleRate: 2, ThrottleDuration: horizon / 8, ThrottleFactor: p.factor,
		}, opts.Seed)
		if err != nil {
			return fleet.Metrics{}, err
		}
		cfg := fleet.Config{
			Replicas: fleet.HeterogeneousReplicas(replicas, devices, spec),
			Policy:   fleet.DeadlineAware,
			Faults:   &sched,
		}
		if recover {
			// Hedge: a crash abort is not a transient server error — the
			// work is known-lost and capacity exists elsewhere, so the
			// first re-admission goes out immediately. The breaker needs
			// two consecutive crashes to open and probes quickly: with a
			// single-digit fleet, fencing off a replica for long costs
			// more goodput than the occasional re-abort it prevents.
			cfg.Retry = &fleet.RetryPolicy{Hedge: true}
			cfg.Health = &fleet.HealthConfig{FailureThreshold: 2, ProbeAfter: 1}
		}
		return fleet.ServeSource(cfg, engine.NewSliceSource(reqs))
	}

	sweep := Table{
		ID: "drills",
		Title: fmt.Sprintf("Outage drills: %d requests at %.1f QPS (3-9s slack) on a %d-replica pool, crash rate x throttle depth, restart %.0fs",
			n, qps, replicas, restart),
		Columns: []string{"crashes/replica", "throttle", "recovery", "crashes", "aborted", "retried",
			"served", "dropped", "lost_s", "breaker_opens", "hit_rate_pct", "p99_s"},
		Notes: []string{
			"each fault point runs the same stream and schedule twice: recovery=none abandons aborted work, retry+health re-admits it through the shared ingress",
			"lost_s is crashed work already executed and thrown away; stalls and throttles stretch time but lose nothing",
		},
	}
	verify := Table{
		ID:      "drills-verify",
		Title:   "Drills verify: retry+health vs no recovery at every fault point",
		Columns: []string{"fault_point", "metric", "none", "retry+health", "check"},
		Notes: []string{
			"recovery must strictly beat abandonment on served requests and deadline hit rate at every fault point",
			"conserved requires Served + Dropped == Offered exactly on both legs — zero requests silently lost",
			"the win marks are calibrated at the default operating point (below the knee, survivable outages); past the knee retries deepen a hopeless queue and abandonment wins on latency",
		},
	}
	check := func(ok bool) string {
		if ok {
			return "pass"
		}
		return "FAIL"
	}
	legName := func(recover bool) string {
		if recover {
			return "retry+health"
		}
		return "none"
	}
	for _, p := range points {
		var byLeg [2]fleet.Metrics
		for i, recover := range []bool{false, true} {
			m, err := serve(p, recover)
			if err != nil {
				return nil, err
			}
			byLeg[i] = m
			sweep.AddRow(f1(p.crashRate), f1(p.factor), legName(recover),
				di(m.Crashes), di(m.Aborted), di(m.Retried),
				di(m.Served), di(m.Dropped), f1(m.LostWorkSeconds), di(m.BreakerOpens),
				f1(m.HitRate()*100), f2(m.P99Latency))
		}
		none, rec := byLeg[0], byLeg[1]
		label := fmt.Sprintf("cr=%.0f,thr=%.0fx", p.crashRate, p.factor)
		verify.AddRow(label, "served", di(none.Served), di(rec.Served),
			check(rec.Served > none.Served))
		verify.AddRow(label, "hit_rate_pct", f1(none.HitRate()*100), f1(rec.HitRate()*100),
			check(rec.HitRate() > none.HitRate()))
		conserved := none.Served+none.Dropped == none.Offered && rec.Served+rec.Dropped == rec.Offered &&
			none.Offered == len(reqs) && rec.Offered == len(reqs)
		verify.AddRow(label, "conserved", di(none.Served+none.Dropped), di(rec.Served+rec.Dropped),
			check(conserved))
	}
	return []Table{sweep, verify}, nil
}
