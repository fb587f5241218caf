package experiments

import (
	"fmt"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/fleet"
	"edgereasoning/internal/model"
	"edgereasoning/internal/workload"
)

func init() {
	register("fleet", fleetSweep)
}

// fleetSweep extends the single-device QPS study to a heterogeneous
// fleet: one shared open-loop stream routed across mixed Orin power
// modes and mixed FP16/W4A16 replicas under every routing policy, at
// half and full fleet size. A second verify table pits deadline-aware
// routing against the round-robin baseline on tail latency and deadline
// hit rate — the fleet-level version of the paper's SLA takeaway.
func fleetSweep(opts Options) ([]Table, error) {
	if err := nonNegative("fleet", knob{"-replicas", float64(opts.FleetReplicas)},
		knob{"-qps", opts.FleetQPS}); err != nil {
		return nil, err
	}
	size := opts.FleetReplicas
	if size == 0 {
		size = 4
	}
	qps := opts.FleetQPS
	if qps == 0 {
		// Saturating-but-stable load for the default 4-replica Orin mix:
		// round-robin visibly misses deadlines while deadline-aware
		// routing still wins on both the tail and the SLA, across seeds.
		qps = 2.0
	}
	devices, err := fleet.ParseDevices(opts.FleetDevices)
	if err != nil {
		return nil, err
	}
	policies := fleet.Policies()
	if opts.FleetPolicy != "" && opts.FleetPolicy != "all" {
		p, err := fleet.ParsePolicy(opts.FleetPolicy)
		if err != nil {
			return nil, err
		}
		policies = []fleet.Policy{p}
	}

	n := 240
	if opts.Quick {
		n = 120
	}
	profile := workload.InteractiveAssistant(qps, n)
	profile.DeadlineSlack = 2
	profile.DeadlineSlackMax = 10
	reqs, err := workload.Generate(profile, opts.Seed)
	if err != nil {
		return nil, err
	}

	spec := model.MustLookup(model.Qwen25_7Bit)
	run := func(replicas int, p fleet.Policy) (fleet.Metrics, error) {
		cfg := fleet.Config{
			Replicas: fleet.HeterogeneousReplicas(replicas, devices, spec),
			Policy:   p,
		}
		// reqs is already arrival-sorted, so the streaming ingress consumes
		// it directly — no per-run copy and re-sort.
		return fleet.ServeSource(cfg, engine.NewSliceSource(reqs))
	}

	sweep := Table{
		ID:    "fleet",
		Title: fmt.Sprintf("Heterogeneous fleet serving: policy × fleet size (Qwen2.5-7B-it FP16/W4, %.1f QPS, 2-10s slack)", qps),
		Columns: []string{"policy", "replicas", "served", "dropped",
			"p50_s", "p99_s", "hit_rate_pct", "energy_j", "imbalance"},
		Notes: []string{"devices cycle " + opts.FleetDevices + defaultDeviceNote(opts.FleetDevices)},
	}
	sizes := []int{size}
	if half := size / 2; half >= 1 && half != size {
		sizes = []int{half, size}
	}
	// Cache the full-size round-robin and deadline-aware runs for the
	// verify table so they are computed exactly once.
	type key struct {
		size   int
		policy fleet.Policy
	}
	cache := map[key]fleet.Metrics{}
	runCached := func(replicas int, p fleet.Policy) (fleet.Metrics, error) {
		k := key{replicas, p}
		if m, ok := cache[k]; ok {
			return m, nil
		}
		m, err := run(replicas, p)
		if err != nil {
			return fleet.Metrics{}, err
		}
		cache[k] = m
		return m, nil
	}
	for _, p := range policies {
		for _, replicas := range sizes {
			m, err := runCached(replicas, p)
			if err != nil {
				return nil, err
			}
			sweep.AddRow(p.String(), di(replicas), di(m.Served), di(m.Dropped),
				f2(m.P50Latency), f2(m.P99Latency), f1(m.HitRate()*100),
				f1(m.TotalEnergy), f2(m.Imbalance))
		}
	}

	rr, err := runCached(size, fleet.RoundRobin)
	if err != nil {
		return nil, err
	}
	dl, err := runCached(size, fleet.DeadlineAware)
	if err != nil {
		return nil, err
	}
	verify := Table{
		ID:      "fleet-verify",
		Title:   fmt.Sprintf("Fleet verify: deadline-aware vs round-robin at %d replicas", size),
		Columns: []string{"metric", "round-robin", "deadline-aware", "check"},
		Notes:   []string{"deadline-aware must match or beat the blind baseline on both the tail and the SLA"},
	}
	verify.AddRow("p99_s", f2(rr.P99Latency), f2(dl.P99Latency), check(dl.P99Latency <= rr.P99Latency))
	verify.AddRow("hit_rate_pct", f1(rr.HitRate()*100), f1(dl.HitRate()*100), check(dl.HitRate() >= rr.HitRate()))
	verify.AddRow("dropped", di(rr.Dropped), di(dl.Dropped), check(dl.Dropped <= rr.Dropped))
	return []Table{sweep, verify}, nil
}

// defaultDeviceNote spells out the device cycle when -devices was left
// at the default.
func defaultDeviceNote(devices string) string {
	if devices != "" {
		return ""
	}
	return "(default): orin, orin-50w, orin-30w; weights alternate FP16, W4A16"
}
