package experiments

import (
	"fmt"
	"math"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/fleet"
	"edgereasoning/internal/model"
	"edgereasoning/internal/workload"
)

// autoscaleStudy is the elastic-fleet experiment: a bursty deadline-
// bearing stream (a steady trickle with a sharp spike riding on it) is
// served three ways — a fixed pool at the autoscaler's floor, a fixed
// pool sized to the elastic run's average replica-seconds, and the
// elastic pool itself — and the ingress admission disciplines are
// compared on a sustained overload. Two verify tables lock the claims:
// the autoscaled pool must strictly beat the equal-replica-seconds
// fixed pool on p99 latency and deadline hit rate, and shedding
// admission must strictly beat blocking FIFO on hit rate under
// overload.
func autoscaleStudy(opts Options) ([]Table, error) {
	if err := nonNegative("autoscale", knob{"-min", float64(opts.AutoMin)},
		knob{"-max", float64(opts.AutoMax)}, knob{"-qps", opts.FleetQPS}); err != nil {
		return nil, err
	}
	min := opts.AutoMin
	if min == 0 {
		min = 1
	}
	max := opts.AutoMax
	if max == 0 {
		max = 6
	}
	if max < min {
		return nil, fmt.Errorf("autoscale: -max %d below -min %d", max, min)
	}
	admission := fleet.FIFO
	if opts.AutoAdmission != "" {
		var err error
		if admission, err = fleet.ParseAdmission(opts.AutoAdmission); err != nil {
			return nil, err
		}
	}
	scaleOn, err := fleet.ParseScaleSignal(opts.AutoScaleOn)
	if err != nil {
		return nil, err
	}
	devices, err := fleet.ParseDevices(opts.FleetDevices)
	if err != nil {
		return nil, err
	}
	spec := model.MustLookup(model.Qwen25_1_5Bit)

	// The stress shape: a 0.2 QPS background trickle over a ~4-minute
	// span, with a 10 QPS spike arriving two minutes in. A fixed pool
	// sized for the background drowns in the spike; one sized for the
	// spike idles away most of its replica-seconds.
	baseQPS := opts.FleetQPS
	if baseQPS == 0 {
		baseQPS = 0.2
	}
	spikeQPS := baseQPS * 100
	nBase, nSpike := 50, 120
	if opts.Quick {
		nBase, nSpike = 30, 90
	}
	background := workload.InteractiveAssistant(baseQPS, nBase)
	background.DeadlineSlack = 3
	background.DeadlineSlackMax = 8
	spike := workload.InteractiveAssistant(spikeQPS, nSpike)
	spike.DeadlineSlack = 3
	spike.DeadlineSlackMax = 8
	const burstStart = 120.0
	reqs, err := workload.Bursty(background, spike, burstStart, opts.Seed)
	if err != nil {
		return nil, err
	}

	auto := &fleet.AutoscaleConfig{
		Min: min, Max: max,
		Spec: spec, Devices: devices,
		ColdStart:       2,
		DepthPerReplica: 2,
		IdleRetire:      10,
		Cooldown:        0.5,
		ScaleOn:         scaleOn,
	}
	serve := func(replicas int, autoscale *fleet.AutoscaleConfig) (fleet.Metrics, error) {
		return fleet.ServeSource(fleet.Config{
			Replicas:  fleet.HeterogeneousReplicas(replicas, devices, spec),
			Policy:    fleet.DeadlineAware,
			Admission: admission,
			Autoscale: autoscale,
		}, engine.NewSliceSource(reqs))
	}
	elastic, err := serve(min, auto)
	if err != nil {
		return nil, err
	}
	floor, err := serve(min, nil)
	if err != nil {
		return nil, err
	}
	// The fair fixed baseline: at least the elastic run's average
	// resource bill, held constant for the whole span. Rounding up
	// makes the comparison conservative — the fixed pool gets more
	// replica-seconds than the elastic one actually spent.
	eqN := int(math.Ceil(elastic.ReplicaSeconds / elastic.WallTime))
	if eqN < 1 {
		eqN = 1
	}
	fixed, err := serve(eqN, nil)
	if err != nil {
		return nil, err
	}

	pools := Table{
		ID: "autoscale",
		Title: fmt.Sprintf("Elastic vs fixed pools: bursty stream (%.1f QPS + %.1f QPS spike at t=%.0fs, 3-8s slack) on Qwen2.5-1.5B-it",
			baseQPS, spikeQPS, burstStart),
		Columns: []string{"pool", "replicas", "served", "dropped", "p50_s", "p99_s",
			"hit_rate_pct", "replica_s", "energy_kj"},
		Notes: []string{fmt.Sprintf("replica_s bills each replica from provision to retirement; the equal-cost pool holds %d replicas (elastic average %.1f)",
			eqN, elastic.ReplicaSeconds/elastic.WallTime)},
	}
	row := func(name, replicas string, m fleet.Metrics, replicaSeconds float64) {
		pools.AddRow(name, replicas, di(m.Served), di(m.Dropped), f2(m.P50Latency), f2(m.P99Latency),
			f1(m.HitRate()*100), f1(replicaSeconds), f2(m.TotalEnergy/1e3))
	}
	row("fixed-floor", di(min), floor, float64(min)*floor.WallTime)
	row("fixed-equal-cost", di(eqN), fixed, float64(eqN)*fixed.WallTime)
	row("autoscaled", fmt.Sprintf("%d..%d(peak %d)", min, max, elastic.PeakReplicas), elastic, elastic.ReplicaSeconds)

	events := Table{
		ID:      "autoscale-events",
		Title:   fmt.Sprintf("Autoscaler timeline: %d scale-ups, %d scale-downs (cold start %.0fs, idle retire %.0fs)", elastic.ScaleUps, elastic.ScaleDowns, auto.ColdStart, auto.IdleRetire),
		Columns: []string{"t_s", "event", "replica", "live", "reason"},
		Notes:   []string{"retirements are billed at idle-timer expiry, which can precede the dispatch event that noticed them"},
	}
	for _, ev := range elastic.ScaleEvents {
		dir := "down"
		if ev.Up {
			dir = "up"
		}
		events.AddRow(f1(ev.Time), dir, ev.Replica, di(ev.Live), ev.Reason)
	}

	// Admission-discipline leg: a sustained overload on a fixed
	// two-replica pool, where reordering and shedding at the ingress is
	// the only variable.
	overload := workload.InteractiveAssistant(6, 3*nBase)
	overload.DeadlineSlack = 2
	overload.DeadlineSlackMax = 6
	oreqs, err := workload.Generate(overload, opts.Seed)
	if err != nil {
		return nil, err
	}
	disciplines := Table{
		ID:      "autoscale-admission",
		Title:   fmt.Sprintf("Ingress admission disciplines under overload: %d requests at 6.0 QPS, 2-6s slack, fixed 2-replica pool", len(oreqs)),
		Columns: []string{"admission", "served", "shed", "p50_s", "p99_s", "hit_rate_pct"},
		Notes:   []string{"shed drops certain-miss work at the ingress (counted as missed deadlines) instead of serving it late"},
	}
	byDiscipline := map[fleet.Admission]fleet.Metrics{}
	for _, a := range fleet.Admissions() {
		m, err := fleet.ServeSource(fleet.Config{
			Replicas:  fleet.HeterogeneousReplicas(2, devices, spec),
			Policy:    fleet.LeastQueue,
			Admission: a,
		}, engine.NewSliceSource(oreqs))
		if err != nil {
			return nil, err
		}
		byDiscipline[a] = m
		disciplines.AddRow(a.String(), di(m.Served), di(m.Shed), f2(m.P50Latency), f2(m.P99Latency),
			f1(m.HitRate()*100))
	}

	verify := Table{
		ID:      "autoscale-verify",
		Title:   "Autoscale verify: elastic pool vs equal-cost fixed pool; shedding vs blocking FIFO",
		Columns: []string{"metric", "baseline", "elastic/shed", "check"},
		Notes: []string{
			"the autoscaled pool must strictly beat the equal-replica-seconds fixed pool on p99 and hit rate",
			"shed admission must strictly beat blocking FIFO on hit rate under overload",
		},
	}
	verify.Claim(elastic.P99Latency < fixed.P99Latency, "p99_s (fixed-equal-cost vs autoscaled)", f2(fixed.P99Latency), f2(elastic.P99Latency))
	verify.Claim(elastic.HitRate() > fixed.HitRate(), "hit_rate_pct (fixed-equal-cost vs autoscaled)", f1(fixed.HitRate()*100), f1(elastic.HitRate()*100))
	fifoM, shedM := byDiscipline[fleet.FIFO], byDiscipline[fleet.Shed]
	verify.Claim(shedM.HitRate() > fifoM.HitRate(), "hit_rate_pct (fifo vs shed, overload)", f1(fifoM.HitRate()*100), f1(shedM.HitRate()*100))
	return []Table{pools, events, disciplines, verify}, nil
}
