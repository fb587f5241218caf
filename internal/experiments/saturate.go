package experiments

import (
	"errors"
	"fmt"

	"edgereasoning/internal/capacity"
	"edgereasoning/internal/fleet"
	"edgereasoning/internal/model"
	"edgereasoning/internal/workload"
)

// saturateStudy is the capacity-planning experiment: for each fleet
// size, binary-search the offered QPS to the saturation knee — the
// highest load at which the SLO (a p99 latency bound, or a deadline
// hit-rate floor) still holds. Every probe streams a freshly generated
// open-loop workload through the fleet ingress; nothing is
// materialized. The verify table locks the queueing-theory shape (knee
// grows with fleet size, brackets are tight) and the analyzer's typed
// edge behavior: an unreachable SLO reports ErrSLONeverMet instead of
// searching forever, an unsaturable bracket reports ErrSLOAlwaysMet
// instead of calling the ceiling "capacity".
func saturateStudy(opts Options) ([]Table, error) {
	metric := opts.SatMetric
	if metric == "" {
		metric = "p99"
	}
	if metric != "p99" && metric != "hitrate" {
		return nil, fmt.Errorf("saturate: unknown metric %q (want p99 or hitrate)", metric)
	}
	if err := nonNegative("saturate", knob{"-slo", opts.SatSLO},
		knob{"-requests", float64(opts.SatRequests)}); err != nil {
		return nil, err
	}
	if metric == "hitrate" && opts.SatSLO > 1 {
		return nil, fmt.Errorf("saturate: hitrate -slo is a fraction in [0,1], got %g", opts.SatSLO)
	}
	slo := opts.SatSLO
	if slo == 0 {
		if metric == "p99" {
			// The interactive-assistant tail is heavy: even an unloaded
			// replica shows ~2.5s p99 (one long-form response). The default
			// objective doubles that, so the knee measures queueing
			// headroom rather than the workload's intrinsic tail.
			slo = 5.0 // seconds
		} else {
			slo = 0.95 // deadline hit-rate floor
		}
	}
	n := opts.SatRequests
	if n == 0 {
		n = 240
		if opts.Quick {
			n = 120
		}
	}
	devices, err := fleet.ParseDevices(opts.FleetDevices)
	if err != nil {
		return nil, err
	}
	spec := model.MustLookup(model.Qwen25_1_5Bit)

	// One probe = one streamed serve run at the offered load. The
	// workload is drawn fresh from the same seed each time (arrival
	// spacing scales with QPS), pulled lazily by the ingress.
	probeFor := func(replicas int, sloAt float64) capacity.Probe {
		return func(qps float64) (capacity.Sample, error) {
			profile := workload.InteractiveAssistant(qps, n)
			if metric == "hitrate" {
				profile.DeadlineSlack = 3
				profile.DeadlineSlackMax = 8
			}
			src, err := workload.NewSource(profile, opts.Seed)
			if err != nil {
				return capacity.Sample{}, err
			}
			m, err := fleet.ServeSource(fleet.Config{
				Replicas: fleet.HeterogeneousReplicas(replicas, devices, spec),
				Policy:   fleet.LeastQueue,
			}, src)
			if err != nil {
				return capacity.Sample{}, err
			}
			if metric == "hitrate" {
				hr := m.HitRate()
				return capacity.Sample{Value: hr, Met: hr >= sloAt}, nil
			}
			return capacity.Sample{Value: m.P99Latency, Met: m.P99Latency <= sloAt}, nil
		}
	}
	searchOpts := capacity.Options{MinQPS: 0.25, MaxQPS: 256, Resolution: 0.05, MaxProbes: 24}

	sloLabel := fmt.Sprintf("p99 <= %.2fs", slo)
	valueCol := "p99_at_knee_s"
	if metric == "hitrate" {
		sloLabel = fmt.Sprintf("hit rate >= %.0f%%", slo*100)
		valueCol = "hit_rate_at_knee_pct"
	}
	knees := Table{
		ID: "saturate",
		Title: fmt.Sprintf("Saturation knees: offered QPS vs fleet size under %s (Qwen2.5-1.5B-it, %d-request probes)",
			sloLabel, n),
		Columns: []string{"replicas", "knee_qps", valueCol, "violated_at_qps", "probes"},
		Notes: []string{
			"knee_qps is the highest probed load meeting the SLO; the true knee lies in (knee_qps, violated_at_qps]",
			"devices cycle " + opts.FleetDevices + defaultDeviceNote(opts.FleetDevices),
		},
	}
	sizes := []int{1, 2, 4}
	results := make([]capacity.Knee, 0, len(sizes))
	for _, replicas := range sizes {
		k, err := capacity.FindKnee(probeFor(replicas, slo), searchOpts)
		if err != nil {
			return nil, fmt.Errorf("saturate: %d replicas: %w", replicas, err)
		}
		results = append(results, k)
		v := f2(k.Value)
		if metric == "hitrate" {
			v = f1(k.Value * 100)
		}
		knees.AddRow(di(replicas), f2(k.QPS), v, f2(k.ViolatedQPS), di(len(k.Probes)))
	}

	verify := Table{
		ID:      "saturate-verify",
		Title:   "Saturate verify: knee scaling, bracket tightness, and analyzer edge behavior",
		Columns: []string{"claim", "observed", "check"},
		Notes: []string{
			"capacity must not shrink with fleet size; brackets must close to the search resolution",
			"the analyzer must fail typed — never hang — when the SLO is unreachable or never stressed",
		},
	}
	monotone := true
	for i := 1; i < len(results); i++ {
		if results[i].QPS < results[i-1].QPS {
			monotone = false
		}
	}
	verify.Claim(monotone, "knee QPS non-decreasing in fleet size",
		fmt.Sprintf("%s -> %s -> %s", f2(results[0].QPS), f2(results[1].QPS), f2(results[2].QPS)))
	tight := true
	for _, k := range results {
		if !(k.QPS < k.ViolatedQPS && k.ViolatedQPS-k.QPS <= searchOpts.Resolution*k.QPS+1e-9) {
			tight = false
		}
	}
	verify.Claim(tight, fmt.Sprintf("brackets closed to %.0f%% resolution", searchOpts.Resolution*100),
		fmt.Sprintf("widest %.3f QPS", widestBracket(results)))
	bounded := true
	for _, k := range results {
		if len(k.Probes) > searchOpts.MaxProbes {
			bounded = false
		}
	}
	verify.Claim(bounded, fmt.Sprintf("probe budget respected (<= %d)", searchOpts.MaxProbes),
		fmt.Sprintf("max %d", maxProbes(results)))

	// Edge legs: drive the analyzer into both terminal conditions on the
	// real fleet probe and verify the typed errors come back.
	_, errNever := capacity.FindKnee(probeFor(1, impossibleSLO(metric)), capacity.Options{
		MinQPS: 0.25, MaxQPS: 1, MaxProbes: 4})
	verify.Claim(errors.Is(errNever, capacity.ErrSLONeverMet), "unreachable SLO -> ErrSLONeverMet",
		errString(errNever))
	_, errAlways := capacity.FindKnee(probeFor(1, trivialSLO(metric)), capacity.Options{
		MinQPS: 0.25, MaxQPS: 0.5, MaxProbes: 4})
	verify.Claim(errors.Is(errAlways, capacity.ErrSLOAlwaysMet), "never-stressed bracket -> ErrSLOAlwaysMet",
		errString(errAlways))

	return []Table{knees, verify}, nil
}

// impossibleSLO is an objective no configuration can meet (sub-ms p99,
// or a hit rate above 1).
func impossibleSLO(metric string) float64 {
	if metric == "hitrate" {
		return 1.1
	}
	return 1e-4
}

// trivialSLO is an objective no load within a small bracket can break.
func trivialSLO(metric string) float64 {
	if metric == "hitrate" {
		return 0
	}
	return 1e9
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func widestBracket(ks []capacity.Knee) float64 {
	w := 0.0
	for _, k := range ks {
		if d := k.ViolatedQPS - k.QPS; d > w {
			w = d
		}
	}
	return w
}

func maxProbes(ks []capacity.Knee) int {
	m := 0
	for _, k := range ks {
		if len(k.Probes) > m {
			m = len(k.Probes)
		}
	}
	return m
}
