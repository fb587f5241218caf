package experiments

import (
	"fmt"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/fleet"
	"edgereasoning/internal/model"
	"edgereasoning/internal/telemetry"
	"edgereasoning/internal/workload"
)

// TraceConfig shapes the traced run behind the CLI's trace command.
type TraceConfig struct {
	Requests  int     // requests to stream
	QPS       float64 // offered load in requests/s
	Replicas  int     // initial pool size
	Max       int     // autoscale pool ceiling
	CrashRate float64 // expected crashes per configured replica
	Throttle  float64 // thermal-throttle slowdown factor (1 = none)
	Seed      uint64
}

// TraceRun serves a faulted, autoscaled open-loop stream on a
// deadline-aware fleet with retry, health checks and telemetry on, and
// returns the fleet's metrics with the filled trace. It rejects a bad
// config before any engine is built.
func TraceRun(tc TraceConfig) (fleet.Metrics, *telemetry.Trace, error) {
	switch {
	case tc.Requests <= 0:
		return fleet.Metrics{}, nil, fmt.Errorf("trace: -requests must be positive")
	case tc.QPS <= 0:
		return fleet.Metrics{}, nil, fmt.Errorf("trace: -qps must be positive")
	case tc.Replicas <= 0:
		return fleet.Metrics{}, nil, fmt.Errorf("trace: -replicas must be positive")
	case tc.Max < tc.Replicas:
		return fleet.Metrics{}, nil, fmt.Errorf("trace: -max %d below -replicas %d", tc.Max, tc.Replicas)
	case tc.CrashRate < 0 || tc.Throttle < 0:
		return fleet.Metrics{}, nil, fmt.Errorf("trace: -crash-rate and -throttle must be non-negative")
	}
	spec := model.MustLookup(model.Qwen25_1_5Bit)
	devices := fleet.DefaultDevices()
	profile := workload.InteractiveAssistant(tc.QPS, tc.Requests)
	profile.DeadlineSlack = 3
	profile.DeadlineSlackMax = 9
	reqs, err := workload.Generate(profile, tc.Seed)
	if err != nil {
		return fleet.Metrics{}, nil, err
	}
	horizon := float64(tc.Requests) / tc.QPS
	sched, err := faults.Generate(faults.GenConfig{
		Replicas: tc.Replicas, Horizon: horizon,
		CrashRate: tc.CrashRate, RestartDelay: 6,
		StallRate: 1, StallDuration: 2,
		ThrottleRate: 1, ThrottleDuration: horizon / 8, ThrottleFactor: tc.Throttle,
	}, tc.Seed)
	if err != nil {
		return fleet.Metrics{}, nil, err
	}
	trace := telemetry.New(telemetry.Config{SpanCap: 1 << 17})
	m, err := fleet.ServeSource(fleet.Config{
		Replicas: fleet.HeterogeneousReplicas(tc.Replicas, devices, spec),
		Policy:   fleet.DeadlineAware,
		Autoscale: &fleet.AutoscaleConfig{
			Min: 1, Max: tc.Max, Spec: spec, Devices: devices,
		},
		Faults: &sched,
		Retry:  &fleet.RetryPolicy{Hedge: true},
		Health: &fleet.HealthConfig{FailureThreshold: 2, ProbeAfter: 1},
		Trace:  trace,
	}, engine.NewSliceSource(reqs))
	return m, trace, err
}
