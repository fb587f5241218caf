package fleet

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/session"
	"edgereasoning/internal/workload"
)

// matchesLean serves cfg without KeepRequests and checks the run against
// kept, the same config's run with it. Keeping records only records:
// Replicas[i].Requests is nil without the flag and holds Served records
// with it, each replica's BusyTime is bit-equal to the sum of its
// records' TotalTime in completion order, and apart from Requests the
// two runs' Metrics deep-equal. It returns the lean run.
func matchesLean(t *testing.T, name string, cfg Config, reqs []engine.TimedRequest, kept Metrics) Metrics {
	t.Helper()
	cfg.KeepRequests = false
	lean, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.Replicas) != len(lean.Replicas) {
		t.Fatalf("%s: %d replicas with records kept, %d without", name, len(kept.Replicas), len(lean.Replicas))
	}
	kept.Replicas = append([]ReplicaMetrics(nil), kept.Replicas...)
	for i := range kept.Replicas {
		rm := &kept.Replicas[i]
		if lean.Replicas[i].Requests != nil {
			t.Fatalf("%s: replica %s kept %d records without KeepRequests", name, rm.Name, len(lean.Replicas[i].Requests))
		}
		if len(rm.Requests) != rm.Served {
			t.Fatalf("%s: replica %s kept %d records of %d served", name, rm.Name, len(rm.Requests), rm.Served)
		}
		busy := 0.0
		for _, q := range rm.Requests {
			busy += q.TotalTime()
		}
		if math.Float64bits(busy) != math.Float64bits(rm.BusyTime) {
			t.Fatalf("%s: replica %s BusyTime %v, its records sum to %v", name, rm.Name, rm.BusyTime, busy)
		}
		rm.Requests = nil
	}
	if !reflect.DeepEqual(kept, lean) {
		t.Fatalf("%s: keeping records perturbed the run:\n kept %+v\n lean %+v", name, kept, lean)
	}
	return lean
}

// TestFleetKeepRequestsIsTransparent extends TestTracedMatchesUntraced's
// kept-versus-lean leg to the runs that grid does not reach: over the
// property grid with generated crashes, stalls and throttles and
// health-aware routing under an autoscaler that provisions and retires
// replicas, and on a tiered session stream with crashes and retry, a run
// with KeepRequests matches the run without it (see matchesLean).
func TestFleetKeepRequestsIsTransparent(t *testing.T) {
	spec := smallSpec()
	scaled := 0
	propertyGrid(t, func(seed uint64, base func() Config, reqs []engine.TimedRequest) {
		sched, err := faults.Generate(faults.GenConfig{
			Replicas: 3, Horizon: reqs[len(reqs)-1].Arrival,
			CrashRate: 1, RestartDelay: 5,
			StallRate: 1, StallDuration: 2,
			ThrottleRate: 1, ThrottleDuration: 5, ThrottleFactor: 2,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base()
		cfg.Faults = &sched
		cfg.Health = &HealthConfig{}
		cfg.Autoscale = &AutoscaleConfig{Min: 3, Max: 5, Spec: spec,
			ColdStart: 2, DepthPerReplica: 2, IdleRetire: 10, Cooldown: 1}
		kept, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seed %d %s/%s autoscaled", seed, cfg.Policy, cfg.Admission)
		scaled += matchesLean(t, name, cfg, reqs, kept).ScaleUps
	})
	if scaled == 0 {
		t.Fatal("degenerate grid: no run scaled up")
	}

	reqs, err := session.Generate(session.AgentLoop(8, 4, 2), 7)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Generate(faults.GenConfig{
		Replicas: 2, Horizon: reqs[len(reqs)-1].Arrival, CrashRate: 2, RestartDelay: 5,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := homogeneousFleet(2, SessionAffinity)
	cfg.PrefixCache, cfg.DeviceBlocks, cfg.HostTierBlocks = true, 192, 1024
	cfg.Faults, cfg.Retry, cfg.KeepRequests = &sched, &RetryPolicy{}, true
	kept, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m := matchesLean(t, "tiered sessions", cfg, reqs, kept); m.HostHits == 0 || m.Retried == 0 {
		t.Fatalf("degenerate session run: %d host-tier hits, %d retries", m.HostHits, m.Retried)
	}
}

// TestFaultedFleetBytesPerRequest serves the faulted 3-replica soak of
// BenchmarkFaultedFleetSoak at two stream lengths and bounds the heap
// bytes allocated per extra request. A replica holds its in-flight
// requests plus one latency per finished request, so the marginal cost
// is a few words per request; keeping a 96-byte record per request
// would read about 300 B. The test reads process-wide allocation
// counters, so it must not run in parallel.
func TestFaultedFleetBytesPerRequest(t *testing.T) {
	const small, large, bound = 5_000, 20_000, 64.0
	allocated := func(size int) uint64 {
		cfg, profile, err := faultedSoak(size)
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.NewSource(profile, 7)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m, err := ServeSource(cfg, src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if m.Offered != size || m.Crashes == 0 {
			t.Fatalf("degenerate soak: %d offered of %d, %d crashes", m.Offered, size, m.Crashes)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	a, b := allocated(small), allocated(large)
	per := (float64(b) - float64(a)) / (large - small)
	t.Logf("%.1f heap bytes per extra request", per)
	if per > bound {
		t.Fatalf("%.1f heap bytes per extra request (%d B at %d requests, %d B at %d), want ≤ %.0f",
			per, a, small, b, large, bound)
	}
}
