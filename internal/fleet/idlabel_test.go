package fleet

import (
	"reflect"
	"slices"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/label"
	"edgereasoning/internal/session"
)

// TestFleetRequestIDsAreLabels is the fleet's counterpart of the
// engine's TestRequestIDsAreLabels: each stream is served once as
// generated and once with every request ID set to one shared label, and the two
// Metrics must be equal apart from the served requests' ID labels. It
// covers the property grid under generated crashes, stalls and throttles
// with retry and health-aware routing, where each retry must keep its
// own attempt budget, and a tiered SessionAffinity stream with crashes
// and retry. Traced runs are out of scope: telemetry.Breakdown still
// groups spans by request ID, so a trace that is broken down needs IDs
// unique within the run.
func TestFleetRequestIDsAreLabels(t *testing.T) {
	serveBoth := func(name string, cfg Config, reqs []engine.TimedRequest) Metrics {
		t.Helper()
		cfg.KeepRequests = true
		same := slices.Clone(reqs)
		for i := range same {
			same[i].ID = label.Probe()
		}
		want, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Serve(cfg, same)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Replicas {
			for j := range got.Replicas[i].Requests {
				q := &got.Replicas[i].Requests[j]
				if q.ID != label.Probe() {
					t.Fatalf("%s: replica %d request %d labelled %q, want %q", name, i, j, q.ID, label.Probe())
				}
				if i < len(want.Replicas) && j < len(want.Replicas[i].Requests) {
					q.ID = want.Replicas[i].Requests[j].ID
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: relabelled run diverged: served %d/%d, aborted %d/%d, retried %d/%d, dropped %d/%d (relabelled/unique)",
				name, got.Served, want.Served, got.Aborted, want.Aborted, got.Retried, want.Retried, got.Dropped, want.Dropped)
		}
		return want
	}

	retried := 0
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
		retried += serveBoth(cfg.Policy.String()+"/"+cfg.Admission.String(), cfg, reqs).Retried
	})
	if retried == 0 {
		t.Fatal("degenerate grid: no run retried a request")
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
	cfg.Faults, cfg.Retry = &sched, &RetryPolicy{}
	if m := serveBoth("tiered sessions", cfg, reqs); m.HostHits == 0 || m.Retried == 0 {
		t.Fatalf("degenerate session run: %d host-tier hits, %d retries", m.HostHits, m.Retried)
	}
}
