package fleet

import (
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/label"
)

// TestDeadAtBirthNeverCountsLive locks the autoscaler's side of the
// warm-up boundary: a replica whose permanent crash lands at or before
// warmupDelay never counts toward the live pool, and one with an open
// window counts only until the crash.
func TestDeadAtBirthNeverCountsLive(t *testing.T) {
	rc := ReplicaConfig{warmupDelay: 10}
	dead := &replica{cfg: rc, tl: crashedTimeline(t, rc, 10)}
	for _, at := range []float64{0, 5, 10, 20} {
		if dead.liveAt(at) {
			t.Errorf("dead-at-birth replica counted live at t=%v", at)
		}
	}
	windowed := &replica{cfg: rc, tl: crashedTimeline(t, rc, 15)}
	if !windowed.liveAt(0) || !windowed.liveAt(12) {
		t.Error("replica with an open window must count live before its crash")
	}
	if windowed.liveAt(15) {
		t.Error("replica must stop counting live at its crash")
	}
}

// TestDeadAtBirthReplicaTakesNothing runs the boundary end to end: with
// a permanent crash at exactly warmupDelay the replica must take no
// traffic, and the warm-up must not hold the ingress waiting for a
// window that never opens.
func TestDeadAtBirthReplicaTakesNothing(t *testing.T) {
	cfg := homogeneousFleet(2, RoundRobin)
	cfg.Replicas[1].warmupDelay = 5
	permanentCrash(&cfg, 1, 5)
	reqs := burst(8, 2, 0)
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != len(reqs) || m.Dropped != 0 {
		t.Fatalf("served %d dropped %d, want all served on the live replica", m.Served, m.Dropped)
	}
	if m.Replicas[1].Served != 0 {
		t.Errorf("dead-at-birth replica took %d requests", m.Replicas[1].Served)
	}

	// Alone, the same replica is a permanent outage from t=0.
	solo := homogeneousFleet(1, RoundRobin)
	solo.Replicas[0].warmupDelay = 5
	permanentCrash(&solo, 0, 5)
	m, err = Serve(solo, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 || m.Dropped != len(reqs) {
		t.Errorf("served %d dropped %d, want everything dropped", m.Served, m.Dropped)
	}
}

// TestTotalOutageMidStreamConservation is the total-outage drain
// regression test: once every replica is permanently dead, the rest of
// the stream is dropped without rescanning the pool per request, and
// nothing is lost or double-counted.
func TestTotalOutageMidStreamConservation(t *testing.T) {
	cfg := homogeneousFleet(2, LeastQueue)
	permanentCrash(&cfg, 0, 6)
	permanentCrash(&cfg, 1, 9)
	reqs := burst(400, 0.05, 30) // arrivals 0..20s, fleet dead by t=9
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Dropped != len(reqs) {
		t.Fatalf("served %d + dropped %d != offered %d", m.Served, m.Dropped, len(reqs))
	}
	if m.Served == 0 {
		t.Error("pre-outage arrivals must still be served")
	}
	if m.Dropped == 0 {
		t.Error("post-outage arrivals must be dropped")
	}
	if m.DeadlinesTotal != len(reqs) {
		t.Errorf("deadline accounting %d, want every deadline-bearing request counted (dropped count as missed)",
			m.DeadlinesTotal)
	}
	// The outage drop must also cover requests still waiting in the
	// ingress queue when the pool dies, not only later arrivals.
	var assigned int
	for _, rm := range m.Replicas {
		assigned += rm.Served
	}
	if assigned != m.Served {
		t.Errorf("assigned %d != served %d: outage must not strand dispatched work", assigned, m.Served)
	}
}

// TestRetireAtDrainBoundaryBilledOnce pins ReplicaSeconds accounting at
// the end-of-run drain: foldAutoscale retires remaining idle replicas
// and then bills every replica exactly once — a replica whose idle
// timer expires exactly at the wall is billed to that single instant
// (not to the wall AND the retirement), a mid-run retiree to its
// retirement, a crashed replica to its crash, a survivor to the wall,
// and a dead-at-birth provision never bills negative time.
func TestRetireAtDrainBoundaryBilledOnce(t *testing.T) {
	mk := func(provisionedAt, estFreeAt float64, cfg ReplicaConfig) *replica {
		return &replica{cfg: cfg, provisionedAt: provisionedAt, estFreeAt: estFreeAt}
	}
	boundary := mk(0, 90, ReplicaConfig{Name: "boundary"}) // idle timer expires at exactly wall=100
	survivor := mk(50, 95, ReplicaConfig{Name: "survivor"})
	early := mk(20, 0, ReplicaConfig{Name: "early"})
	early.retired, early.retiredAt = true, 80
	failed := mk(0, 0, ReplicaConfig{Name: "failed"})
	failed.tl = crashedTimeline(t, failed.cfg, 70)
	stillborn := mk(80, 80, ReplicaConfig{Name: "stillborn"})
	stillborn.tl = crashedTimeline(t, stillborn.cfg, 70)

	ro := &router{replicas: []*replica{boundary, survivor, early, failed, stillborn}}
	as, err := newAutoscaler(&AutoscaleConfig{Min: 1, Max: 8, Spec: smallSpec(), IdleRetire: 10}, 5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := Metrics{WallTime: 100, Replicas: make([]ReplicaMetrics, 5)}
	foldAutoscale(&out, ro, as)

	if !boundary.retired || boundary.retiredAt != 100 {
		t.Fatalf("boundary replica retired=%v at %.3f, want retirement at exactly the 100s wall",
			boundary.retired, boundary.retiredAt)
	}
	if survivor.retired {
		t.Fatal("Min floor must keep the last live replica")
	}
	// boundary 100-0, survivor 100-50, early 80-20, failed 70-0,
	// stillborn clamped to 0: each span billed exactly once.
	if want := 100.0 + 50 + 60 + 70 + 0; out.ReplicaSeconds != want {
		t.Fatalf("ReplicaSeconds %.3f, want %.3f (each replica billed once)", out.ReplicaSeconds, want)
	}
	if out.ScaleDowns != 1 {
		t.Fatalf("scale-downs %d, want 1 (only the boundary replica retires at drain)", out.ScaleDowns)
	}
	if out.Replicas[0].RetiredAt != 100 {
		t.Fatalf("boundary replica metrics RetiredAt %.3f, want 100", out.Replicas[0].RetiredAt)
	}
}

// TestOutageDropPreservesFIFOSemantics cross-checks the O(1) drain
// against the per-request scan it replaced: a request whose arrival
// predates the outage but whose turn comes after it is dropped, exactly
// as the old head-of-line scan decided, and the crash aborts the request
// it interrupts.
func TestOutageDropPreservesFIFOSemantics(t *testing.T) {
	cfg := homogeneousFleet(1, RoundRobin)
	cfg.Replicas[0].capacity = 1
	permanentCrash(&cfg, 0, 2)
	reqs := []engine.TimedRequest{
		timed(label.Question(0), 0, 1024, 600, 0), // dispatched at t=0, still running at the crash
		timed(label.Question(1), 0.5, 64, 10, 0),
	}
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 || m.Dropped != 2 || m.Aborted != 1 || m.AbortedDropped != 1 {
		t.Errorf("served %d dropped %d aborted %d abortedDropped %d, want 0/2/1/1: the crash aborts the first request and the queued one's turn never comes",
			m.Served, m.Dropped, m.Aborted, m.AbortedDropped)
	}
}

// TestWarmupCrashBoundary pins the ReplicaConfig contract the
// autoscaler's warm-up accounting relies on: with a permanent crash,
// routability needs t >= warmupDelay and t before the crash, so a crash
// at or before warmupDelay is dead at birth — the replica crashes before
// (or the instant) it would come up, and with no restart it never opens
// a window.
func TestWarmupCrashBoundary(t *testing.T) {
	const eps = 1e-9
	cases := []struct {
		name          string
		warmup, crash float64
		at            float64
		routable      bool
	}{
		{"warm replica at crash instant", 0, 10, 10, false},
		{"warm replica just before crash", 0, 10, 10 - eps, true},
		{"dead at birth: crash == warmup, at the boundary", 10, 10, 10, false},
		{"dead at birth: crash == warmup, before warmup", 10, 10, 10 - eps, false},
		{"dead at birth: crash == warmup, after crash", 10, 10, 10 + eps, false},
		{"dead at birth: crash below warmup", 10, 10 - eps, 10, false},
		{"window open: crash just above warmup", 10, 10 + eps, 10, true},
		{"window closed again past crash", 10, 10 + eps, 10 + eps, false},
	}
	for _, tc := range cases {
		rc := ReplicaConfig{warmupDelay: tc.warmup}
		r := &replica{cfg: rc, tl: crashedTimeline(t, rc, tc.crash)}
		if got := r.routableAt(tc.at); got != tc.routable {
			t.Errorf("%s: routableAt(%v) = %v, want %v", tc.name, tc.at, got, tc.routable)
		}
		if live := r.liveAt(tc.at); tc.warmup >= tc.crash && live {
			t.Errorf("%s: dead-at-birth replica counted live at t=%v", tc.name, tc.at)
		}
	}
}
