package fleet

import (
	"math"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/workload"
)

// burstyReqs is the elastic-pool stress shape: a trickle of background
// traffic with a sharp deadline-bearing spike in the middle.
func burstyReqs(t *testing.T, seed uint64) []engine.TimedRequest {
	t.Helper()
	background := workload.InteractiveAssistant(0.2, 8)
	background.DeadlineSlack = 4
	background.DeadlineSlackMax = 12
	spike := workload.InteractiveAssistant(6, 36)
	spike.DeadlineSlack = 4
	spike.DeadlineSlackMax = 12
	reqs, err := workload.Bursty(background, spike, 30, seed)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func autoscaleConfig(initial int) Config {
	cfg := homogeneousFleet(initial, LeastQueue)
	cfg.Autoscale = &AutoscaleConfig{
		Min:             initial,
		Max:             5,
		Spec:            smallSpec(),
		Devices:         []*hw.Device{hw.JetsonAGXOrin64GB()},
		ColdStart:       2,
		DepthPerReplica: 2,
		IdleRetire:      10,
		Cooldown:        1,
	}
	return cfg
}

func TestAutoscaleConfigValidation(t *testing.T) {
	base := homogeneousFleet(2, RoundRobin)
	cases := []struct {
		name string
		cfg  AutoscaleConfig
	}{
		{"max below min", AutoscaleConfig{Min: 3, Max: 2, Spec: smallSpec()}},
		{"initial above max", AutoscaleConfig{Min: 1, Max: 1, Spec: smallSpec()}},
		{"initial below min", AutoscaleConfig{Min: 3, Max: 6, Spec: smallSpec()}},
		{"no spec", AutoscaleConfig{Min: 1, Max: 4}},
		{"nan cold start", AutoscaleConfig{Min: 1, Max: 4, Spec: smallSpec(), ColdStart: math.NaN()}},
	}
	for _, tc := range cases {
		cfg := base
		ac := tc.cfg
		cfg.Autoscale = &ac
		if _, err := Serve(cfg, burst(2, 1, 0)); err == nil {
			t.Errorf("%s: invalid autoscale config must be rejected", tc.name)
		}
	}
}

func TestScaleSignalParse(t *testing.T) {
	for _, s := range []ScaleSignal{ScaleOnBoth, ScaleOnDepth, ScaleOnMiss} {
		got, err := ParseScaleSignal(s.String())
		if err != nil || got != s {
			t.Errorf("round-trip %v: got %v, %v", s, got, err)
		}
	}
	if got, err := ParseScaleSignal(""); err != nil || got != ScaleOnBoth {
		t.Errorf("empty spelling must default to both, got %v, %v", got, err)
	}
	if _, err := ParseScaleSignal("vibes"); err == nil {
		t.Error("unknown signal must be rejected")
	}
}

func TestAutoscaleGrowsOnBurstAndRetiresOnIdle(t *testing.T) {
	reqs := burstyReqs(t, 7)
	m, err := Serve(autoscaleConfig(1), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Dropped != len(reqs) {
		t.Fatalf("served %d + dropped %d != offered %d", m.Served, m.Dropped, len(reqs))
	}
	if m.ScaleUps == 0 {
		t.Error("burst must trigger at least one scale-up")
	}
	if m.ScaleDowns == 0 {
		t.Error("post-burst idle must retire at least one replica")
	}
	if m.PeakReplicas <= 1 {
		t.Errorf("peak pool %d, want growth beyond the initial single replica", m.PeakReplicas)
	}
	if m.PeakReplicas > m.ScaleUps+1 {
		t.Errorf("peak %d exceeds initial 1 + %d scale-ups", m.PeakReplicas, m.ScaleUps)
	}
	if m.ReplicaSeconds <= 0 {
		t.Error("replica-seconds must be accounted")
	}
	if len(m.Replicas) != 1+m.ScaleUps {
		t.Errorf("replica metrics %d, want initial + %d provisioned", len(m.Replicas), m.ScaleUps)
	}
	for _, rm := range m.Replicas[1:] {
		if rm.ProvisionedAt <= 0 {
			t.Errorf("%s: provisioned replica must record a provision time", rm.Name)
		}
	}
}

func TestAutoscaleOffKeepsPoolFixed(t *testing.T) {
	reqs := burstyReqs(t, 7)
	cfg := homogeneousFleet(2, LeastQueue)
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.ScaleUps != 0 || m.ScaleDowns != 0 || len(m.ScaleEvents) != 0 ||
		m.PeakReplicas != 0 || m.ReplicaSeconds != 0 {
		t.Errorf("autoscale accounting must stay zero when off: %+v", m)
	}
	if len(m.Replicas) != 2 {
		t.Errorf("fixed pool grew to %d replicas", len(m.Replicas))
	}
}

// TestAutoscaleProperties is the CI property test: across seeds the pool
// must respect its bounds, the event log must be monotone in time, and
// every offered request must be either served or dropped.
func TestAutoscaleProperties(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		reqs := burstyReqs(t, seed)
		cfg := autoscaleConfig(1)
		m, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m.Served+m.Dropped != len(reqs) {
			t.Errorf("seed %d: served %d + dropped %d != offered %d", seed, m.Served, m.Dropped, len(reqs))
		}
		min, max := cfg.Autoscale.Min, cfg.Autoscale.Max
		if m.PeakReplicas < min || m.PeakReplicas > max {
			t.Errorf("seed %d: peak pool %d outside [%d, %d]", seed, m.PeakReplicas, min, max)
		}
		last := math.Inf(-1)
		for i, ev := range m.ScaleEvents {
			if ev.Time < last {
				t.Errorf("seed %d: event %d at %.3f precedes %.3f — log not monotone", seed, i, ev.Time, last)
			}
			last = ev.Time
			if ev.Live < min || ev.Live > max {
				t.Errorf("seed %d: event %d leaves live pool %d outside [%d, %d]", seed, i, ev.Live, min, max)
			}
			if ev.Up && ev.Reason != "depth" && ev.Reason != "miss" && ev.Reason != "outage" {
				t.Errorf("seed %d: scale-up reason %q unknown", seed, ev.Reason)
			}
			if !ev.Up && ev.Reason != "idle" {
				t.Errorf("seed %d: scale-down reason %q unknown", seed, ev.Reason)
			}
		}
		if m.ReplicaSeconds < 0 {
			t.Errorf("seed %d: negative replica-seconds %.3f", seed, m.ReplicaSeconds)
		}
	}
}

func TestAutoscaleRecoversFromTotalOutage(t *testing.T) {
	cfg := autoscaleConfig(1)
	permanentCrash(&cfg, 0, 5) // the whole initial pool dies early
	// Retry re-admits whatever the crash aborts, so the revived pool can
	// serve the whole stream.
	cfg.Retry = &RetryPolicy{}
	// Deadline-less stream with a miss-only trigger: the ordinary
	// pressure signals stay silent, so only the emergency outage path
	// can revive the pool.
	cfg.Autoscale.ScaleOn = ScaleOnMiss
	reqs := burst(10, 2, 0) // arrivals 0..18s straddle the outage
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != len(reqs) {
		t.Fatalf("served %d of %d: the autoscaler must revive a dead pool", m.Served, len(reqs))
	}
	outage := false
	for _, ev := range m.ScaleEvents {
		if ev.Up && ev.Reason == "outage" {
			outage = true
		}
	}
	if !outage {
		t.Error("expected an emergency outage provision in the event log")
	}
}

// TestScaleOnMissNeedsCongestion is the false-positive regression test:
// tight deadlines alone (slack below ColdStart) must not provision when
// the pool is keeping up — a request about to be dispatched to an idle
// replica is not miss pressure.
func TestScaleOnMissNeedsCongestion(t *testing.T) {
	cfg := autoscaleConfig(1)
	cfg.Autoscale.ScaleOn = ScaleOnMiss
	cfg.Autoscale.ColdStart = 5
	reqs := burst(10, 5, 2) // trickle, slack 2s < ColdStart 5s, zero queueing
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.ScaleUps != 0 {
		t.Errorf("uncongested tight-slack stream provisioned %d replicas (events %+v)", m.ScaleUps, m.ScaleEvents)
	}
	if m.HitRate() < 1 {
		t.Errorf("workload not actually easy: hit rate %.2f", m.HitRate())
	}
	// The same signal must still fire when deadline work genuinely
	// queues behind a busy pool.
	cfg = autoscaleConfig(1)
	cfg.Autoscale.ScaleOn = ScaleOnMiss
	m, err = Serve(cfg, burst(30, 0.1, 3)) // overload, 3s slack
	if err != nil {
		t.Fatal(err)
	}
	if m.ScaleUps == 0 {
		t.Error("miss-only autoscaler must grow when queued deadline work will be late")
	}
}

func TestAutoscaleScaleOnMissIgnoresDepth(t *testing.T) {
	// Deadline-less overload: depth pressure only. With ScaleOn miss the
	// pool must never grow.
	cfg := autoscaleConfig(1)
	cfg.Autoscale.ScaleOn = ScaleOnMiss
	m, err := Serve(cfg, burst(20, 0.05, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.ScaleUps != 0 {
		t.Errorf("miss-only autoscaler scaled up %d times on a deadline-less stream", m.ScaleUps)
	}
	cfg = autoscaleConfig(1)
	cfg.Autoscale.ScaleOn = ScaleOnDepth
	m, err = Serve(cfg, burst(20, 0.05, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.ScaleUps == 0 {
		t.Error("depth-only autoscaler must grow under a deadline-less backlog")
	}
}

// TestStickySessionsPurgedOnRetirement drives the dispatcher directly:
// a session pins to a replica, the replica retires during a long lull,
// and the session's next turn must re-pin to a live replica while the
// sticky map drops every entry referencing the retired one.
func TestStickySessionsPurgedOnRetirement(t *testing.T) {
	mk := func() *replica {
		r, err := newReplica(ReplicaConfig{Spec: smallSpec(), Device: hw.JetsonAGXOrin64GB()}.withDefaults(0), Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ro := &router{replicas: []*replica{mk(), mk()}, policy: SessionAffinity}
	as, err := newAutoscaler(&AutoscaleConfig{
		Min: 1, Max: 2, Spec: smallSpec(),
		Devices:    []*hw.Device{hw.JetsonAGXOrin64GB()},
		IdleRetire: 5, Cooldown: 1, DepthPerReplica: 4,
	}, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess := func(id label.Label, sid string, at float64) engine.TimedRequest {
		tr := timed(id, at, 64, 20, 0)
		tr.SessionID = sid
		return tr
	}
	// Two sessions spread across both replicas, then a lull far longer
	// than the idle window, then one session returns.
	stream := []engine.TimedRequest{
		sess(label.Think(0, 1), "sa", 0), sess(label.Think(1, 1), "sb", 0.01),
		sess(label.Think(0, 2), "sa", 100),
	}
	var out Metrics
	cx := &chaos{ro: ro, out: &out}
	if err := dispatch(ro, as, cx, nil, FIFO, engine.NewPeekable(engine.NewSliceSource(stream)), &out); err != nil {
		t.Fatal(err)
	}
	if out.Dropped != 0 {
		t.Fatalf("dropped %d requests", out.Dropped)
	}
	retired := 0
	for i, r := range ro.replicas {
		if !r.retired {
			continue
		}
		retired++
		for sid, p := range ro.sticky {
			if p == i {
				t.Errorf("sticky map leaks session %q pinned to retired replica %d", sid, i)
			}
		}
		if i < len(ro.pinned) && ro.pinned[i] != 0 {
			t.Errorf("pinned count %d left on retired replica %d", ro.pinned[i], i)
		}
	}
	if retired == 0 {
		t.Fatal("the lull must retire a replica (idle window 5s, gap 100s)")
	}
	// The returning session must hold a pin to a live replica.
	p, ok := ro.sticky["sa"]
	if !ok {
		t.Fatal("session sa lost its pin entirely")
	}
	if ro.replicas[p].retired {
		t.Errorf("session sa re-pinned to retired replica %d", p)
	}
}

// TestProvisionRefusesAtMax is the emergency-path regression: provision
// is the single place the Max bound is enforced for outage revivals
// (the pressure triggers check it in observe), so a provision attempt
// against a full pool must refuse rather than exceed the budget.
func TestProvisionRefusesAtMax(t *testing.T) {
	mk := func() *replica {
		r, err := newReplica(ReplicaConfig{Spec: smallSpec(), Device: hw.JetsonAGXOrin64GB()}.withDefaults(0), Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ro := &router{replicas: []*replica{mk(), mk()}, policy: LeastQueue}
	as, err := newAutoscaler(&AutoscaleConfig{
		Min: 1, Max: 2, Spec: smallSpec(),
		Devices: []*hw.Device{hw.JetsonAGXOrin64GB()},
	}, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := as.provision(ro, 1, "outage"); err == nil {
		t.Fatal("provision at Max must refuse")
	}
	if len(ro.replicas) != 2 || as.peak != 2 || len(as.events) != 0 {
		t.Fatalf("refused provision mutated state: %d replicas, peak %d, %d events",
			len(ro.replicas), as.peak, len(as.events))
	}
	// One replica dies for good: the pool is below Max again and the
	// same emergency call must now succeed.
	ro.replicas[0].tl = crashedTimeline(t, ro.replicas[0].cfg, 0.5)
	if err := as.provision(ro, 1, "outage"); err != nil {
		t.Fatalf("provision below Max refused: %v", err)
	}
	if got := ro.liveCount(1); got != 2 {
		t.Fatalf("live %d after revival, want 2", got)
	}
}

// TestOutageRevivalBoundedByMax runs repeated permanent crashes through
// the emergency outage path end to end: however many revivals it takes,
// the pool never exceeds the Max budget.
func TestOutageRevivalBoundedByMax(t *testing.T) {
	cfg := autoscaleConfig(1)
	cfg.Autoscale.Max = 2
	cfg.Autoscale.ScaleOn = ScaleOnMiss // keep the ordinary triggers silent
	permanentCrash(&cfg, 0, 5)          // the whole initial pool dies, lossily
	reqs := burst(10, 2, 0)             // arrivals 0..18s straddle the outage
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeakReplicas > cfg.Autoscale.Max {
		t.Fatalf("peak %d exceeds Max %d", m.PeakReplicas, cfg.Autoscale.Max)
	}
	if m.Served+m.Dropped != m.Offered || m.Offered != len(reqs) {
		t.Fatalf("conservation: served %d + dropped %d != offered %d", m.Served, m.Dropped, m.Offered)
	}
	outage := false
	for _, ev := range m.ScaleEvents {
		if ev.Up && ev.Reason == "outage" {
			outage = true
		}
		if ev.Live > cfg.Autoscale.Max {
			t.Fatalf("scale event %+v exceeds Max %d", ev, cfg.Autoscale.Max)
		}
	}
	if !outage {
		t.Error("expected an emergency outage provision in the event log")
	}
	if m.Served == 0 {
		t.Error("revived pool served nothing")
	}
}
