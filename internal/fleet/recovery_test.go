package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/workload"
)

// crashSchedule is a one-event helper: replica r crashes at t and
// restarts after d seconds (permanent when d == 0).
func crashSchedule(r int, t, d float64) *faults.Schedule {
	return &faults.Schedule{Events: []faults.Event{{Replica: r, Kind: faults.Crash, At: t, Restart: d}}}
}

// permanentCrash adds a crash of replica i at the given instant, with no
// restart, to cfg's fault schedule.
func permanentCrash(cfg *Config, i int, at float64) {
	if cfg.Faults == nil {
		cfg.Faults = &faults.Schedule{}
	}
	cfg.Faults.Events = append(cfg.Faults.Events, faults.Event{Replica: i, Kind: faults.Crash, At: at})
}

// crashedTimeline compiles the timeline of a replica configured as rc
// whose only fault is a permanent crash at the given instant.
func crashedTimeline(t *testing.T, rc ReplicaConfig, at float64) *timeline {
	t.Helper()
	cfg := Config{Replicas: []ReplicaConfig{rc}}
	permanentCrash(&cfg, 0, at)
	tls, err := compileFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tls[0]
}

func TestRetryPolicyRequeueSemantics(t *testing.T) {
	mk := func(p RetryPolicy) (*chaos, *Metrics) {
		out := &Metrics{}
		p = p.withDefaults()
		return &chaos{retry: &p, out: out}, out
	}

	// Backoff doubles per abort; MaxAttempts bounds total dispatches.
	cx, out := mk(RetryPolicy{MaxAttempts: 3, Backoff: 0.5})
	tr := timed("r1", 0, 64, 40, 0)
	cx.requeue(tr, 10) // first abort: attempt 2 allowed at 10.5
	cx.requeue(tr, 20) // second abort: attempt 3 allowed at 21
	if out.Retried != 2 || out.AbortedDropped != 0 {
		t.Fatalf("retried %d abortedDropped %d, want 2/0", out.Retried, out.AbortedDropped)
	}
	if got := cx.pending.Live()[0].at; got != 10.5 {
		t.Errorf("first re-admission at %v, want 10.5", got)
	}
	if got := cx.pending.Live()[1].at; got != 21 {
		t.Errorf("second re-admission at %v, want 21 (backoff doubled)", got)
	}
	cx.requeue(tr, 30) // third abort: attempts exhausted
	if out.Retried != 2 || out.AbortedDropped != 1 || out.Dropped != 1 {
		t.Errorf("after exhaustion: retried %d abortedDropped %d dropped %d, want 2/1/1",
			out.Retried, out.AbortedDropped, out.Dropped)
	}

	// Hedge: the first re-admission is immediate, later ones back off.
	cx, _ = mk(RetryPolicy{Hedge: true})
	cx.requeue(tr, 10)
	if got := cx.pending.Live()[0].at; got != 10 {
		t.Errorf("hedged re-admission at %v, want 10 (no backoff)", got)
	}
	cx.requeue(tr, 20)
	if got := cx.pending.Live()[1].at; got != 21 {
		t.Errorf("post-hedge re-admission at %v, want 21 (default 0.5 doubled once)", got)
	}

	// Deadline budget: a re-admission at or past the deadline is dropped.
	cx, out = mk(RetryPolicy{Backoff: 2})
	dl := timed("d1", 0, 64, 40, 11.9)
	cx.requeue(dl, 10) // re-admit at 12 >= deadline 11.9
	if out.Retried != 0 || out.AbortedDropped != 1 {
		t.Errorf("deadline-budget abort: retried %d abortedDropped %d, want 0/1", out.Retried, out.AbortedDropped)
	}
	if out.DeadlinesTotal != 1 {
		t.Errorf("dropped deadline-bearing abort must count toward DeadlinesTotal, got %d", out.DeadlinesTotal)
	}

	// Retry disabled: every abort drops.
	cx, out = mk(RetryPolicy{})
	cx.retry = nil
	cx.requeue(tr, 5)
	if out.Retried != 0 || out.AbortedDropped != 1 {
		t.Errorf("no-retry abort: retried %d abortedDropped %d, want 0/1", out.Retried, out.AbortedDropped)
	}
}

// TestInvalidRecoveryConfigRejected checks that Serve validates Retry
// and Health whether or not the run schedules a crash.
func TestInvalidRecoveryConfigRejected(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		for _, tc := range []struct {
			name string
			mut  func(*Config)
		}{
			{"negative backoff", func(c *Config) { c.Retry = &RetryPolicy{Backoff: -1} }},
			{"NaN backoff", func(c *Config) { c.Retry = &RetryPolicy{Backoff: math.NaN()} }},
			{"infinite probe", func(c *Config) { c.Health = &HealthConfig{ProbeAfter: math.Inf(1)} }},
		} {
			cfg := homogeneousFleet(2, RoundRobin)
			if faulted {
				cfg.Faults = crashSchedule(0, 1, 5)
			}
			tc.mut(&cfg)
			if _, err := Serve(cfg, burst(4, 1, 0)); err == nil {
				t.Errorf("%s (faulted=%v): Serve must reject the config", tc.name, faulted)
			}
		}
	}
}

func TestHealthStateBreakerLifecycle(t *testing.T) {
	h := &healthState{cfg: HealthConfig{FailureThreshold: 2, ProbeAfter: 5}.withDefaults()}

	// Below threshold: one crash does not open.
	if h.strike(10) {
		t.Fatal("first strike opened a threshold-2 breaker")
	}
	if blocked, _ := h.blockedAt(11); blocked {
		t.Fatal("closed breaker must not block")
	}
	// Second consecutive crash opens until restart + ProbeAfter.
	if !h.strike(20) {
		t.Fatal("second strike must open the breaker")
	}
	if blocked, until := h.blockedAt(21); !blocked || until != 25 {
		t.Fatalf("open breaker blockedAt(21) = %v until %v, want true/25", blocked, until)
	}
	// Half-open: one probe admitted; others wait on its estimated finish.
	if blocked, _ := h.blockedAt(25); blocked {
		t.Fatal("half-open breaker must admit the probe")
	}
	h.noteTake(25, 28)
	if blocked, until := h.blockedAt(26); !blocked || until != 28 {
		t.Fatalf("probing breaker blockedAt(26) = %v until %v, want true/28", blocked, until)
	}
	// A crash during the probe re-opens from the new restart.
	h.strike(30)
	if blocked, until := h.blockedAt(31); !blocked || until != 35 {
		t.Fatalf("re-opened breaker blockedAt(31) = %v until %v, want true/35", blocked, until)
	}
	// Probe completes uneventfully: settle closes and resets the count.
	h.noteTake(35, 37)
	h.settle(37)
	if h.open || h.fails != 0 {
		t.Fatalf("settled breaker open=%v fails=%d, want closed/0", h.open, h.fails)
	}
	// The count restarts: one new crash stays below threshold again.
	if h.strike(40) {
		t.Fatal("strike after reset opened a threshold-2 breaker")
	}
}

// TestCrashAbortsInFlightWork runs a crash with no retry policy: the
// aborted suffix is dropped, conservation holds, and nothing the router
// dispatched is silently stranded.
func TestCrashAbortsInFlightWork(t *testing.T) {
	cfg := homogeneousFleet(2, LeastQueue)
	cfg.Faults = crashSchedule(0, 1, 5)
	reqs := burst(20, 0, 0) // all arrive at t=0, queues deep on both replicas
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Crashes != 1 {
		t.Fatalf("crashes %d, want 1", m.Crashes)
	}
	if m.Aborted == 0 {
		t.Fatal("a t=1 crash under a t=0 burst must abort in-flight work")
	}
	if m.Served+m.Dropped != m.Offered || m.Offered != len(reqs) {
		t.Fatalf("conservation: served %d + dropped %d != offered %d", m.Served, m.Dropped, m.Offered)
	}
	if m.AbortedDropped != m.Aborted || m.Retried != 0 {
		t.Errorf("no-retry aborts: abortedDropped %d retried %d, want %d/0", m.AbortedDropped, m.Retried, m.Aborted)
	}
	if m.LostWorkSeconds <= 0 {
		t.Error("aborting started work must account lost seconds")
	}
	assigned := 0
	for _, rm := range m.Replicas {
		assigned += rm.Assigned
	}
	if assigned != m.Served {
		t.Errorf("assigned %d != served %d: aborts must leave the drained sub-streams", assigned, m.Served)
	}
}

// TestRetryRecoversCrashedWork is the recovery half: with a retry policy
// the same crash loses nothing — every abort re-enters the ingress and
// completes on the surviving or restarted replica.
func TestRetryRecoversCrashedWork(t *testing.T) {
	cfg := homogeneousFleet(2, LeastQueue)
	cfg.Faults = crashSchedule(0, 1, 5)
	cfg.Retry = &RetryPolicy{}
	reqs := burst(20, 0, 0)
	// A second wave after the t=6 restart: the healthy replica is still
	// digesting the retried burst, so the restarted one takes new work.
	for i := 0; i < 6; i++ {
		reqs = append(reqs, timed(fmt.Sprintf("w%d", i), 7+0.1*float64(i), 64, 40, 0))
	}
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Aborted == 0 || m.Retried != m.Aborted {
		t.Fatalf("aborted %d retried %d, want every abort re-admitted", m.Aborted, m.Retried)
	}
	if m.Served != len(reqs) || m.Dropped != 0 {
		t.Fatalf("served %d dropped %d of %d, want full recovery (no deadlines, capacity to spare)",
			m.Served, m.Dropped, len(reqs))
	}
	// The crashed replica's restart lands a cache wipe on its next take.
	if m.Replicas[0].Assigned == 0 {
		t.Error("restarted replica took no post-crash work")
	}
}

// TestHealthAwareRoutingAvoidsStalledReplica pins stall avoidance: the
// health-aware router steers every arrival inside the stall window away
// from the frozen replica, while the blind router keeps feeding it.
func TestHealthAwareRoutingAvoidsStalledReplica(t *testing.T) {
	stall := &faults.Schedule{Events: []faults.Event{{Replica: 0, Kind: faults.Stall, At: 0, Duration: 100}}}
	run := func(health *HealthConfig) Metrics {
		cfg := homogeneousFleet(2, LeastQueue)
		cfg.Faults = stall
		cfg.Health = health
		m, err := Serve(cfg, burst(8, 0.2, 0))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	aware := run(&HealthConfig{})
	if aware.Replicas[0].Assigned != 0 {
		t.Errorf("health-aware router sent %d requests into the stall window", aware.Replicas[0].Assigned)
	}
	if aware.Served != 8 {
		t.Errorf("aware fleet served %d of 8", aware.Served)
	}
	blind := run(nil)
	if blind.Replicas[0].Assigned == 0 {
		t.Error("blind router should keep dispatching into the stall")
	}
	// The blind fleet pays the freeze physically at drain time.
	if blind.P99Latency <= aware.P99Latency {
		t.Errorf("blind P99 %.3f <= aware %.3f: the stall must cost the blind fleet latency",
			blind.P99Latency, aware.P99Latency)
	}
}

// TestCircuitBreakerGatesRestartedReplica runs the breaker end to end:
// after a crash the restarted replica takes no traffic until its
// half-open probe window, and the open is surfaced in the metrics.
func TestCircuitBreakerGatesRestartedReplica(t *testing.T) {
	cfg := homogeneousFleet(2, LeastQueue)
	cfg.Faults = crashSchedule(0, 1, 2) // back up at t=3
	cfg.Retry = &RetryPolicy{}
	cfg.Health = &HealthConfig{FailureThreshold: 1, ProbeAfter: 4} // probe from t=7
	reqs := burst(24, 0.5, 0)                                      // arrivals 0..11.5 straddle the breaker window
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.BreakerOpens != 1 {
		t.Fatalf("breaker opens %d, want 1", m.BreakerOpens)
	}
	if m.Served+m.Dropped != m.Offered {
		t.Fatalf("conservation: served %d + dropped %d != offered %d", m.Served, m.Dropped, m.Offered)
	}
	if m.Served != len(reqs) {
		t.Errorf("served %d of %d, want all (the healthy replica covers the open window)", m.Served, len(reqs))
	}
}

// TestCrashRetryRecoverProperties is the 8-seed crash -> retry ->
// recover property gate (run under -race in CI): for generated fault
// schedules, conservation must hold exactly on both the no-recovery and
// the recovery leg, fault accounting must reconcile, and recovery must
// not serve less than abandonment in aggregate.
func TestCrashRetryRecoverProperties(t *testing.T) {
	type agg struct{ served, aborted, retried, crashes int }
	var on, off agg
	for seed := uint64(1); seed <= 8; seed++ {
		sched, err := faults.Generate(faults.GenConfig{
			Replicas: 3, Horizon: 30,
			CrashRate: 1, RestartDelay: 5,
			StallRate: 1, StallDuration: 2,
			ThrottleRate: 1, ThrottleDuration: 5, ThrottleFactor: 2,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		profile := workload.InteractiveAssistant(6, 150)
		profile.DeadlineSlack = 3
		profile.DeadlineSlackMax = 9
		reqs, err := workload.Generate(profile, seed)
		if err != nil {
			t.Fatal(err)
		}
		run := func(recover bool) Metrics {
			cfg := homogeneousFleet(3, DeadlineAware)
			cfg.Faults = &sched
			if recover {
				cfg.Retry = &RetryPolicy{}
				cfg.Health = &HealthConfig{}
			}
			m, err := Serve(cfg, reqs)
			if err != nil {
				t.Fatalf("seed %d recover=%v: %v", seed, recover, err)
			}
			if m.Offered != len(reqs) {
				t.Fatalf("seed %d recover=%v: offered %d of %d — stream truncated", seed, recover, m.Offered, len(reqs))
			}
			if m.Served+m.Dropped != m.Offered {
				t.Fatalf("seed %d recover=%v: served %d + dropped %d != offered %d — work leaked",
					seed, recover, m.Served, m.Dropped, m.Offered)
			}
			if m.Shed+m.AbortedDropped > m.Dropped {
				t.Fatalf("seed %d recover=%v: shed %d + abortedDropped %d exceed dropped %d",
					seed, recover, m.Shed, m.AbortedDropped, m.Dropped)
			}
			if m.Retried+m.AbortedDropped < m.Aborted {
				t.Fatalf("seed %d recover=%v: aborted %d but only %d retried + %d dropped — aborts leaked",
					seed, recover, m.Aborted, m.Retried, m.AbortedDropped)
			}
			crashEvents := 0
			for _, ev := range sched.Events {
				if ev.Kind == faults.Crash {
					crashEvents++
				}
			}
			if m.Crashes != crashEvents {
				t.Fatalf("seed %d recover=%v: processed %d crashes of %d scheduled", seed, recover, m.Crashes, crashEvents)
			}
			return m
		}
		b, r := run(false), run(true)
		if b.Retried != 0 {
			t.Fatalf("seed %d: no-recovery leg retried %d requests", seed, b.Retried)
		}
		off.served += b.Served
		on.served += r.Served
		on.aborted += r.Aborted
		on.retried += r.Retried
		on.crashes += r.Crashes
	}
	if on.crashes == 0 || on.aborted == 0 {
		t.Fatalf("degenerate run: %d crashes, %d aborts across 8 seeds", on.crashes, on.aborted)
	}
	if on.retried == 0 {
		t.Fatal("recovery legs never retried across 8 seeds")
	}
	if on.served < off.served {
		t.Fatalf("recovery served %d < abandonment %d in aggregate", on.served, off.served)
	}
}

// TestSessionAffinityRePinsBySurvivingWarmthAfterCrash covers recovery
// routing: when a session's pinned replica crashes, its sticky pin is
// displaced immediately (no stale-pin leak), and the re-pin consults
// what survived the wipe — with persistent host DRAM the session returns
// to its old replica for a host-tier restore; after a full wipe the
// replica is as cold as any other.
func TestSessionAffinityRePinsBySurvivingWarmthAfterCrash(t *testing.T) {
	for _, keepHost := range []bool{true, false} {
		tl := &timeline{
			fx:       engine.FaultInjection{Crashes: []float64{5100}, KeepHost: keepHost},
			restarts: []float64{5105},
			deadAt:   math.Inf(1),
		}
		tl.compile()
		crashed, err := newReplica(ReplicaConfig{
			Name: "crashed", Spec: smallSpec(), Device: hw.JetsonAGXOrin64GB(),
		}.withDefaults(0), tieredOpts(), tl)
		if err != nil {
			t.Fatal(err)
		}
		other, err := newReplica(ReplicaConfig{
			Name: "other", Spec: smallSpec(), Device: hw.JetsonAGXOrin64GB(),
		}.withDefaults(1), tieredOpts(), nil)
		if err != nil {
			t.Fatal(err)
		}
		histA := sessHist(1<<40, 2048)
		histB := sessHist(1<<41, 2048)
		histC := sessHist(1<<42, 2048)
		// Session A's history lands on "crashed", then pressure from B and
		// C demotes it entirely to the host tier — the crash-survivable
		// state.
		for i, hist := range [][]uint64{histA, histB, histC} {
			serveTurn(t, crashed, sessTurn(fmt.Sprintf("w%d", i), fmt.Sprintf("s%d", i), float64(i)*1000, hist, 512, 256))
		}
		turn := sessTurn("a1", "s0", 5000, histA, 512+256+128, 64)
		if dev, host := crashed.eng.PeekPrefix(turn.PromptSyms); dev != 0 || host == 0 {
			t.Fatalf("setup: peek = (%d, %d), want (0, >0) — history fully demoted", dev, host)
		}

		ro := &router{replicas: []*replica{crashed, other}, policy: SessionAffinity, tiered: true}
		if got := ro.choose([]int{0, 1}, turn, 5000); got != 0 {
			t.Fatalf("pinned to %d, want 0 (least-pinned, first candidate)", got)
		}

		// The pinned replica crashes mid-session.
		var out Metrics
		cx := &chaos{ro: ro, out: &out}
		cx.crash(0)
		if p := ro.sticky["s0"]; p != -1 {
			t.Fatalf("crash must displace the session's sticky pin, got %d", p)
		}
		if ro.pinned[0] != 0 {
			t.Fatalf("stale pin count %d on the crashed replica", ro.pinned[0])
		}
		turn2 := sessTurn("a2", "s0", 5200, histA, 512+256+128+64, 32)
		dev, host := crashed.eng.PeekPrefix(turn2.PromptSyms)
		if !keepHost {
			// Without persistent DRAM the wipe leaves nothing to return to.
			if dev+host != 0 || ro.warmth(0, turn2, 5200, true) != 0 {
				t.Fatalf("peek (%d, %d) after full wipe, want cold", dev, host)
			}
			continue
		}
		// Re-pin after the restart: the surviving host tier beats cold.
		if dev != 0 || host == 0 {
			t.Fatalf("post-crash peek (%d, %d), want host-resident survivor", dev, host)
		}
		if got := ro.choose([]int{1, 0}, turn2, 5200); got != 0 {
			t.Fatalf("re-pinned to %d, want 0 (host-warm survivor)", got)
		}
		if ro.pinned[0] != 1 || len(ro.sticky) != 1 {
			t.Fatalf("re-pin bookkeeping: pinned %v sticky %d entries", ro.pinned, len(ro.sticky))
		}
	}
}

// TestTakeKeepsFinishesSorted drives random dispatches and crashes,
// restarting and permanent, through one replica and checks that take's
// append leaves the outstanding estimates ascending, as depth's binary
// search and nextFree's head read require.
func TestTakeKeepsFinishesSorted(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 0xf1215))
	takes, crashes := 0, 0
	for trial := 0; trial < 40; trial++ {
		var evs []faults.Event
		for n := rng.IntN(6); n > 0; n-- {
			ev := faults.Event{Kind: faults.Crash, At: rng.Float64() * 40}
			if rng.IntN(4) > 0 {
				ev.Restart = 0.1 + rng.Float64()*5
			}
			evs = append(evs, ev)
		}
		cfg := homogeneousFleet(1, RoundRobin)
		cfg.Faults = &faults.Schedule{Events: evs}
		tls, err := compileFaults(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newReplica(cfg.Replicas[0].withDefaults(0), cfg, tls[0])
		if err != nil {
			t.Fatal(err)
		}
		out := &Metrics{}
		cx := &chaos{ro: &router{replicas: []*replica{r}}, out: out}
		now := 0.0
		for k := 0; k < 60; k++ {
			now += rng.ExpFloat64() * 0.5
			cx.processUpTo(now)
			if r.routableAt(now) && r.depth(now) < r.cfg.Capacity {
				r.take(timed(fmt.Sprintf("t%d-%d", trial, k), now, 16+rng.IntN(512), 1+rng.IntN(200), 0), now)
				takes++
			}
			if !sort.Float64sAreSorted(r.finishes) {
				t.Fatalf("trial %d step %d: finishes out of order: %v", trial, k, r.finishes)
			}
		}
		crashes += out.Crashes
	}
	if takes == 0 || crashes == 0 {
		t.Fatalf("degenerate sample: %d takes, %d crashes", takes, crashes)
	}
}

// TestCrashTimelineAvailability pins availAt across crash downtime: the
// router's wait planner must see through a restart window and never
// offer a permanently-dead replica.
func TestCrashTimelineAvailability(t *testing.T) {
	r := &replica{cfg: ReplicaConfig{}.withDefaults(0)}
	r.tl = &timeline{
		fx:       engine.FaultInjection{Crashes: []float64{10, 20}},
		restarts: []float64{15, math.Inf(1)},
		deadAt:   20,
	}
	r.tl.compile()
	if at, never := r.availAt(5); never || at != 5 {
		t.Errorf("availAt(5) = %v/%v, want 5/false", at, never)
	}
	if at, never := r.availAt(12); never || at != 15 {
		t.Errorf("availAt(12) = %v/%v, want 15/false (restart)", at, never)
	}
	if _, never := r.availAt(20); !never {
		t.Error("availAt at the permanent crash must report never")
	}
	if r.routableAt(12) {
		t.Error("down replica must not be routable")
	}
	if !r.routableAt(16) {
		t.Error("restarted replica must be routable between crashes")
	}
	if r.liveAt(25) {
		t.Error("permanently crashed replica must not count live")
	}
	if !r.liveAt(12) {
		t.Error("replica awaiting restart must still count live")
	}
}

// TestThrottleAwareFinishEstimates pins that finishEstimate integrates
// the replica's fault windows (engine.FaultInjection.FinishAfter) only
// under health-aware routing, so a blind fleet's estimates are untouched.
func TestThrottleAwareFinishEstimates(t *testing.T) {
	tl := &timeline{fx: engine.FaultInjection{Throttles: []engine.ThrottleWindow{{From: 10, To: 20, Factor: 2}}}}
	tl.compile()
	r := &replica{cfg: ReplicaConfig{}.withDefaults(0), decodePerTok: 1, tl: tl}
	tr := engine.TimedRequest{Request: engine.Request{OutputTokens: 12}}
	if got := r.finishEstimate(tr, 0); got != 12 {
		t.Errorf("blind finishEstimate = %v, want unstretched 12", got)
	}
	r.hs = &healthState{cfg: HealthConfig{}.withDefaults()}
	if got := r.finishEstimate(tr, 0); math.Abs(got-14) > 1e-9 {
		t.Errorf("health-aware finishEstimate = %v, want throttle-integrated 14", got)
	}
}
