package fleet

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
	"edgereasoning/internal/stats"
	"edgereasoning/internal/telemetry"
	"edgereasoning/internal/workload"
)

// finishes maps each served request ID to its completion instant.
func finishes(t *testing.T, m Metrics, reqs []engine.TimedRequest) map[label.Label]float64 {
	t.Helper()
	arrival := make(map[label.Label]float64, len(reqs))
	for _, tr := range reqs {
		arrival[tr.ID] = tr.Arrival
	}
	out := make(map[label.Label]float64)
	for _, rm := range m.Replicas {
		for _, q := range rm.Requests {
			out[q.ID] = arrival[q.ID] + q.Latency()
		}
	}
	return out
}

// TestDisplacedSessionRePinsToLiveHistory runs a 3-replica tiered
// SessionAffinity fleet where health-aware routing displaces session s
// twice: a stall on r0 moves its second turn to r1, and a stall on r1
// displaces its third turn while r0 still holds the first turn's
// history. The re-pin must read that live history and return to r0,
// although least-pinned placement alone would pick the idle r2.
func TestDisplacedSessionRePinsToLiveHistory(t *testing.T) {
	cfg := homogeneousFleet(3, SessionAffinity)
	cfg.PrefixCache = true
	cfg.HostTierBlocks = 256
	// Until t=30 only r0 is warm, so every first turn pins there.
	cfg.Replicas[1].warmupDelay = 30
	cfg.Replicas[2].warmupDelay = 30
	cfg.Health = &HealthConfig{}
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{Replica: 0, Kind: faults.Stall, At: 40, Duration: 3},
		{Replica: 1, Kind: faults.Stall, At: 60, Duration: 3},
	}}
	histS := sessHist(1<<40, 4096)
	reqs := []engine.TimedRequest{
		sessTurn(label.Think(0, 1), "s", 0, histS, 256, 64),
		sessTurn(label.Think(1, 1), "a", 0.1, sessHist(1<<41, 512), 256, 64),
		sessTurn(label.Think(2, 1), "b", 0.2, sessHist(1<<42, 512), 256, 64),
		sessTurn(label.Think(0, 2), "s", 41, histS, 352, 64),
		sessTurn(label.Think(0, 3), "s", 61, histS, 448, 64),
	}
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != len(reqs) {
		t.Fatalf("served %d of %d", m.Served, len(reqs))
	}
	if got := assignments(m); !reflect.DeepEqual(got, []int{4, 1, 0}) {
		t.Fatalf("assignments %v, want [4 1 0]: s3 must return to r0, which holds s1's history", got)
	}
	if m.Replicas[0].SavedPrefillTokens < 256+64 {
		t.Errorf("r0 saved %d prefill tokens, want s3 to reuse s1's %d-token history",
			m.Replicas[0].SavedPrefillTokens, 256+64)
	}
}

// TestCrashAbortsWhatTheEngineHolds scripts one crash on a one-replica
// fleet under a t=0 burst: requests the engine finished before the crash
// are served, not aborted; the aborts are exactly the requests it still
// held at the crash instant; no completion lands inside the downtime;
// and traffic after the restart is served normally.
func TestCrashAbortsWhatTheEngineHolds(t *testing.T) {
	burstReqs := burst(12, 0, 0)
	cfg := homogeneousFleet(1, LeastQueue)
	cfg.KeepRequests = true
	clean, err := Serve(cfg, burstReqs)
	if err != nil {
		t.Fatal(err)
	}
	done := finishes(t, clean, burstReqs)
	var order []float64
	for _, f := range done {
		order = append(order, f)
	}
	sort.Float64s(order)
	crash := (order[3] + order[4]) / 2 // four served, eight held
	const restart = 5
	reqs := append([]engine.TimedRequest(nil), burstReqs...)
	for i := 0; i < 4; i++ {
		reqs = append(reqs, timed(label.Stream(i), crash+restart+1+float64(i), 64, 40, 0))
	}
	cfg.Faults = crashSchedule(0, crash, restart)
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Dropped != m.Offered || m.Offered != len(reqs) {
		t.Fatalf("conservation: served %d + dropped %d != offered %d", m.Served, m.Dropped, m.Offered)
	}
	if m.Aborted != 8 || m.AbortedDropped != 8 || m.Served != 8 {
		t.Fatalf("aborted %d (dropped %d), served %d; want 8 held at the crash aborted, 4 early + 4 late served",
			m.Aborted, m.AbortedDropped, m.Served)
	}
	got := finishes(t, m, reqs)
	for _, tr := range burstReqs {
		if f, ok := got[tr.ID]; ok != (done[tr.ID] < crash) || ok && f != done[tr.ID] {
			t.Errorf("%s: served %v at %v; fault-free finish %v, crash %v", tr.ID, ok, f, done[tr.ID], crash)
		}
	}
	for id, f := range got {
		if f >= crash && f < crash+restart {
			t.Errorf("%s completed at %v, inside the downtime [%v, %v)", id, f, crash, crash+restart)
		}
	}
	if m.LostWorkSeconds <= 0 {
		t.Error("aborting the requests in flight must account their executed work")
	}
}

// propertyGrid calls check for seeds 1–8 × every routing policy × every
// admission discipline, with a config of 3 heterogeneous replicas (retry
// on, per-request records kept so that deep-equal checks compare them)
// and that seed's 120-request interactive stream at 6 QPS with 3–9 s
// of deadline slack: enough load that most runs miss deadlines and the
// Shed discipline sheds.
func propertyGrid(t *testing.T, check func(seed uint64, cfg func() Config, reqs []engine.TimedRequest)) {
	t.Helper()
	spec := model.MustLookup(model.Qwen25_1_5Bit)
	for seed := uint64(1); seed <= 8; seed++ {
		profile := workload.InteractiveAssistant(6, 120)
		profile.DeadlineSlack = 3
		profile.DeadlineSlackMax = 9
		reqs, err := workload.Generate(profile, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range Policies() {
			for _, a := range Admissions() {
				check(seed, func() Config {
					return Config{Replicas: HeterogeneousReplicas(3, DefaultDevices(), spec),
						Policy: p, Admission: a, Retry: &RetryPolicy{}, KeepRequests: true}
				}, reqs)
			}
		}
	}
}

// TestZeroRateFaultsMatchFaultsOff: a generated schedule with every rate
// at zero injects nothing, so over the property grid, with health-aware
// routing on and off, the run deep-equals one with Faults nil.
func TestZeroRateFaultsMatchFaultsOff(t *testing.T) {
	propertyGrid(t, func(seed uint64, base func() Config, reqs []engine.TimedRequest) {
		sched, err := faults.Generate(faults.GenConfig{Replicas: 3, Horizon: reqs[len(reqs)-1].Arrival}, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, health := range []bool{false, true} {
			cfg := base()
			if health {
				cfg.Health = &HealthConfig{}
			}
			off, err := Serve(cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = &sched
			on, err := Serve(cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(on, off) {
				t.Fatalf("seed %d %s/%s health %v: zero-rate faults perturbed the run:\n on %+v\noff %+v",
					seed, cfg.Policy, cfg.Admission, health, on, off)
			}
		}
	})
}

// TestTracedMatchesUntraced: tracing only records, so over the property
// grid with generated crashes, stalls and throttles, with health-aware
// routing on and off, a traced run's Metrics deep-equal the untraced
// run's, its spans are well formed and no track drops a span. Keeping
// per-request records only records too: the untraced run also matches
// the run without KeepRequests apart from the records (matchesLean).
func TestTracedMatchesUntraced(t *testing.T) {
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
		for _, health := range []bool{false, true} {
			cfg := base()
			cfg.Faults = &sched
			if health {
				cfg.Health = &HealthConfig{}
			}
			name := fmt.Sprintf("seed %d %s/%s health %v", seed, cfg.Policy, cfg.Admission, health)
			plain, err := Serve(cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			matchesLean(t, name, cfg, reqs, plain)
			tra := telemetry.New(telemetry.Config{})
			cfg.Trace = tra
			traced, err := Serve(cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(traced, plain) {
				t.Fatalf("%s: tracing perturbed the run:\ntraced %+v\n plain %+v", name, traced, plain)
			}
			if err := telemetry.ValidateSpans(tra); err != nil {
				t.Fatalf("%s: recorded spans malformed: %v", name, err)
			}
			for _, tk := range tra.Tracks() {
				if tk.Dropped() > 0 {
					t.Fatalf("%s: track %s dropped %d spans", name, tk.Name(), tk.Dropped())
				}
			}
			retried += traced.Retried
		}
	})
	if retried == 0 {
		t.Fatal("degenerate grid: no run retried a request")
	}
}

// TestAutoscaleMinEqualsMaxMatchesFixedPool: an autoscaler pinned at
// Min = Max = the pool size never provisions or retires, so over the
// property grid its Metrics deep-equal the fixed pool's apart from the
// autoscale accounting, which must bill all three replicas for the whole
// run and log no scale events.
func TestAutoscaleMinEqualsMaxMatchesFixedPool(t *testing.T) {
	spec := model.MustLookup(model.Qwen25_1_5Bit)
	propertyGrid(t, func(seed uint64, base func() Config, reqs []engine.TimedRequest) {
		cfg := base()
		fixed, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Autoscale = &AutoscaleConfig{Min: 3, Max: 3, Spec: spec}
		elastic, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seed %d %s/%s", seed, cfg.Policy, cfg.Admission)
		if elastic.PeakReplicas != 3 || len(elastic.ScaleEvents) != 0 || elastic.ReplicaSeconds != 3*elastic.WallTime {
			t.Fatalf("%s: peak %d, %d scale events, %v replica-seconds over wall %v; want 3, none, 3 × wall",
				name, elastic.PeakReplicas, len(elastic.ScaleEvents), elastic.ReplicaSeconds, elastic.WallTime)
		}
		elastic.PeakReplicas, elastic.ScaleEvents, elastic.ReplicaSeconds = 0, nil, 0
		if !reflect.DeepEqual(elastic, fixed) {
			t.Fatalf("%s: Min = Max autoscaler diverged from the fixed pool:\nelastic %+v\n  fixed %+v", name, elastic, fixed)
		}
	})
}

// TestFleetTotalsAreReplicaSums: over the property grid with generated
// crashes, stalls and throttles, the fleet's counters are the sums of its
// replicas' runs (DeadlinesTotal also counts each dropped deadline-bearing
// request), WallTime is the latest replica clock, TotalEnergy and Crashes
// fold in replica order, and every offered request is served or dropped.
func TestFleetTotalsAreReplicaSums(t *testing.T) {
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
		m, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seed %d %s/%s", seed, cfg.Policy, cfg.Admission)
		if m.Served+m.Dropped != m.Offered || m.Offered != len(reqs) {
			t.Fatalf("%s: served %d + dropped %d != offered %d of %d", name, m.Served, m.Dropped, m.Offered, len(reqs))
		}
		var sum engine.ServeCounters
		var wall, energy float64
		crashes := 0
		served := map[label.Label]bool{}
		for _, rm := range m.Replicas {
			sum.Add(rm.ServeCounters)
			wall = max(wall, rm.WallTime)
			energy += rm.TotalEnergy
			crashes += rm.Crashes
			for _, q := range rm.Requests {
				served[q.ID] = true
			}
		}
		dropped := 0
		for _, tr := range reqs {
			if !served[tr.ID] && tr.Deadline > 0 {
				dropped++
			}
		}
		sum.DeadlinesTotal += dropped
		if m.ServeCounters != sum {
			t.Fatalf("%s: fleet counters %+v, replica sums %+v", name, m.ServeCounters, sum)
		}
		if m.WallTime != wall || m.TotalEnergy != energy || m.Crashes != crashes {
			t.Fatalf("%s: wall %v energy %v crashes %d, replicas fold to %v, %v, %d",
				name, m.WallTime, m.TotalEnergy, m.Crashes, wall, energy, crashes)
		}
	})
}

// TestServeCountersAddCoversEveryField gives each counter a distinct
// value and adds the struct to itself: every field must double, so a
// counter added to engine.ServeCounters cannot miss the fleet total. No
// field of Metrics or ReplicaMetrics may shadow a promoted counter
// either, so a replica's BusyTime is the engine's running sum.
func TestServeCountersAddCoversEveryField(t *testing.T) {
	var c engine.ServeCounters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 1.5)
		default:
			t.Fatalf("counter %s has kind %s, not int or float64", v.Type().Field(i).Name, f.Kind())
		}
	}
	want := c
	c.Add(c)
	got := reflect.ValueOf(c)
	mt, rt := reflect.TypeOf(Metrics{}), reflect.TypeOf(ReplicaMetrics{})
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		w, g := reflect.ValueOf(want).Field(i), got.Field(i)
		if (g.CanInt() && g.Int() != 2*w.Int()) || (g.CanFloat() && g.Float() != 2*w.Float()) {
			t.Errorf("Add left %s at %v, want twice %v", name, g, w)
		}
		if f, ok := mt.FieldByName(name); !ok || len(f.Index) != 2 {
			t.Errorf("Metrics.%s is not the embedded engine counter", name)
		}
		if f, ok := rt.FieldByName(name); !ok || len(f.Index) != 3 {
			t.Errorf("ReplicaMetrics.%s is not the embedded engine counter", name)
		}
	}
}

// offer is one dispatch as its replica's engine received it.
type offer struct {
	tr engine.TimedRequest
	at float64
}

// tracedServe serves reqs on a traced fault-free fleet and rebuilds the
// sub-stream each replica was dispatched, in dispatch order: the
// ingress queue spans end at the dispatch instants, and each request
// span's track names its replica.
func tracedServe(t *testing.T, cfg Config, reqs []engine.TimedRequest) (Metrics, map[string][]offer) {
	t.Helper()
	tra := telemetry.New(telemetry.Config{})
	cfg.Trace = tra
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[label.Label]engine.TimedRequest, len(reqs))
	for _, tr := range reqs {
		byID[tr.ID] = tr
	}
	replicaOf := map[label.Label]string{}
	var queued []telemetry.Span
	for _, tk := range tra.Tracks() {
		if tk.Dropped() > 0 {
			t.Fatalf("track %s dropped %d spans", tk.Name(), tk.Dropped())
		}
		for _, sp := range tk.Spans() {
			switch {
			case tk.Name() == "ingress" && sp.Kind == telemetry.KindQueue:
				queued = append(queued, sp)
			case sp.Kind == telemetry.KindRequest:
				replicaOf[sp.ID] = tk.Name()
			}
		}
	}
	if len(queued) != m.Served || len(replicaOf) != m.Served {
		t.Fatalf("trace holds %d dispatches and %d served requests, metrics %d", len(queued), len(replicaOf), m.Served)
	}
	sub := map[string][]offer{}
	for _, sp := range queued {
		r := replicaOf[sp.ID]
		sub[r] = append(sub[r], offer{byID[sp.ID], sp.End})
	}
	return m, sub
}

// TestReplicasMatchStandaloneServe: on a fault-free, untiered fleet each
// replica's ServeMetrics equals engine.ServeSource over the sub-stream it
// was dispatched, arrivals set to the dispatch instants, once each
// request's ingress wait (dispatch − arrival) is added to its latency
// and queue time and the percentiles are recomputed.
func TestReplicasMatchStandaloneServe(t *testing.T) {
	profile := workload.InteractiveAssistant(6, 120)
	profile.DeadlineSlack = 3
	profile.DeadlineSlackMax = 9
	reqs, err := workload.Generate(profile, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.MustLookup(model.Qwen25_1_5Bit)
	for _, tc := range []struct {
		policy    Policy
		admission Admission
	}{{LeastQueue, FIFO}, {DeadlineAware, EDF}, {RoundRobin, SJF}} {
		cfg := Config{Replicas: HeterogeneousReplicas(3, DefaultDevices(), spec), Policy: tc.policy, Admission: tc.admission,
			KeepRequests: true}
		for i := range cfg.Replicas {
			cfg.Replicas[i].capacity = 2 // deep ingress waits
		}
		m, sub := tracedServe(t, cfg, reqs)
		waited := false
		for i, rm := range m.Replicas {
			rc := cfg.Replicas[i].withDefaults(i)
			eng, err := engine.New(engine.Config{Spec: rc.Spec, Device: rc.Device})
			if err != nil {
				t.Fatal(err)
			}
			var stream []engine.TimedRequest
			wait := map[label.Label]float64{}
			for _, o := range sub[rm.Name] {
				wait[o.tr.ID] = o.at - o.tr.Arrival
				o.tr.Arrival = o.at
				stream = append(stream, o.tr)
			}
			want, err := eng.ServeSource(engine.NewSliceSource(stream), maxBatch,
				tc.admission.localDiscipline(tc.policy), engine.ServeOpts{})
			if err != nil {
				t.Fatal(err)
			}
			delayed := false
			for j := range want.Requests {
				if d := wait[want.Requests[j].ID]; d > 0 {
					want.Requests[j].QueueTime += d
					want.Latencies[j] += d
					delayed = true
				}
			}
			if delayed {
				waited = true
				want.MeanLatency = stats.Mean(want.Latencies)
				want.P50Latency, want.P95Latency, want.P99Latency = stats.Percentiles3(want.Latencies)
			}
			if !reflect.DeepEqual(rm.ServeMetrics, want) {
				t.Fatalf("%s/%s replica %s diverged from its standalone replay:\n got %+v\nwant %+v",
					tc.policy, tc.admission, rm.Name, rm.ServeMetrics, want)
			}
		}
		if !waited {
			t.Fatalf("%s/%s: no ingress wait — the fold is untested", tc.policy, tc.admission)
		}
	}
}

// TestWarmthReadCommitsTheReadReplica pins the one place a tiered,
// fault-free fleet observes a replica it does not dispatch to: session
// s's second turn finds its replica r0 full and re-pins, reading the
// warmth of r1 — still decoding x's long turn, its last dispatch — and
// of the idle r2, which wins on fewer pinned sessions. The read
// advances r1's open run to the re-pin instant, capping its decode
// chunks there, so r1 matches a standalone run advanced to that instant
// before closing and not one closed right after its last offer; r0 and
// r2, never read past their last dispatch, match the plain replay.
func TestWarmthReadCommitsTheReadReplica(t *testing.T) {
	cfg := homogeneousFleet(3, SessionAffinity)
	cfg.PrefixCache = true
	cfg.HostTierBlocks = 256
	cfg.KeepRequests = true
	cfg.Replicas[0].capacity = 1
	hist := sessHist(1<<40, 2048)
	const repin = 2.0
	reqs := []engine.TimedRequest{
		sessTurn(label.Think(0, 1), "s", 0, hist, 256, 512),
		sessTurn(label.Think(8, 1), "x", 0.01, sessHist(1<<41, 2048), 256, 512),
		sessTurn(label.Think(0, 2), "s", repin, hist, 256, 64),
	}
	m, sub := tracedServe(t, cfg, reqs)
	if got := assignments(m); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("assignments %v, want s1 on r0, x1 on r1, the re-pinned s2 on r2", got)
	}
	for i, rm := range m.Replicas {
		rc := cfg.Replicas[i].withDefaults(i)
		run := func(horizon float64) engine.ServeMetrics {
			eng, err := engine.New(engine.Config{Spec: rc.Spec, Device: rc.Device,
				PrefixCache: true, HostTierBlocks: cfg.HostTierBlocks})
			if err != nil {
				t.Fatal(err)
			}
			sv := eng.Open(maxBatch, engine.FCFS, engine.ServeOpts{})
			for _, o := range sub[rm.Name] {
				if err := sv.AdvanceTo(o.at); err != nil {
					t.Fatal(err)
				}
				sv.Offer(o.tr, o.at)
			}
			if err := sv.AdvanceTo(horizon); err != nil {
				t.Fatal(err)
			}
			sm, err := sv.Close()
			if err != nil {
				t.Fatal(err)
			}
			return sm
		}
		closed := run(0)
		if rm.Name != m.Replicas[1].Name {
			if !reflect.DeepEqual(rm.ServeMetrics, closed) {
				t.Fatalf("replica %s diverged from its replay:\n got %+v\nwant %+v", rm.Name, rm.ServeMetrics, closed)
			}
			continue
		}
		if want := run(repin); !reflect.DeepEqual(rm.ServeMetrics, want) {
			t.Fatalf("read replica %s diverged from its replay advanced to the read:\n got %+v\nwant %+v", rm.Name, rm.ServeMetrics, want)
		}
		if reflect.DeepEqual(rm.ServeMetrics, closed) || rm.Events <= closed.Events {
			t.Fatalf("read replica %s: %d events, closed-at-last-offer replay %d; the read must cap its chunks",
				rm.Name, rm.Events, closed.Events)
		}
	}
}
