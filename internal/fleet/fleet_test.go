package fleet

import (
	"math"
	"reflect"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
	"edgereasoning/internal/workload"
)

func timed(id label.Label, arrival float64, prompt, output int, deadline float64) engine.TimedRequest {
	return engine.TimedRequest{
		Request:  engine.Request{ID: id, PromptTokens: prompt, OutputTokens: output},
		Arrival:  arrival,
		Deadline: deadline,
	}
}

// smallSpec keeps the per-test engines cheap.
func smallSpec() model.Spec { return model.MustLookup(model.Qwen25_1_5Bit) }

func homogeneousFleet(n int, policy Policy) Config {
	cfgs := make([]ReplicaConfig, n)
	for i := range cfgs {
		cfgs[i] = ReplicaConfig{Spec: smallSpec(), Device: hw.JetsonAGXOrin64GB()}
	}
	return Config{Replicas: cfgs, Policy: policy}
}

func burst(n int, gap float64, deadline float64) []engine.TimedRequest {
	reqs := make([]engine.TimedRequest, n)
	for i := range reqs {
		arrival := float64(i) * gap
		var d float64
		if deadline > 0 {
			d = arrival + deadline
		}
		reqs[i] = timed(label.Question(i), arrival, 64, 40, d)
	}
	return reqs
}

func TestPolicyParseRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got != p {
			t.Errorf("ParsePolicy(%q) = %v", p.String(), got)
		}
	}
	if _, err := ParsePolicy("chaos"); err == nil {
		t.Error("unknown policy must be rejected")
	}
}

func TestLocalDiscipline(t *testing.T) {
	if DeadlineAware.LocalDiscipline() != engine.EDF {
		t.Error("deadline-aware must schedule EDF locally")
	}
	if RoundRobin.LocalDiscipline() != engine.FCFS {
		t.Error("round-robin must schedule FCFS locally")
	}
}

func TestHeterogeneousReplicasCycleAndQuantize(t *testing.T) {
	devs := DefaultDevices()
	cfgs := HeterogeneousReplicas(4, devs, smallSpec())
	if len(cfgs) != 4 {
		t.Fatalf("got %d replicas", len(cfgs))
	}
	if cfgs[3].Device.Name != devs[0].Name {
		t.Errorf("device cycling broken: replica 3 on %s", cfgs[3].Device.Name)
	}
	if cfgs[0].Spec.IsQuantized() || !cfgs[1].Spec.IsQuantized() {
		t.Error("quantization must alternate FP16, W4, ...")
	}
}

func TestDeviceByName(t *testing.T) {
	for _, name := range DeviceNames() {
		d, err := DeviceByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: invalid descriptor: %v", name, err)
		}
	}
	if _, err := DeviceByName("tpu"); err == nil {
		t.Error("unknown device must be rejected")
	}
	capped, err := DeviceByName("orin-30w")
	if err != nil {
		t.Fatal(err)
	}
	if full, _ := DeviceByName("orin"); capped.PeakFP16FLOPS >= full.PeakFP16FLOPS {
		t.Error("power-capped Orin must derate compute")
	}
}

func TestServeEmptyStream(t *testing.T) {
	m, err := Serve(homogeneousFleet(2, RoundRobin), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 || m.Dropped != 0 {
		t.Errorf("empty stream served %d / dropped %d", m.Served, m.Dropped)
	}
	if m.HitRate() != 1 {
		t.Errorf("empty stream hit rate = %v, want 1", m.HitRate())
	}
}

func TestServeNoReplicas(t *testing.T) {
	if _, err := Serve(Config{}, burst(1, 1, 0)); err == nil {
		t.Error("empty fleet must be rejected")
	}
}

func TestServeNegativeArrivalRejected(t *testing.T) {
	if _, err := Serve(homogeneousFleet(1, RoundRobin), []engine.TimedRequest{timed(label.Question(0), -1, 64, 10, 0)}); err == nil {
		t.Error("negative arrival must be rejected")
	}
}

func TestServeAllPoliciesCompleteEverything(t *testing.T) {
	reqs := burst(12, 2, 120)
	for _, p := range Policies() {
		m, err := Serve(homogeneousFleet(3, p), reqs)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if m.Served != len(reqs) || m.Dropped != 0 {
			t.Errorf("%s: served %d dropped %d, want %d/0", p, m.Served, m.Dropped, len(reqs))
		}
		if !(m.P50Latency <= m.P95Latency && m.P95Latency <= m.P99Latency) {
			t.Errorf("%s: percentiles out of order: %v %v %v", p, m.P50Latency, m.P95Latency, m.P99Latency)
		}
		if m.TotalEnergy <= 0 || m.WallTime <= 0 {
			t.Errorf("%s: energy %.2f / wall %.2f not accounted", p, m.TotalEnergy, m.WallTime)
		}
		if hr := m.HitRate(); hr < 0 || hr > 1 {
			t.Errorf("%s: hit rate %v out of range", p, hr)
		}
		total := 0
		for _, rm := range m.Replicas {
			total += rm.Served
		}
		if total != len(reqs) {
			t.Errorf("%s: assignments sum to %d, want %d", p, total, len(reqs))
		}
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	m, err := Serve(homogeneousFleet(2, RoundRobin), burst(10, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, rm := range m.Replicas {
		if rm.Served != 5 {
			t.Errorf("%s assigned %d, want 5", rm.Name, rm.Served)
		}
	}
	if m.Imbalance > 0.05 {
		t.Errorf("homogeneous round-robin imbalance = %.3f, want ~0", m.Imbalance)
	}
}

func TestLatencyWeightedFavorsFastReplica(t *testing.T) {
	fast, _ := DeviceByName("orin")
	slow, _ := DeviceByName("orin-15w")
	cfg := Config{
		Replicas: []ReplicaConfig{
			{Spec: smallSpec(), Device: fast},
			{Spec: smallSpec(), Device: slow},
		},
		Policy: LatencyWeighted,
	}
	m, err := Serve(cfg, burst(30, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Replicas[0].Served <= m.Replicas[1].Served {
		t.Errorf("latency-weighted sent %d to fast vs %d to slow; fast must get more",
			m.Replicas[0].Served, m.Replicas[1].Served)
	}
}

func TestLeastQueueTracksBacklog(t *testing.T) {
	// A tight burst at capacity-limited replicas: least-queue must never
	// let one replica's outstanding count exceed the other's by > 1 at
	// dispatch time, which shows up as a near-even final split.
	m, err := Serve(homogeneousFleet(2, LeastQueue), burst(20, 0.1, 0))
	if err != nil {
		t.Fatal(err)
	}
	diff := m.Replicas[0].Served - m.Replicas[1].Served
	if diff < -1 || diff > 1 {
		t.Errorf("least-queue split %d/%d, want near-even", m.Replicas[0].Served, m.Replicas[1].Served)
	}
}

func TestWarmupKeepsReplicaColdThenRoutable(t *testing.T) {
	cfg := homogeneousFleet(2, RoundRobin)
	cfg.Replicas[1].warmupDelay = 50
	reqs := append(burst(6, 2, 0), timed(label.Question(6), 100, 64, 40, 0))
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Replicas[0].Served != 6 {
		t.Errorf("cold replica stole traffic: warm got %d of 6 early requests", m.Replicas[0].Served)
	}
	if m.Replicas[1].Served != 1 {
		t.Errorf("warmed-up replica got %d requests, want the late one", m.Replicas[1].Served)
	}
}

func TestAllReplicasDeadDropsWithDeadlineAccounting(t *testing.T) {
	cfg := homogeneousFleet(1, DeadlineAware)
	permanentCrash(&cfg, 0, 0.5) // dead before anything arrives
	reqs := []engine.TimedRequest{
		timed(label.Question(0), 1, 64, 40, 31),
		timed(label.Question(1), 2, 64, 40, 32),
		timed(label.Question(2), 3, 64, 40, 33),
	}
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 0 || m.Dropped != 3 {
		t.Fatalf("served %d dropped %d, want 0/3", m.Served, m.Dropped)
	}
	if m.DeadlinesTotal != 3 || m.DeadlinesMet != 0 {
		t.Errorf("dropped deadline requests must count as missed: met %d / total %d", m.DeadlinesMet, m.DeadlinesTotal)
	}
	if m.HitRate() != 0 {
		t.Errorf("hit rate = %v, want 0", m.HitRate())
	}
}

func TestCapacityCausesHeadOfLineBlockingNotDrops(t *testing.T) {
	cfg := homogeneousFleet(1, RoundRobin)
	cfg.Replicas[0].capacity = 1
	m, err := Serve(cfg, burst(10, 0.01, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped != 0 || m.Served != 10 {
		t.Errorf("capacity must delay, not drop: served %d dropped %d", m.Served, m.Dropped)
	}
	// With capacity 1 the replica serves strictly serially, so latencies
	// climb roughly linearly: the tail must include the queue wait
	// (p99 ≈ 10 service times against p50 ≈ 5.5).
	if m.P99Latency < 1.5*m.P50Latency {
		t.Errorf("head-of-line blocking should inflate tail latency: p50 %.3f p99 %.3f", m.P50Latency, m.P99Latency)
	}
}

func TestDeadlineAwareBeatsRoundRobinOnHeterogeneousFleet(t *testing.T) {
	profile := workload.InteractiveAssistant(10, 150)
	profile.DeadlineSlack = 2
	profile.DeadlineSlackMax = 10
	reqs, err := workload.Generate(profile, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p Policy) Metrics {
		cfg := Config{Replicas: HeterogeneousReplicas(4, DefaultDevices(), smallSpec()), Policy: p}
		m, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		return m
	}
	rr := run(RoundRobin)
	dl := run(DeadlineAware)
	if dl.HitRate() < rr.HitRate() {
		t.Errorf("deadline-aware hit rate %.3f below round-robin %.3f", dl.HitRate(), rr.HitRate())
	}
	if dl.P99Latency > rr.P99Latency {
		t.Errorf("deadline-aware p99 %.2f above round-robin %.2f", dl.P99Latency, rr.P99Latency)
	}
	if rr.HitRate() >= 1 {
		t.Errorf("workload too easy: round-robin already hits 100%%, comparison is vacuous")
	}
}

func TestServeDeterministic(t *testing.T) {
	profile := workload.InteractiveAssistant(0.8, 60)
	profile.DeadlineSlack = 5
	profile.DeadlineSlackMax = 20
	reqs, err := workload.Generate(profile, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Policies() {
		cfg := Config{Replicas: HeterogeneousReplicas(3, DefaultDevices(), smallSpec()), Policy: p, KeepRequests: true}
		a, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		b, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: repeated runs differ", p)
		}
	}
}

func TestImbalanceMath(t *testing.T) {
	if v := imbalance([]float64{5, 5, 5}); v != 0 {
		t.Errorf("even spread imbalance = %v, want 0", v)
	}
	if v := imbalance([]float64{0, 10}); math.Abs(v-1) > 1e-12 {
		t.Errorf("imbalance = %v, want 1 (std == mean)", v)
	}
	if v := imbalance(nil); v != 0 {
		t.Errorf("empty imbalance = %v, want 0", v)
	}
}
