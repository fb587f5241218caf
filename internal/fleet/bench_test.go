package fleet

import (
	"fmt"
	"testing"

	"edgereasoning/internal/faults"
	"edgereasoning/internal/workload"
)

// BenchmarkAutoscaleServe measures the elastic serving path end to end:
// ingress dispatch with shedding, burst-driven provisioning (engine
// construction and probe calibration included, as a real scale-up would
// pay), idle retirement, and the concurrent replica drain. Frozen into
// BENCH_serve.json and gated on allocs/op by scripts/bench.sh.
func BenchmarkAutoscaleServe(b *testing.B) {
	background := workload.InteractiveAssistant(0.3, 20)
	background.DeadlineSlack = 3
	background.DeadlineSlackMax = 8
	spike := workload.InteractiveAssistant(10, 60)
	spike.DeadlineSlack = 3
	spike.DeadlineSlackMax = 8
	reqs, err := workload.Bursty(background, spike, 30, 7)
	if err != nil {
		b.Fatal(err)
	}
	// Built once outside the timed loop: Config retains pointer fields
	// (Trace, Autoscale), so a literal constructed per iteration escapes
	// to the heap and the bench would charge that fixture allocation to
	// the serving path. The autoscaler copies the config up front and
	// never mutates it, so sharing one across iterations is safe.
	autoscale := &AutoscaleConfig{
		Min: 1, Max: 4,
		Spec:            smallSpec(),
		ColdStart:       2,
		DepthPerReplica: 2,
		IdleRetire:      10,
		Cooldown:        0.5,
	}
	mk := func() Config {
		cfg := homogeneousFleet(1, DeadlineAware)
		cfg.Admission = Shed
		cfg.Autoscale = autoscale
		return cfg
	}
	var sink Metrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Serve(mk(), reqs)
		if err != nil {
			b.Fatal(err)
		}
		sink = m
	}
	if sink.Served+sink.Dropped != len(reqs) {
		b.Fatalf("conservation broke under the bench config: %d + %d != %d", sink.Served, sink.Dropped, len(reqs))
	}
}

// BenchmarkChaosServe measures the fault-tolerant serving path end to
// end: a fixed generated fault schedule (crashes, stalls, throttles)
// over a deadline-bearing stream with retry re-admission, circuit
// breakers, and health-aware routing all active — the full recovery
// machinery on top of dispatch and the concurrent drain. Frozen into
// BENCH_serve.json and gated on allocs/op by scripts/bench.sh.
func BenchmarkChaosServe(b *testing.B) {
	profile := workload.InteractiveAssistant(6, 150)
	profile.DeadlineSlack = 3
	profile.DeadlineSlackMax = 9
	reqs, err := workload.Generate(profile, 7)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := faults.Generate(faults.GenConfig{
		Replicas: 3, Horizon: 30,
		CrashRate: 2, RestartDelay: 5,
		StallRate: 2, StallDuration: 2,
		ThrottleRate: 2, ThrottleDuration: 5, ThrottleFactor: 2,
	}, 7)
	if err != nil {
		b.Fatal(err)
	}
	mk := func() Config {
		cfg := homogeneousFleet(3, DeadlineAware)
		cfg.Admission = Shed
		cfg.Faults = &sched
		cfg.Retry = &RetryPolicy{}
		cfg.Health = &HealthConfig{}
		return cfg
	}
	var sink Metrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Serve(mk(), reqs)
		if err != nil {
			b.Fatal(err)
		}
		sink = m
	}
	if sink.Served+sink.Dropped != len(reqs) {
		b.Fatalf("conservation broke under chaos: %d + %d != %d", sink.Served, sink.Dropped, len(reqs))
	}
	if sink.Crashes == 0 || sink.Retried == 0 {
		b.Fatalf("degenerate chaos bench: %d crashes, %d retried", sink.Crashes, sink.Retried)
	}
}

// BenchmarkFaultedFleetSoak streams the perfbench fleet-chaos
// configuration — three replicas, least-queue routing, shed admission,
// retry and health, 4 QPS with 2–6 s deadline slack, and fault rates
// scaled to the stream's horizon — at 1e4 and 1e5 requests, and
// reports ns per request. With every fault query indexed, the cost per
// request should not grow with the stream. Not gated in
// BENCH_serve.json.
func BenchmarkFaultedFleetSoak(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("requests=%d", size), func(b *testing.B) {
			profile := workload.InteractiveAssistant(4, size)
			profile.DeadlineSlack = 2
			profile.DeadlineSlackMax = 6
			scale := float64(size) / 100_000
			sched, err := faults.Generate(faults.GenConfig{
				Replicas: 3, Horizon: 20_000 * scale,
				CrashRate: 20 * scale, RestartDelay: 10,
				StallRate: 40 * scale, StallDuration: 3,
				ThrottleRate: 20 * scale, ThrottleDuration: 30, ThrottleFactor: 2,
			}, 7)
			if err != nil {
				b.Fatal(err)
			}
			cfg := homogeneousFleet(3, LeastQueue)
			cfg.Admission = Shed
			cfg.Faults = &sched
			cfg.Retry = &RetryPolicy{}
			cfg.Health = &HealthConfig{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				src, err := workload.NewSource(profile, 7)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				m, err := ServeSource(cfg, src)
				if err != nil {
					b.Fatal(err)
				}
				if m.Offered != size || m.Crashes == 0 {
					b.Fatalf("degenerate soak: %d offered of %d, %d crashes", m.Offered, size, m.Crashes)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/request")
		})
	}
}
