package fleet

import (
	"math"
	"reflect"
	"testing"

	"edgereasoning/internal/faults"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/workload"
)

// fold maps an arbitrary fuzzed float into [0, max): NaN and ±Inf fold
// to 0, so every input names a usable rate or delay.
func fold(x, max float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(math.Abs(x), max)
}

// FuzzFleetServe drives whole fleet runs over generated configurations —
// 1–4 replicas, every policy and admission discipline, an optional
// autoscaler up to Max, generated crash/stall/throttle schedules with a
// restart delay, retry with or without hedging, and health-aware routing —
// on an InteractiveAssistant stream with deadlines. Oracles: the run
// succeeds, a re-run is identical, requests are conserved
// (Served + Dropped == Offered), every abort is retried or dropped
// (Retried + AbortedDropped >= Aborted), and shed and abandoned aborts
// are disjoint subsets of Dropped.
func FuzzFleetServe(f *testing.F) {
	f.Add(uint64(7), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), 1.0, 1.0, 1.0, 2.0, 2.0, 40)
	f.Add(uint64(1), uint8(1), uint8(1), uint8(3), uint8(2), uint8(9), 2.5, 0.0, 0.0, 0.0, 6.0, 60)
	f.Add(uint64(3), uint8(2), uint8(4), uint8(1), uint8(3), uint8(2), 0.5, 2.0, 1.5, 5.0, 0.5, 30)
	f.Add(uint64(11), uint8(4), uint8(2), uint8(2), uint8(1), uint8(14), 3.0, 1.0, 3.0, 1.0, 9.0, 64)
	f.Add(uint64(5), uint8(2), uint8(3), uint8(3), uint8(0), uint8(0), 0.0, 0.0, 0.0, 0.0, 3.0, 20)
	f.Fuzz(func(t *testing.T, seed uint64, nRep, policy, admission, scale, recovery uint8,
		crashRate, stallRate, throttleRate, restart, qps float64, n int) {
		replicas := 1 + int(nRep%4)
		if n < 0 {
			n = -n
		}
		n = 1 + n%64
		// The stream spans roughly its n/qps horizon; the fault horizon
		// covers it so every fault can strike live traffic.
		rate := 0.2 + fold(qps, 8)
		horizon := 1 + float64(n)/rate

		cfg := Config{
			Replicas:     HeterogeneousReplicas(replicas, DefaultDevices(), smallSpec()),
			Policy:       Policies()[int(policy)%len(Policies())],
			Admission:    Admissions()[int(admission)%len(Admissions())],
			KeepRequests: true,
		}
		if extra := int(scale % 4); extra > 0 {
			cfg.Autoscale = &AutoscaleConfig{
				Min:             1,
				Max:             replicas + extra - 1,
				Spec:            smallSpec(),
				Devices:         []*hw.Device{hw.JetsonAGXOrin64GB()},
				ColdStart:       1,
				DepthPerReplica: 2,
				IdleRetire:      5,
				Cooldown:        1,
			}
		}
		sched, err := faults.Generate(faults.GenConfig{
			Replicas:         replicas,
			Horizon:          horizon,
			CrashRate:        fold(crashRate, 4),
			RestartDelay:     fold(restart, 10),
			StallRate:        fold(stallRate, 4),
			StallDuration:    2,
			ThrottleRate:     fold(throttleRate, 4),
			ThrottleDuration: 5,
			ThrottleFactor:   2,
		}, seed)
		if err != nil {
			t.Fatalf("fault generation: %v", err)
		}
		cfg.Faults = &sched
		switch recovery % 4 {
		case 1:
			cfg.Retry = &RetryPolicy{}
		case 2:
			cfg.Retry = &RetryPolicy{Hedge: true}
		}
		if recovery&8 != 0 {
			cfg.Health = &HealthConfig{ProbeAfter: 1}
		}

		p := workload.InteractiveAssistant(rate, n)
		p.DeadlineSlack = 4
		p.DeadlineSlackMax = 20
		reqs, err := workload.Generate(p, seed)
		if err != nil {
			t.Fatalf("stream generation: %v", err)
		}

		m, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		again, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatalf("re-run: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatal("re-run of the same configuration differs")
		}
		if m.Offered != n {
			t.Fatalf("offered %d, want %d", m.Offered, n)
		}
		if m.Served+m.Dropped != m.Offered {
			t.Fatalf("conservation: served %d + dropped %d != offered %d", m.Served, m.Dropped, m.Offered)
		}
		if m.Retried+m.AbortedDropped < m.Aborted {
			t.Fatalf("aborts unaccounted: retried %d + abortedDropped %d < aborted %d", m.Retried, m.AbortedDropped, m.Aborted)
		}
		if m.Shed+m.AbortedDropped > m.Dropped {
			t.Fatalf("shed %d + abortedDropped %d exceed dropped %d", m.Shed, m.AbortedDropped, m.Dropped)
		}
	})
}
